"""Request-level chaos harness: ``repro chaos``.

The PR-2 fault registry proves each failure mode is handled *in
isolation*; this module proves the **service** survives them *under
load*: a seeded stream of allocation requests is replayed against a live
:class:`~repro.service.server.AllocationService` while faults from the
registry fire probabilistically, and three properties are asserted:

1. **No wrong answers.**  Every 200 response is diffed bit-for-bit
   against a serially computed reference — the requested method's
   reference for clean responses, the spill-all reference for degraded
   ones (that is what PR-2's degrade policy promises).  A 5xx/429 is an
   acceptable *refusal*; a wrong assignment never is.
2. **No leaked workers.**  After the run drains and the server stops,
   zero pool worker processes may be alive.
3. **Bounded tail latency.**  With the breaker shedding fast, p99 of
   *answered* requests must stay under a budget proportional to the
   request deadline — chaos may slow the service down, not wedge it.
4. **Honest telemetry.**  After the storm the harness scrapes the
   server's own ``/metrics`` and cross-checks the server-side e2e
   histogram p99 against the client-side sample; gross disagreement
   (beyond the histogram's bucket resolution with generous slack)
   means the production telemetry is lying and fails the run.

The harness runs everything in one process (server on a real localhost
socket, clients as asyncio tasks) so it is deterministic under a seed
and cheap enough for CI.
"""

from __future__ import annotations

import asyncio
import pathlib
import random
import time

from repro.durability.supervisor import process_gone
from repro.frontend import compile_source
from repro.machine import rt_pc
from repro.observability.hist import HIST_BASE
from repro.regalloc import allocate_module
from repro.regalloc.pool import active_pools
import json

from repro.service import protocol
from repro.service.protocol import encode_message
from repro.service.server import AllocationService, ServiceConfig

__all__ = ["ChaosReport", "run_chaos", "request_over_socket",
           "scrape_metrics", "CHAOS_WORKLOADS", "probe_service_fault"]

#: Small named programs the request stream draws from.  Two of them
#: spill on the default chaos target so degraded responses actually
#: differ from clean ones.
CHAOS_WORKLOADS = {
    "straightline": (
        "program straightline\n"
        "integer a, b, c, d\n"
        "a = 1\n"
        "b = 2\n"
        "c = a + b\n"
        "d = c * b\n"
        "print d\n"
        "end\n"
    ),
    "pressure": (
        "program pressure\n"
        "integer a1, a2, a3, a4, a5, a6, a7, a8, total\n"
        "a1 = 1\n"
        "a2 = 2\n"
        "a3 = 3\n"
        "a4 = 4\n"
        "a5 = 5\n"
        "a6 = 6\n"
        "a7 = 7\n"
        "a8 = 8\n"
        "total = a1 + a2 + a3 + a4 + a5 + a6 + a7 + a8\n"
        "print total\n"
        "end\n"
    ),
    "calls": (
        "subroutine leaf(n)\n"
        "end\n"
        "program calls\n"
        "integer m, x, y, z\n"
        "m = 41\n"
        "x = m + 1\n"
        "y = x * 2\n"
        "call leaf(m)\n"
        "z = x + y + m\n"
        "print z\n"
        "end\n"
    ),
    "loopy": (
        "program loopy\n"
        "integer i, acc, step\n"
        "acc = 0\n"
        "step = 3\n"
        "do i = 1, 10\n"
        "acc = acc + step\n"
        "end do\n"
        "print acc\n"
        "end\n"
    ),
}

#: Faults the chaos stream may inject per request, with default rates.
DEFAULT_FAULT_RATES = {
    "worker_crash": 0.15,
    "worker_hang": 0.0,       # opt-in: slow even when handled correctly
    "slow_request": 0.15,
    "cache_corrupt": 0.1,
    "client_disconnect": 0.1,
}


class ChaosReport:
    """Everything one chaos run learned, with the pass/fail verdict."""

    def __init__(self):
        self.requests = 0
        self.served = 0
        self.degraded = 0
        self.rejected = 0          # 429/503/504 — allowed refusals
        self.disconnected = 0      # client_disconnect injections
        self.wrong_answers = []    # (request id, explanation)
        self.errors = []           # unexpected statuses / protocol breaks
        self.latencies = []        # seconds, answered requests only
        self.injected = {}         # fault name -> count
        self.leaked_workers = []
        self.service = {}          # final service metrics section
        #: the server's own latency-histogram summaries, scraped from
        #: ``/metrics`` right after the storm drains (before recovery
        #: traffic) so the population matches ``latencies``.
        self.server_latency = {}
        self.duration = 0.0
        #: the exact storm parameters (requests, seed, fault rates, …)
        #: — enough to replay this run bit-for-bit.
        self.storm = {}

    @property
    def p99(self) -> float:
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        return ordered[min(len(ordered) - 1,
                           int(0.99 * len(ordered)))]

    @property
    def server_p99(self) -> float:
        """The server's own e2e p99 as its histogram saw it (0.0 when
        the ``/metrics`` scrape failed or recorded nothing)."""
        summary = (self.server_latency or {}).get("e2e") or {}
        value = summary.get("p99")
        return float(value) if isinstance(value, (int, float)) else 0.0

    @property
    def ok(self) -> bool:
        return not self.wrong_answers and not self.errors \
            and not self.leaked_workers

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "served": self.served,
            "degraded": self.degraded,
            "rejected": self.rejected,
            "disconnected": self.disconnected,
            "wrong_answers": self.wrong_answers,
            "errors": self.errors,
            "injected": dict(sorted(self.injected.items())),
            "p99": round(self.p99, 4),
            "server_p99": round(self.server_p99, 4),
            "server_latency": self.server_latency,
            "duration": round(self.duration, 3),
            "leaked_workers": self.leaked_workers,
            "service": self.service,
            "storm": self.storm,
            "ok": self.ok,
        }

    def summary(self) -> str:
        verdict = "OK" if self.ok else "FAILED"
        injected = ", ".join(
            f"{name}×{count}"
            for name, count in sorted(self.injected.items())
        ) or "none"
        lines = [
            f"chaos {verdict}: {self.requests} requests in "
            f"{self.duration:.1f}s — {self.served} served "
            f"({self.degraded} degraded), {self.rejected} rejected, "
            f"{self.disconnected} disconnects, p99 {self.p99 * 1000:.0f}ms "
            f"(server-side {self.server_p99 * 1000:.0f}ms)",
            f"  injected: {injected}",
        ]
        for request_id, why in self.wrong_answers:
            lines.append(f"  WRONG ANSWER {request_id}: {why}")
        for why in self.errors:
            lines.append(f"  ERROR: {why}")
        if self.leaked_workers:
            lines.append(f"  LEAKED WORKERS: {self.leaked_workers}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------


async def request_over_socket(host, port, message: dict,
                              timeout: float = 30.0,
                              disconnect_after: float = None) -> dict | None:
    """Send one NDJSON request, return the decoded reply.

    ``disconnect_after`` simulates a client that hangs up mid-request
    (the ``client_disconnect`` fault): the socket is torn down after
    that many seconds and ``None`` is returned — the *server's* health
    afterwards is the property under test.
    """
    from repro.service.server import _LINE_LIMIT

    reader, writer = await asyncio.open_connection(host, port,
                                                   limit=_LINE_LIMIT)
    try:
        writer.write(encode_message(message))
        await writer.drain()
        if disconnect_after is not None:
            await asyncio.sleep(disconnect_after)
            return None
        line = await asyncio.wait_for(reader.readline(), timeout)
        if not line:
            return None
        return json.loads(line)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


async def scrape_metrics(host, port, timeout: float = 5.0) -> dict:
    """One HTTP/1.0 ``GET /metrics`` against a live server; returns the
    decoded repro-metrics/1 document.  Raises ``ValueError`` on a
    non-200 answer or an unparsable body, ``OSError``/``TimeoutError``
    on transport trouble — callers decide how loud to be."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].decode("ascii", "replace")
    if " 200 " not in status_line:
        raise ValueError(f"/metrics answered {status_line!r}")
    return json.loads(body)


#: Quantile agreement is only asserted once both sides have a
#: statistically meaningful sample.
_P99_MIN_SAMPLES = 8
#: Gross-divergence gate for *every* storm: the log-histogram's bucket
#: resolution is HIST_BASE (~1.19x); two buckets of slop either way
#: plus fixed slack leaves room for queueing skew between the client's
#: and the server's measurement points, while still catching a
#: histogram that is off by an order of magnitude.
_P99_GROSS_RATIO = HIST_BASE ** 4
_P99_GROSS_SLACK = 0.05


def _cross_validate_p99(report: "ChaosReport") -> None:
    """Property 4: the p99 an operator would read off ``/metrics`` must
    agree with the p99 the clients actually experienced."""
    summary = (report.server_latency or {}).get("e2e") or {}
    if not summary:
        report.errors.append(
            "/metrics reported no e2e latency histogram — server-side "
            "telemetry is missing")
        return
    if summary.get("count", 0) < _P99_MIN_SAMPLES \
            or len(report.latencies) < _P99_MIN_SAMPLES:
        return
    server_p99 = report.server_p99
    client_p99 = report.p99
    if report.injected:
        # Under injected faults the client legitimately waits on
        # requests the server never answers (hung workers, shed
        # retries, disconnects), so client p99 may exceed server p99
        # by any amount.  The reverse direction stays suspicious in
        # every storm: the server claiming a worse tail than any
        # client experienced means the histogram is lying.
        if server_p99 > client_p99 * _P99_GROSS_RATIO + _P99_GROSS_SLACK:
            report.errors.append(
                f"server-side p99 {server_p99 * 1000:.0f}ms exceeds "
                f"client-side p99 {client_p99 * 1000:.0f}ms "
                f"(tolerance x{_P99_GROSS_RATIO:.2f} + "
                f"{_P99_GROSS_SLACK * 1000:.0f}ms)")
        return
    low, high = sorted((server_p99, client_p99))
    if high > low * _P99_GROSS_RATIO + _P99_GROSS_SLACK:
        report.errors.append(
            f"server-side p99 {server_p99 * 1000:.0f}ms disagrees "
            f"grossly with client-side p99 {client_p99 * 1000:.0f}ms "
            f"(tolerance x{_P99_GROSS_RATIO:.2f} + "
            f"{_P99_GROSS_SLACK * 1000:.0f}ms)")


# ----------------------------------------------------------------------
# Serial references
# ----------------------------------------------------------------------


class _ReferenceBank:
    """Serial, pool-free reference assignments, computed lazily once per
    (workload, method) and shared by every verification."""

    def __init__(self, target):
        self.target = target
        self._cache = {}

    def flat(self, workload: str, method: str) -> dict:
        key = (workload, method)
        if key not in self._cache:
            module = compile_source(CHAOS_WORKLOADS[workload], workload)
            allocation = allocate_module(
                module, self.target, method, jobs=1, cache=False,
            )
            self._cache[key] = protocol.flat_assignment(allocation)
        return self._cache[key]


def _verify_response(reply, workload, method, references, report):
    """Rule table: which statuses are acceptable, and what each 200 must
    match bit-for-bit."""
    status = reply.get("status")
    request_id = reply.get("id")
    if status == 200:
        report.served += 1
        expect_method = method
        if reply.get("degraded"):
            report.degraded += 1
            # Degraded functions fall back to spill-all; a partially
            # degraded module mixes methods, so check per function.
            got = reply.get("assignment", {})
            want_primary = references.flat(workload, method)
            want_naive = references.flat(workload, "spill-all")
            for fn, assignment in got.items():
                if assignment != want_primary.get(fn) and \
                        assignment != want_naive.get(fn):
                    report.wrong_answers.append((
                        request_id,
                        f"{workload}/{fn} matches neither the {method} "
                        f"reference nor the spill-all degradation",
                    ))
            return
        want = references.flat(workload, expect_method)
        if reply.get("assignment") != want:
            report.wrong_answers.append((
                request_id,
                f"{workload} ({method}) differs from the serial "
                f"reference assignment",
            ))
    elif status in (429, 503, 504):
        report.rejected += 1
    else:
        report.errors.append(
            f"request {request_id}: unexpected status {status}: "
            f"{reply.get('error')}"
        )


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------


def run_chaos(requests: int = 40, seed: int = 0, fault_rates=None,
              concurrency: int = 4, deadline: float = 10.0,
              config: ServiceConfig = None, progress=None,
              workloads=None, bundle_dir=None) -> ChaosReport:
    """Replay a seeded request stream against a live server under fault
    injection; return the :class:`ChaosReport` (check ``report.ok``).

    ``bundle_dir`` (with the default config) makes the server write a
    crash bundle under ``bundle_dir/request-<n>/`` for every degraded
    function — the artifact CI uploads when a chaos run goes red.
    """
    rates = dict(DEFAULT_FAULT_RATES)
    if fault_rates is not None:
        rates.update(fault_rates)
    rng = random.Random(seed)
    if config is None:
        import tempfile

        config = ServiceConfig(
            concurrency=2, queue_limit=4, jobs=2,
            default_deadline=deadline, max_deadline=max(deadline, 30.0),
            breaker_threshold=4, breaker_cooldown=0.2,
            bundle_dir=bundle_dir,
            # A live disk tier so ``cache_corrupt`` has files to damage.
            cache_dir=tempfile.mkdtemp(prefix="repro-chaos-cache-"),
        )
    # Fault injection is the harness's entire purpose; unconditionally
    # opt the server in, even on a caller-supplied config.
    config.allow_faults = True
    report = ChaosReport()
    references = _ReferenceBank(rt_pc())
    methods = ("briggs", "chaitin", "briggs-degree")
    pool = sorted(workloads) if workloads else sorted(CHAOS_WORKLOADS)

    report.storm = {
        "format": 1,
        "requests": requests,
        "seed": seed,
        "fault_rates": dict(sorted(rates.items())),
        "concurrency": concurrency,
        "deadline": deadline,
        "workloads": pool if workloads else None,
    }
    if bundle_dir is not None:
        # The storm manifest rides along with the crash bundles, so a
        # CI artifact is replayable with `repro chaos --replay <dir>`.
        directory = pathlib.Path(bundle_dir)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "storm.json").write_text(
            json.dumps(report.storm, indent=2, sort_keys=True) + "\n"
        )

    # The whole stream is drawn up front from the seed so scheduling
    # nondeterminism cannot change *what* is injected, only when.
    plan = []
    for index in range(requests):
        workload = rng.choice(pool)
        method = rng.choice(methods)
        fault = None
        roll = rng.random()
        floor = 0.0
        for name, rate in sorted(rates.items()):
            if rate <= 0:
                continue
            if floor <= roll < floor + rate:
                fault = name
                break
            floor += rate
        plan.append((index, workload, method, fault))

    async def one_request(service, index, workload, method, fault):
        message = {
            "op": "allocate",
            "id": index,
            "source": CHAOS_WORKLOADS[workload],
            "name": workload,
            "method": method,
            "deadline": deadline,
        }
        disconnect_after = None
        if fault == "client_disconnect":
            disconnect_after = rng.uniform(0.0, 0.05)
        elif fault is not None:
            message["fault"] = fault
        report.requests += 1
        if fault is not None:
            report.injected[fault] = report.injected.get(fault, 0) + 1
        began = time.monotonic()
        try:
            reply = await request_over_socket(
                "127.0.0.1", service.port, message,
                timeout=deadline * 3,
                disconnect_after=disconnect_after,
            )
        except (ConnectionResetError, BrokenPipeError, OSError,
                asyncio.TimeoutError) as error:
            report.errors.append(
                f"request {index}: transport failed: {error!r}")
            return
        if disconnect_after is not None:
            report.disconnected += 1
            return
        if reply is None:
            report.errors.append(
                f"request {index}: connection closed without a reply")
            return
        report.latencies.append(time.monotonic() - began)
        _verify_response(reply, workload, method, references, report)
        if progress is not None:
            progress(index, reply)

    async def main():
        service = AllocationService(config)
        await service.start()
        try:
            gate = asyncio.Semaphore(concurrency)

            async def gated(entry):
                async with gate:
                    await one_request(service, *entry)

            began = time.monotonic()
            await asyncio.gather(*(gated(entry) for entry in plan))
            report.duration = time.monotonic() - began
            # Property 4: scrape the server's own histograms *now*,
            # before recovery traffic dilutes the e2e population, and
            # cross-check its p99 against the client-side sample.
            try:
                metrics = await scrape_metrics("127.0.0.1", service.port)
            except (OSError, ValueError, asyncio.TimeoutError) as error:
                report.errors.append(
                    f"/metrics scrape failed after the storm: {error!r}")
                metrics = {}
            report.server_latency = (
                metrics.get("service", {}).get("latency", {}) or {}
            )
            _cross_validate_p99(report)
            # The server must still be *healthy* after the storm: one
            # clean request has to succeed (possibly after the breaker's
            # cooldown admits its trial).
            recovery_deadline = time.monotonic() + max(10.0, deadline)
            while True:
                reply = await request_over_socket(
                    "127.0.0.1", service.port,
                    {"op": "allocate", "id": "recovery",
                     "source": CHAOS_WORKLOADS["straightline"],
                     "name": "straightline", "method": "briggs",
                     "deadline": deadline},
                    timeout=deadline * 3,
                )
                if reply is not None and reply.get("status") == 200 \
                        and not reply.get("degraded"):
                    _verify_response(reply, "straightline", "briggs",
                                     references, report)
                    break
                if time.monotonic() > recovery_deadline:
                    report.errors.append(
                        "server never recovered after the fault storm "
                        f"(last reply: {reply})")
                    break
                await asyncio.sleep(0.1)
            report.service = service.service_section()
        finally:
            worker_pids.extend(
                pid for pool in active_pools()
                for pid in pool.worker_pids()
            )
            await service.stop()

    worker_pids: list = []
    asyncio.run(main())
    # Property 2: every worker the run ever spawned is gone.
    report.leaked_workers = [
        pid for pid in worker_pids if not process_gone(pid)
    ]
    return report


def replay_command(storm: dict) -> str:
    """The exact ``repro chaos`` invocation that reproduces ``storm``.

    Every effective parameter is spelled out — including each nonzero
    fault rate — so the command is self-contained and does not depend
    on the default mix staying what it is today.
    """
    parts = [
        "repro chaos",
        f"--requests {storm['requests']}",
        f"--seed {storm['seed']}",
        f"--concurrency {storm['concurrency']}",
        f"--deadline {storm['deadline']:g}",
    ]
    for name, rate in sorted(storm.get("fault_rates", {}).items()):
        if rate > 0:
            parts.append(f"--fault {name}={rate:g}")
    return " ".join(parts)


def load_storm_manifest(bundle) -> dict:
    """The storm manifest from a chaos bundle directory (or the
    ``storm.json`` file itself); raises ``ReproError`` when the bundle
    has none or it is unreadable."""
    from repro.errors import ReproError

    path = pathlib.Path(bundle)
    if path.is_dir():
        path = path / "storm.json"
    try:
        manifest = json.loads(path.read_text())
    except FileNotFoundError:
        raise ReproError(
            f"no storm manifest at {path} — was the original run given "
            "--bundle-dir?"
        )
    except (OSError, ValueError) as error:
        raise ReproError(f"unreadable storm manifest {path}: {error}")
    if not isinstance(manifest, dict) or "seed" not in manifest:
        raise ReproError(f"malformed storm manifest {path}")
    return manifest


# ----------------------------------------------------------------------
# Registry bridge: lets `probe_fault`/`repro verify --inject` exercise
# the service-kind faults the same way it exercises all the others.
# ----------------------------------------------------------------------


def probe_service_fault(fault, seed: int):
    """Run one service-kind fault through a minimal single-request chaos
    harness; returns ``(injected, detected_by, degraded, failures,
    detail)`` for :class:`repro.robustness.faults.FaultProbe`."""
    import tempfile

    rates = {name: 0.0 for name in DEFAULT_FAULT_RATES}
    rates[fault.name] = 1.0
    deadline = 0.6 if fault.name == "slow_request" else 8.0
    cache_dir = None
    if fault.name == "cache_corrupt":
        # The corruption targets the disk tier; give the probe one.
        cache_dir = tempfile.mkdtemp(prefix="repro-chaos-cache-")
    config = ServiceConfig(
        concurrency=1, queue_limit=2, jobs=2,
        default_deadline=deadline, max_deadline=30.0,
        breaker_threshold=10, breaker_cooldown=0.1,
        cache_dir=cache_dir,
    )
    # cache_corrupt needs the cacheable path: multi-function workloads
    # only, and enough requests that corruption hits populated entries.
    workloads = ("calls",) if fault.name == "cache_corrupt" else None
    report = run_chaos(
        requests=3 if fault.name == "cache_corrupt" else 2, seed=seed,
        fault_rates=rates, concurrency=1, deadline=deadline,
        config=config, workloads=workloads,
    )
    detected = []
    degraded = False
    if fault.name == "slow_request":
        # An injected stall longer than the deadline must surface as a
        # 504 rejection, not as a slow success.
        if report.rejected:
            detected.append("driver")
            degraded = True
    elif fault.name == "cache_corrupt":
        quarantined = (
            report.service.get("response_cache", {})
            .get("disk", {}).get("quarantined", 0)
        )
        # The fault only counts as handled when damage actually reached
        # the read path *and* every answer still matched the reference.
        if report.served and quarantined and not report.wrong_answers:
            degraded = True
            detected.append("driver")
        detail = f"{quarantined} entries quarantined"
        return (fault.description, detected, degraded and report.ok,
                report.rejected, detail)
    elif fault.name == "client_disconnect":
        if report.disconnected and report.ok:
            degraded = True
            detected.append("driver")
    detail = (
        f"{report.served} served, {report.rejected} rejected, "
        f"{report.disconnected} disconnected"
    )
    return (fault.description, detected, degraded and report.ok,
            report.rejected, detail)
