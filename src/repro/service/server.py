"""The hardened allocation service: ``repro serve``.

A zero-dependency stdlib-asyncio daemon that accepts mini-FORTRAN source
or :mod:`repro.ir.wire` module text over the NDJSON protocol
(:mod:`repro.service.protocol`), runs Build–Simplify–Select on the
persistent :class:`~repro.regalloc.pool.WorkerPool`, and answers with
register assignments plus a ``repro-metrics/1`` document on request.

The interesting part is what happens when things go wrong.  Five
hardening layers, outermost first:

1. **Admission control** — at most ``queue_limit`` requests may be
   admitted beyond the ``concurrency`` actually executing; request
   ``queue_limit + concurrency + 1`` is shed immediately with a 429
   instead of growing an unbounded backlog.  Load shedding is counted
   (``shed``) and flips ``/readyz`` to 503 while saturated.
2. **Deadline budgets** — every request carries a deadline (defaulted
   and clamped by the server).  Queue wait burns the budget; what is
   left when execution starts is divided across the module's functions
   and handed to the pool as its per-function timeout, so the driver's
   own watchdog (hang detection, pool restart) enforces the deadline
   from the inside.  An asyncio backstop at 1.5× budget catches
   anything the inner timeout misses.  Either way: 504.
3. **Circuit breaker** — ``breaker_threshold`` *consecutive* backend
   failures (crashes, hangs, deadline blowouts) open the breaker; while
   open every request is a fast 503 rather than another slow failure.
   After ``breaker_cooldown`` seconds one trial request is admitted and
   the transition *restarts the worker pools* so the trial runs on
   fresh processes.  A degraded-but-answered request counts as a
   failure for the breaker (the backend is sick) while still returning
   its 200.
4. **Graceful degradation** — the per-request allocation runs under the
   PR-2 :class:`~repro.regalloc.driver.FailurePolicy` (default
   ``degrade-to-naive``): a function whose allocation dies comes back
   spill-everything-correct rather than not at all, with the failure on
   record in the response and a crash bundle under
   ``bundle_dir/request-<n>/`` for offline repro.
5. **Teardown discipline** — SIGTERM/SIGINT stop accepting, drain
   in-flight requests, then run
   :func:`repro.regalloc.pool.shutdown_pools` *before* interpreter
   teardown, so no warm worker outlives the daemon.

Operational surface: ``GET /healthz`` (liveness), ``GET /readyz``
(readiness: accepting ∧ breaker not open ∧ queue not full),
``GET /metrics`` (cumulative ``service`` counters, pool/cache
diagnostics, and server-side latency histograms — queue wait, pool
dispatch, end-to-end — as p50/p95/p99 summaries; append
``?format=prom`` for Prometheus text exposition), and ``GET /events``
(the bounded structured event ring as ``repro-events/1`` NDJSON:
admissions, sheds, breaker transitions, degrades, journal replays,
pool restarts, repair-round summaries; ``?since=SEQ`` resumes a
cursor) answer plain HTTP on the same port.

Per-request tracing is opt-in: a request carrying ``"trace": true`` is
allocated under a live :class:`~repro.observability.trace.Tracer`
stamped with the request's trace id, and the reply carries the merged
Chrome trace (service span → pool worker lanes → repair rounds) under
``"trace"``.  Every reply — traced or not — carries its ``trace_id``.
Traced requests bypass the response cache (a cached replay would drop
worker spans), which is exactly why tracing is per-request and not a
server mode; ``ServiceConfig(trace_dir=...)`` additionally spools each
requested trace to ``trace-<id>.json``.

Chaos hooks (the ``fault`` request field) are gated behind
``ServiceConfig(allow_faults=True)``: only the chaos harness and the
fault tests enable them, and every other server answers 403 — a client
must never be able to wedge a worker or corrupt the disk cache on a
production instance.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import itertools
import os
import pathlib
import random
import time

from repro.errors import ReproError
from repro.frontend import compile_source
from repro.ir.wire import decode_module
from repro.machine import rt_pc
from repro.observability import Tracer
from repro.observability.events import EventLog
from repro.observability.export import chrome_trace_events, write_chrome_trace
from repro.observability.hist import (
    PROMETHEUS_CONTENT_TYPE,
    LogHistogram,
    prometheus_text,
)
from repro.regalloc import allocate_module
from repro.regalloc.pool import (
    RESPONSE_CACHE,
    install_signal_teardown,
    restart_pools,
    shutdown_pools,
)
from repro.service.breaker import CircuitBreaker
from repro.service import protocol
from repro.service.protocol import (
    PROTOCOL_VERSION,
    RequestError,
    decode_message,
    encode_message,
    error_response,
    flat_assignment,
    http_response,
    parse_allocate_request,
    response,
)

__all__ = ["ServiceConfig", "AllocationService", "run_server",
           "unanswered_requests"]

#: NDJSON line-length ceiling (16 MiB) — a runaway client cannot balloon
#: the reader buffer.
_LINE_LIMIT = 16 * 1024 * 1024


def unanswered_requests(records) -> list:
    """The journaled ``request`` records with no ``response`` record:
    what a previous server life accepted and died before answering."""
    answered = {
        record.get("jid") for record in records
        if record.get("type") == "response"
    }
    return [
        record for record in records
        if record.get("type") == "request"
        and record.get("jid") not in answered
    ]


class ServiceConfig:
    """Knobs for one :class:`AllocationService`; all have serving
    defaults, the chaos harness and tests tighten them."""

    __slots__ = (
        "host", "port", "concurrency", "queue_limit", "default_deadline",
        "max_deadline", "breaker_threshold", "breaker_cooldown", "jobs",
        "policy", "retries", "bundle_dir", "cache_dir", "optimize",
        "allow_faults", "journal_path", "trace_dir",
    )

    def __init__(self, host="127.0.0.1", port=0, concurrency=2,
                 queue_limit=8, default_deadline=30.0, max_deadline=120.0,
                 breaker_threshold=5, breaker_cooldown=2.0, jobs=2,
                 policy="degrade-to-naive", retries=1, bundle_dir=None,
                 cache_dir=None, optimize=False, allow_faults=False,
                 journal_path=None, trace_dir=None):
        self.host = host
        #: 0 asks the OS for an ephemeral port; the bound port is on
        #: :attr:`AllocationService.port` after :meth:`~AllocationService.start`.
        self.port = port
        self.concurrency = max(1, concurrency)
        self.queue_limit = max(0, queue_limit)
        self.default_deadline = default_deadline
        self.max_deadline = max_deadline
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.jobs = jobs
        self.policy = policy
        self.retries = retries
        self.bundle_dir = bundle_dir
        #: attach the checksummed disk tier of the response cache here.
        self.cache_dir = cache_dir
        self.optimize = optimize
        #: chaos hooks are opt-in: only the chaos harness and the fault
        #: tests set this.  A production server answers 403 to any
        #: request carrying a ``fault`` field — a client must never be
        #: able to wedge workers or damage the disk cache by policy.
        self.allow_faults = allow_faults
        #: crash-safe request journal (see :mod:`repro.durability`):
        #: admitted requests are journaled before execution and marked
        #: answered after; a restarted server replays the unfinished
        #: ones before reporting ready.
        self.journal_path = journal_path
        #: spool every client-requested per-request trace to
        #: ``<trace_dir>/trace-<id>.json`` (``repro serve --trace-dir``).
        self.trace_dir = trace_dir


class AllocationService:
    """One serving instance; create, ``await start()``, ``await stop()``."""

    def __init__(self, config: ServiceConfig = None, tracer=None):
        self.config = config or ServiceConfig()
        self.tracer = tracer if tracer is not None else Tracer()
        #: structured event ring behind ``GET /events`` / ``repro tail``.
        self.events = EventLog()
        #: always-on latency histograms behind ``/metrics``:
        #: ``queue_wait`` (received → execution start), ``dispatch``
        #: (blocking allocation call), ``e2e`` (received → reply, on
        #: *every* allocate reply path — the population a client's own
        #: tail measurement sees, which is what makes server p99 and
        #: chaos-harness p99 comparable).
        self.hists = {
            "queue_wait": LogHistogram(),
            "dispatch": LogHistogram(),
            "e2e": LogHistogram(),
        }
        #: allocator counters absorbed from traced requests' tracers
        #: (``repair.finalized``/``repair.conflicts`` per round, etc.).
        #: Untraced requests run with no tracer, so these accumulate
        #: only from requests that asked for tracing.
        self.allocator_counters: dict = {}
        self._trace_seq = itertools.count(1)
        self.breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            cooldown=self.config.breaker_cooldown,
            on_half_open=self._half_open_restart,
        )
        self.accepting = False
        self.port = None
        self._server = None
        self._executor = None
        self._semaphore = None
        self._admitted = 0           # requests admitted, not yet answered
        #: bundle-dir sequence; drawn with ``next()`` so concurrent
        #: executor threads can never share a ``request-<n>`` directory
        #: (itertools.count.__next__ is atomic under the GIL).
        self._request_seq = itertools.count(1)
        self._started_at = None
        self._rng = random.Random()
        #: set by stop() — including the client-driven ``shutdown`` op —
        #: so serve_until() wakes even when the caller's stop_event
        #: never fires (the zombie-after-shutdown case).
        self._stop_requested = asyncio.Event()
        self._stopped = asyncio.Event()
        self._stopping = False
        #: request journal (durability): None unless configured.
        self._journal = None
        self._journal_seq = itertools.count(1)
        self._recovery_done = True
        self._recovery_task = None
        self._recovery = {"pending_at_start": 0, "recovered": 0,
                          "recovery_failed": 0}
        self.counters = {
            "requests": 0,            # allocate requests received
            "served": 0,              # 200s, degraded or not
            "degraded": 0,            # 200s with at least one failure
            "shed": 0,                # 429: admission queue full
            "breaker_rejected": 0,    # 503: breaker open
            "deadline_exceeded": 0,   # 504
            "failed": 0,              # 500: policy re-raised
            "bad_requests": 0,        # 400
            "connections": 0,
        }

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        if self.config.cache_dir is not None:
            RESPONSE_CACHE.attach_disk(self.config.cache_dir)
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.concurrency,
            thread_name_prefix="repro-serve",
        )
        self._semaphore = asyncio.Semaphore(self.config.concurrency)
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=_LINE_LIMIT,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.accepting = True
        self._started_at = time.monotonic()
        if self.config.journal_path is not None:
            from repro.durability.journal import Journal

            self._journal = Journal(self.config.journal_path)
            records = self._journal.records()
            backlog = unanswered_requests(records)
            jids = [record.get("jid", 0) for record in records
                    if record.get("type") == "request"]
            self._journal_seq = itertools.count(max(jids, default=0) + 1)
            self._recovery["pending_at_start"] = len(backlog)
            if backlog:
                # A previous life accepted these and died before
                # answering: replay them (the disk cache makes the redo
                # cheap and the answers land back in it), and stay
                # not-ready until the backlog is drained.
                self.events.emit("journal-replay", phase="start",
                                 pending=len(backlog))
                self._recovery_done = False
                self._recovery_task = asyncio.ensure_future(
                    self._replay_backlog(backlog)
                )

    async def stop(self) -> None:
        """Stop accepting, drain in-flight work, tear down the pools.

        Idempotent and safe to race: the first caller tears down, any
        concurrent caller waits for that teardown to finish (the
        ``shutdown`` op and :meth:`serve_until` both call this).
        """
        self.accepting = False
        self._stop_requested.set()
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        try:
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
                self._server = None
            deadline = time.monotonic() + self.config.max_deadline
            while self._admitted > 0 and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
            if self._recovery_task is not None:
                self._recovery_task.cancel()
                with contextlib.suppress(Exception,
                                         asyncio.CancelledError):
                    await self._recovery_task
                self._recovery_task = None
            if self._executor is not None:
                self._executor.shutdown(wait=True, cancel_futures=True)
                self._executor = None
            if self._journal is not None:
                self._journal.close()
                self._journal = None
            shutdown_pools()
            if self.config.cache_dir is not None:
                RESPONSE_CACHE.detach_disk()
        finally:
            self._stopped.set()

    async def serve_until(self, stop_event: asyncio.Event) -> None:
        """Serve until ``stop_event`` fires *or* the service is stopped
        from the inside (a client ``shutdown`` op) — without the second
        arm the daemon would linger as a zombie after a client shutdown,
        listener closed, waiting on a stop_event nobody will ever set.
        """
        waiters = [
            asyncio.ensure_future(stop_event.wait()),
            asyncio.ensure_future(self._stop_requested.wait()),
        ]
        try:
            await asyncio.wait(waiters,
                               return_when=asyncio.FIRST_COMPLETED)
        finally:
            for waiter in waiters:
                waiter.cancel()
        await self.stop()

    # -- connection handling -------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self.counters["connections"] += 1
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            # Loop teardown cancelled an idle keep-alive connection; the
            # drain in stop() already guaranteed no reply is in flight.
            pass
        finally:
            with contextlib.suppress(Exception, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()

    async def _serve_connection(self, reader, writer) -> None:
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                writer.write(encode_message(error_response(
                    None, 400, "request line too long")))
                break
            except (ConnectionResetError, BrokenPipeError):
                break
            if not line:
                break
            if line[:4] in (b"GET ", b"HEAD"):
                await self._handle_http(line, reader, writer)
                break
            stop_after = await self._handle_line(line, writer)
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                break
            if stop_after:
                break

    async def _handle_line(self, line: bytes, writer) -> bool:
        """Answer one NDJSON request; True when the connection (or the
        whole server, for ``shutdown``) should wind down."""
        received = time.monotonic()
        try:
            message = decode_message(line)
        except RequestError as error:
            self.counters["bad_requests"] += 1
            writer.write(encode_message(error_response(
                None, error.status, str(error))))
            return False
        op = message["op"]
        request_id = message.get("id")
        if op == "ping":
            writer.write(encode_message(response(
                request_id, ok=True, protocol=PROTOCOL_VERSION)))
            return False
        if op == "stats":
            writer.write(encode_message(response(
                request_id, service=self.service_section())))
            return False
        if op == "shutdown":
            writer.write(encode_message(response(request_id, ok=True)))
            with contextlib.suppress(Exception):
                await writer.drain()
            asyncio.get_running_loop().call_soon(
                asyncio.ensure_future, self.stop())
            return True
        reply = await self._handle_allocate(message, received)
        writer.write(encode_message(reply))
        return False

    async def _handle_allocate(self, message: dict, received: float) -> dict:
        """Answer one allocate request, stamping the trace id and
        recording end-to-end latency on **every** reply path — rejects
        included — so the server-side ``e2e`` histogram covers the same
        request population a client-side tail measurement does."""
        self.counters["requests"] += 1
        trace_id = f"{os.getpid():x}-{next(self._trace_seq)}"
        reply = await self._allocate_reply(message, received, trace_id)
        if isinstance(reply, dict):
            reply.setdefault("trace_id", trace_id)
        self.hists["e2e"].record(max(time.monotonic() - received, 0.0))
        return reply

    async def _allocate_reply(self, message: dict, received: float,
                              trace_id: str) -> dict:
        request_id = message.get("id")
        try:
            request = parse_allocate_request(
                message, self.config.default_deadline,
                self.config.max_deadline)
        except RequestError as error:
            self.counters["bad_requests"] += 1
            return error_response(request_id, error.status, str(error))
        if request.fault is not None and not self.config.allow_faults:
            # Chaos hooks are live only when the operator opted in; on a
            # production server a `fault` field is a forbidden request,
            # not an available feature (worker_hang would wedge a
            # worker, cache_corrupt would damage every disk entry).
            self.counters["bad_requests"] += 1
            return error_response(
                request_id, 403,
                "fault injection is disabled on this server",
                reason="faults_disabled")
        # Layer 1: admission control.  Everything admitted beyond the
        # executing `concurrency` is queue; bound it.
        if not self.accepting:
            return error_response(request_id, 503, "shutting down",
                                  reason="shutdown")
        if self._admitted >= self.config.concurrency + self.config.queue_limit:
            self.counters["shed"] += 1
            self.events.emit(
                "shed", trace_id=trace_id, id=request_id,
                in_flight=self._admitted,
                queue_limit=self.config.queue_limit)
            return error_response(
                request_id, 429, "queue full, request shed",
                reason="shed", queue_limit=self.config.queue_limit)
        # Layer 3: circuit breaker.
        if not self._breaker_call("allow"):
            self.counters["breaker_rejected"] += 1
            return error_response(
                request_id, 503, "circuit breaker open",
                reason="breaker_open",
                retry_after=self.config.breaker_cooldown)
        self._admitted += 1
        self.events.emit(
            "admission", trace_id=trace_id, id=request_id,
            method=request.method, deadline=request.deadline,
            traced=request.trace, in_flight=self._admitted)
        jid = self._journal_request(message, request)
        try:
            result = await self._execute(request, received, trace_id)
            self._journal_outcome(jid, result)
            return result
        finally:
            self._admitted -= 1

    # -- breaker transitions as events ---------------------------------

    def _breaker_call(self, method_name: str):
        """Invoke one breaker method, turning any state transition it
        causes into a ``breaker`` event — transitions happen inside
        ``allow``/``record_failure``/``record_success``, so this wrapper
        is the one place they all become visible."""
        before = self.breaker.state
        result = getattr(self.breaker, method_name)()
        after = self.breaker.state
        if after != before:
            self.events.emit(
                "breaker", **{"from": before, "to": after,
                              "consecutive_failures":
                                  self.breaker.consecutive_failures,
                              "trips": self.breaker.trips})
        return result

    def _half_open_restart(self) -> None:
        """The breaker's open → half-open hook: restart the worker pools
        so the trial request runs on fresh processes, and say so."""
        self.events.emit("pool-restart", reason="breaker_half_open")
        restart_pools()

    # -- request journal (durability) ----------------------------------

    def _journal_request(self, message: dict, request):
        """Journal one admitted request; returns its journal id (or
        ``None`` when journaling is off).  Chaos requests are never
        journaled — replaying an injected fault at startup would be a
        self-inflicted wound."""
        if self._journal is None or request.fault is not None:
            return None
        jid = next(self._journal_seq)
        record = {"type": "request", "jid": jid}
        for key in ("id", "name", "source", "wire", "method",
                    "int_regs", "float_regs", "validate"):
            value = message.get(key)
            if value is not None:
                record[key] = value
        try:
            self._journal.append(record)
        except (ReproError, OSError):
            return None
        return jid

    def _journal_outcome(self, jid, result) -> None:
        if jid is None or self._journal is None:
            return
        status = result.get("status") if isinstance(result, dict) else None
        with contextlib.suppress(ReproError, OSError):
            self._journal.append({
                "type": "response", "jid": jid,
                "status": 200 if status is None else status,
            })

    async def _replay_backlog(self, backlog) -> None:
        """Re-execute every accepted-but-unanswered request from the
        journal; the service reports ready only once this drains.  A
        request that fails to replay is marked so it is never retried
        again — recovery must converge, not loop."""
        loop = asyncio.get_running_loop()
        try:
            for record in backlog:
                try:
                    request = parse_allocate_request(
                        dict(record, fault=None, fault_args={}),
                        self.config.default_deadline,
                        self.config.max_deadline,
                    )
                    await loop.run_in_executor(
                        self._executor, self._allocate_blocking,
                        request, self.config.max_deadline, None,
                    )
                    self._recovery["recovered"] += 1
                    outcome = "recovered"
                except asyncio.CancelledError:
                    raise
                except Exception:  # noqa: BLE001 — recovery must converge
                    self._recovery["recovery_failed"] += 1
                    outcome = "recovery-failed"
                with contextlib.suppress(ReproError, OSError):
                    self._journal.append({
                        "type": "response", "jid": record.get("jid"),
                        "status": outcome,
                    })
        finally:
            self._recovery_done = True
            self.events.emit(
                "journal-replay", phase="done",
                recovered=self._recovery["recovered"],
                failed=self._recovery["recovery_failed"])

    async def _execute(self, request, received: float,
                       trace_id: str = None) -> dict:
        """Layers 2 and 4: deadline budget and degrading execution."""
        fault_spec = None
        if request.fault is not None:
            try:
                fault_spec = self._resolve_fault(request)
            except RequestError as error:
                self.counters["bad_requests"] += 1
                return error_response(request.id, error.status, str(error))
        async with self._semaphore:
            self.hists["queue_wait"].record(
                max(time.monotonic() - received, 0.0))
            if fault_spec is not None and \
                    fault_spec.get("behavior") == "slow_request":
                # The injected stall burns this request's own deadline
                # budget, exactly like a slow parse or a cold pool would.
                await asyncio.sleep(fault_spec["delay"])
            remaining = request.deadline - (time.monotonic() - received)
            if remaining <= 0:
                self.counters["deadline_exceeded"] += 1
                self._breaker_call("record_failure")
                return error_response(
                    request.id, 504, "deadline exhausted while queued",
                    reason="deadline", deadline=request.deadline)
            loop = asyncio.get_running_loop()
            dispatched = time.monotonic()
            try:
                payload = await asyncio.wait_for(
                    loop.run_in_executor(
                        self._executor, self._allocate_blocking,
                        request, remaining, fault_spec, trace_id),
                    timeout=remaining * 1.5,
                )
            except asyncio.TimeoutError:
                self.counters["deadline_exceeded"] += 1
                self._breaker_call("record_failure")
                return error_response(
                    request.id, 504,
                    "deadline exceeded (backstop)", reason="deadline",
                    deadline=request.deadline)
            except RequestError as error:
                self.counters["bad_requests"] += 1
                return error_response(request.id, error.status, str(error))
            except ReproError as error:
                self.counters["failed"] += 1
                self._breaker_call("record_failure")
                return error_response(
                    request.id, 500, f"allocation failed: {error}",
                    reason="allocation", error_type=type(error).__name__)
            except Exception as error:  # noqa: BLE001 — server must answer
                self.counters["failed"] += 1
                self._breaker_call("record_failure")
                return error_response(
                    request.id, 500, f"internal error: {error!r}",
                    reason="internal", error_type=type(error).__name__)
            finally:
                self.hists["dispatch"].record(
                    max(time.monotonic() - dispatched, 0.0))
        if payload.get("degraded"):
            self.counters["degraded"] += 1
            # The answer is correct (spill-everything) but the backend
            # failed to produce the real one: that is a breaker failure.
            self._breaker_call("record_failure")
            self.events.emit(
                "degrade", trace_id=trace_id, id=request.id,
                failures=len(payload.get("failures", ())))
        else:
            self._breaker_call("record_success")
        self.counters["served"] += 1
        return response(request.id, **payload)

    # -- the blocking allocation (executor thread) ---------------------

    def _allocate_blocking(self, request, budget: float,
                           fault_spec, trace_id: str = None) -> dict:
        started = time.monotonic()
        tracer = None
        span = contextlib.nullcontext()
        if request.trace:
            tracer = Tracer()
            tracer.trace_id = trace_id
            span = tracer.span("service:request", cat="service",
                               trace_id=trace_id, method=request.method,
                               function=request.name)
        with span:
            payload = self._allocate_traced(request, budget, fault_spec,
                                            trace_id, tracer, started)
        # The trace is exported only after the request span closes, so
        # the spooled JSON always has balanced begin/end events.
        if tracer is not None:
            self._finish_trace(tracer, trace_id, payload)
        return payload

    def _allocate_traced(self, request, budget, fault_spec, trace_id,
                         tracer, started) -> dict:
        module = self._build_module(request)
        target = rt_pc()
        if request.int_regs != 16:
            target = target.with_int_regs(request.int_regs)
        if request.float_regs != 8:
            target = target.with_float_regs(request.float_regs)
        method = request.method
        kwargs = {
            "jobs": self.config.jobs,
            "policy": self.config.policy,
            "retries": self.config.retries,
        }
        if fault_spec is not None and "strategy" in fault_spec:
            method = fault_spec["strategy"]
            kwargs.update(fault_spec.get("extra", {}))
        if fault_spec is not None and \
                fault_spec.get("behavior") == "cache_corrupt":
            self._corrupt_disk_cache(fault_spec)
        if self.config.bundle_dir is not None:
            kwargs["bundle_dir"] = (
                pathlib.Path(self.config.bundle_dir)
                / f"request-{next(self._request_seq)}"
            )
        n_functions = max(1, len(module.functions))
        remaining = budget - (time.monotonic() - started)
        if remaining <= 0:
            raise RequestError("deadline exhausted during parse",
                               status=504)
        # An injected hang must not stall the request for the whole
        # budget: keep the pool's per-function watchdog tighter than the
        # request deadline so restarts happen *inside* the budget.
        kwargs.setdefault("timeout", max(0.05, remaining / n_functions))
        # The default path runs with no per-request tracer: a live
        # tracer disables the response cache (replays would drop worker
        # spans), and the service wants the cache.  A request opting in
        # with `"trace": true` pays exactly that — one cache bypass —
        # for a merged service → worker → repair trace.
        allocation = allocate_module(
            module, target, method, validate=request.validate,
            tracer=tracer, **kwargs,
        )
        degraded = [
            failure.as_dict() for failure in allocation.failures
        ]
        payload = {
            "name": module.name,
            "method": allocation.method,
            "assignment": flat_assignment(allocation),
            "stats": {
                name: {
                    "passes": result.stats.pass_count,
                    "registers_spilled": result.stats.registers_spilled,
                    "spill_cost": result.stats.spill_cost,
                }
                for name, result in sorted(allocation.results.items())
            },
            "elapsed": round(time.monotonic() - started, 6),
        }
        if degraded:
            payload["degraded"] = True
            payload["failures"] = degraded
        if allocation.parallel_fallback:
            payload["parallel_fallback"] = allocation.parallel_fallback
        return payload

    def _finish_trace(self, tracer, trace_id, payload) -> None:
        """Fold a traced request's tracer back into the service: absorb
        allocator counters for ``/metrics``, summarize repair rounds as
        an event, attach the Chrome trace to the reply, spool to
        ``trace_dir`` when configured."""
        for name, value in tracer.counters.items():
            self.allocator_counters[name] = (
                self.allocator_counters.get(name, 0) + value
            )
        rounds = sum(
            1 for event in tracer.events
            if event.get("ph") == "B" and event.get("name") == "repair-round"
        )
        repair = {
            name.split(".", 1)[1]: value
            for name, value in sorted(tracer.counters.items())
            if name.startswith("repair.")
        }
        if rounds or repair:
            self.events.emit("repair-rounds", trace_id=trace_id,
                             rounds=rounds, **repair)
        payload["trace"] = {
            "traceEvents": chrome_trace_events(tracer),
            "displayTimeUnit": "ms",
        }
        if self.config.trace_dir is not None:
            with contextlib.suppress(OSError):
                write_chrome_trace(
                    tracer,
                    pathlib.Path(self.config.trace_dir)
                    / f"trace-{trace_id}.json",
                )

    def _build_module(self, request):
        try:
            if request.source is not None:
                return compile_source(request.source, request.name,
                                      optimize=self.config.optimize)
            return decode_module(request.wire)
        except ReproError as error:
            raise RequestError(
                f"cannot build module: {error}") from error

    # -- fault injection (chaos harness) -------------------------------

    def _resolve_fault(self, request):
        """A chaos request named a registered fault: resolve it into a
        spec the execution path interprets.  Unknown names are 400s."""
        from repro.robustness.faults import FAULTS

        fault = FAULTS.get(request.fault)
        if fault is None or fault.kind not in ("service", "worker"):
            raise RequestError(
                f"unknown injectable fault {request.fault!r}")
        if fault.kind == "worker":
            strategy, extra = fault.inject(self._rng)
            return {"behavior": request.fault, "strategy": strategy,
                    "extra": dict(extra)}
        spec = dict(fault.inject(self._rng))
        spec.update(request.fault_args)
        spec["behavior"] = request.fault
        return spec

    def _corrupt_disk_cache(self, spec) -> None:
        """``cache_corrupt``: flip one byte in every live disk-cache
        entry and drop the memory tier, so this request replays the
        warm-start path against damaged files.  The verified read must
        quarantine them all and recompute — never serve the damage."""
        disk = RESPONSE_CACHE.disk
        if disk is None:
            return
        RESPONSE_CACHE.drop_memory()
        offset = int(spec.get("offset", 7))
        for path in disk.entry_paths():
            try:
                raw = bytearray(path.read_bytes())
            except OSError:
                continue
            if not raw:
                continue
            position = min(offset, len(raw) - 1)
            raw[position] ^= 0xFF
            with contextlib.suppress(OSError):
                path.write_bytes(bytes(raw))

    # -- observability -------------------------------------------------

    def service_section(self) -> dict:
        """The ``service`` section of the metrics document."""
        section = dict(self.counters)
        section["breaker"] = self.breaker.stats()
        section["accepting"] = self.accepting
        section["in_flight"] = self._admitted
        section["concurrency"] = self.config.concurrency
        section["queue_limit"] = self.config.queue_limit
        if self._started_at is not None:
            section["uptime"] = round(
                time.monotonic() - self._started_at, 3)
        cache = RESPONSE_CACHE.stats()
        section["response_cache"] = cache
        #: server-side latency summaries (p50/p95/p99, count, sum) per
        #: operation — the live-telemetry block.
        section["latency"] = {
            op: self.hists[op].summary() for op in sorted(self.hists)
        }
        if self.allocator_counters:
            section["allocator"] = dict(sorted(
                self.allocator_counters.items()))
        section["events_seq"] = self.events.last_seq
        if self.config.journal_path is not None:
            section["journal"] = dict(
                self._recovery,
                records=len(self._journal) if self._journal else 0,
                recovery_done=self._recovery_done,
            )
        return section

    def ready(self) -> bool:
        return (
            self.accepting
            and self._recovery_done
            and self.breaker.state != CircuitBreaker.OPEN
            and self._admitted
            < self.config.concurrency + self.config.queue_limit
        )

    # -- HTTP probes ---------------------------------------------------

    async def _handle_http(self, first_line: bytes, reader, writer) -> None:
        try:
            target = first_line.split()[1].decode("ascii", "replace")
        except IndexError:
            target = "/"
        path, _, query = target.partition("?")
        params = {}
        for part in query.split("&"):
            key, _, value = part.partition("=")
            if key:
                params[key] = value
        # Drain the (tiny) header block so the client's write succeeds.
        with contextlib.suppress(Exception):
            while True:
                header = await asyncio.wait_for(reader.readline(), 1.0)
                if header in (b"", b"\r\n", b"\n"):
                    break
        if path == "/healthz":
            writer.write(http_response(200, "ok\n"))
        elif path == "/readyz":
            if self.ready():
                writer.write(http_response(200, "ready\n"))
            else:
                writer.write(http_response(
                    503, {"ready": False,
                          "breaker": self.breaker.state,
                          "accepting": self.accepting,
                          "recovering": not self._recovery_done,
                          "in_flight": self._admitted}))
        elif path == "/metrics":
            if params.get("format") == "prom":
                writer.write(http_response(
                    200, self._prometheus_page(),
                    content_type=PROMETHEUS_CONTENT_TYPE))
            else:
                writer.write(http_response(
                    200, {"schema": "repro-metrics/1",
                          "service": self.service_section()}))
        elif path == "/events":
            writer.write(http_response(
                200, self._events_page(params),
                content_type="application/x-ndjson"))
        else:
            writer.write(http_response(404, f"no route {target}\n"))
        with contextlib.suppress(Exception):
            await writer.drain()

    def _prometheus_page(self) -> str:
        """``/metrics?format=prom``: the latency histograms as summary
        series plus every numeric service counter as a counter series."""
        counters = {
            "service": {
                key: value
                for key, value in self.service_section().items()
                if key != "latency"
            }
        }
        return prometheus_text(self.hists, counters, prefix="repro")

    def _events_page(self, params: dict) -> str:
        """``GET /events[?since=SEQ&limit=N&kind=K]`` as NDJSON."""

        def _int(name):
            try:
                return int(params[name])
            except (KeyError, ValueError):
                return None

        events = self.events.tail(
            limit=_int("limit"), since=_int("since"),
            kind=params.get("kind") or None)
        return self.events.to_ndjson(events)


def run_server(config: ServiceConfig, announce=None) -> int:
    """Blocking entry point for ``repro serve``: run until SIGTERM or
    SIGINT, drain, tear down pools, exit 0."""

    async def main() -> int:
        service = AllocationService(config)
        await service.start()
        if announce is not None:
            announce(service)
        stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        import signal as signal_mod

        for signum in (signal_mod.SIGTERM, signal_mod.SIGINT):
            try:
                loop.add_signal_handler(signum, stop_event.set)
            except (NotImplementedError, RuntimeError):
                pass
        try:
            await service.serve_until(stop_event)
        finally:
            if service.accepting:
                await service.stop()
        return 0

    # Belt and braces: the asyncio handlers drain gracefully, and the
    # process-level teardown guarantees no warm worker survives even if
    # the loop never gets to run them.
    install_signal_teardown()
    try:
        return asyncio.run(main())
    except KeyboardInterrupt:
        shutdown_pools()
        return 0
