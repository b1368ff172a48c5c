"""The ``serve`` workload: a ``repro serve`` subprocess on loopback.

One client process (the benchmark) drives the server in a closed loop
over two connections.  Requests leave in the fixed global order of the
seeded sequence: a connection takes the next request only when its
previous reply is back.  The server runs with default flags; ``--port 0``
only asks for a free port.
"""

from __future__ import annotations

import json
import queue
import socket
import subprocess
import sys
import threading
import time

from perfbench.common import (
    ROOT,
    alive,
    child_env,
    children_of,
    instruction_budget,
    kill_all,
    peak_rss_mb,
    same_outputs,
    wait_gone,
)

CONNECTIONS = 2
#: Seconds to wait for the server to print its port and pass /readyz.
START_TIMEOUT = 60.0
REPLY_TIMEOUT = 120.0


class Server:
    """One ``repro serve`` process, from spawn to verified teardown."""

    def __init__(self, log_path, stats_path=None):
        if stats_path is None:
            command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        else:
            # The traced run: the same CLI entry point, started from a
            # benchmark file that first wraps the server's layer calls.
            command = [sys.executable, "-m", "perfbench.serve_server",
                       str(stats_path), "--port", "0"]
        self.spawned = time.monotonic()
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=self._log, stdin=subprocess.DEVNULL)
        self.port = None
        self.workers: list = []

    def wait_ready(self) -> None:
        lines: queue.Queue = queue.Queue()

        def pump():
            for raw in self.proc.stdout:
                lines.put(raw.decode("utf-8", "replace"))
            lines.put(None)

        threading.Thread(target=pump, daemon=True).start()
        deadline = time.monotonic() + START_TIMEOUT
        while self.port is None:
            try:
                line = lines.get(timeout=max(0.0, deadline
                                             - time.monotonic()))
            except queue.Empty:
                raise RuntimeError("server did not announce its port")
            if line is None:
                raise RuntimeError("server exited before listening")
            if "listening on" in line:
                self.port = int(line.split("listening on", 1)[1]
                                .split()[0].rsplit(":", 1)[1])
        while http_get(self.port, "/readyz")[0] != 200:
            if time.monotonic() > deadline:
                raise RuntimeError("server never became ready")
            time.sleep(0.01)

    def metrics(self) -> dict:
        status, body = http_get(self.port, "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return json.loads(body)["service"]

    def peak_rss_mb(self) -> float:
        """Server plus pool workers, read while they are all alive."""
        self.workers = children_of(self.proc.pid)
        return peak_rss_mb(self.proc.pid) + sum(
            peak_rss_mb(pid) for pid in self.workers if alive(pid))

    def shutdown(self) -> list:
        """Send the ``shutdown`` op, wait for exit; returns leaked pids."""
        if not self.workers:
            self.workers = children_of(self.proc.pid)
        try:
            with socket.create_connection(("127.0.0.1", self.port),
                                          timeout=30) as sock:
                sock.sendall(b'{"op":"shutdown"}\n')
                sock.makefile("rb").readline()
            self.proc.wait(timeout=60)
        finally:
            self.close()
        leaked = wait_gone(self.workers)
        kill_all(leaked)
        return leaked

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def http_get(port: int, path: str):
    try:
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10) as sock:
            sock.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
    except OSError:
        return 0, ""
    raw = b"".join(chunks).decode("utf-8", "replace")
    head, _, body = raw.partition("\r\n\r\n")
    try:
        status = int(head.split()[1])
    except (IndexError, ValueError):
        status = 0
    return status, body


def request(source: str, request_id, trace: bool = False) -> bytes:
    message = {"op": "allocate", "id": request_id, "source": source,
               "method": "briggs"}
    if trace:
        message["trace"] = True
    return (json.dumps(message) + "\n").encode()


def send_one(port: int, payload: bytes) -> dict:
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=REPLY_TIMEOUT) as sock:
        sock.sendall(payload)
        return json.loads(sock.makefile("rb").readline())


def repeat_of(sequence: list) -> list:
    """For each request: the index of its program's first request when it
    is a repeat, else ``None``."""
    first: dict = {}
    out = []
    for index, program in enumerate(sequence):
        out.append(first.get(program))
        first.setdefault(program, index)
    return out


def drive(port: int, payloads: list, after: list) -> dict:
    """Closed loop over :data:`CONNECTIONS` connections, in the global
    order of ``payloads``.  Request ``i`` leaves only once the reply to
    request ``after[i]`` is back (when that is not ``None``): a repeat
    waits for its program's first reply, so it meets a warm response
    cache whatever the timing.  Returns per-request latencies (seconds,
    by index), replies, and the timed window (first send to last
    reply)."""
    latencies = [None] * len(payloads)
    replies = [None] * len(payloads)
    answered = [threading.Event() for _ in payloads]
    next_index = [0]
    lock = threading.Lock()
    errors: list = []

    def client(sock):
        try:
            reader = sock.makefile("rb")
            while True:
                with lock:
                    index = next_index[0]
                    if index >= len(payloads):
                        return
                    next_index[0] += 1
                # The awaited request left earlier; if its reply is not
                # back yet, it is in flight on the other connection.
                if after[index] is not None:
                    answered[after[index]].wait(REPLY_TIMEOUT)
                started = time.perf_counter()
                sock.sendall(payloads[index])
                line = reader.readline()
                latencies[index] = time.perf_counter() - started
                replies[index] = json.loads(line) if line else None
                answered[index].set()
        except (OSError, ValueError) as error:
            errors.append(repr(error))
            # Nothing this connection still owes may hold the other one.
            for event in answered:
                event.set()

    socks = [socket.create_connection(("127.0.0.1", port),
                                      timeout=REPLY_TIMEOUT)
             for _ in range(CONNECTIONS)]
    try:
        threads = [threading.Thread(target=client, args=(sock,))
                   for sock in socks]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window = time.perf_counter() - started
    finally:
        for sock in socks:
            sock.close()
    return {"latencies": latencies, "replies": replies, "window": window,
            "errors": errors}


# ----------------------------------------------------------------------
# References: in-process serial allocation, checked by simulation
# ----------------------------------------------------------------------


def reference(source: str, probed: bool = False) -> dict:
    """Serial ``allocate_module`` of one request source at the server's
    default 16/8 target, simulated against its unallocated program.  With
    ``probed``, also the allocator-layer counts of that allocation (the
    same deterministic work a pool worker does for the request)."""
    from repro.frontend import compile_source
    from repro.machine import rt_pc
    from repro.machine.encoding import object_size
    from repro.machine.simulator import run_module
    from repro.regalloc import driver
    from repro.errors import ReproError
    from repro.service.protocol import flat_assignment

    from perfbench.layers import ALLOCATOR_HOOKS, Probe, resolve

    target = rt_pc()
    module = compile_source(source, "request")
    baseline = run_module(module)
    probe = Probe()
    if probed:
        for spec, attr, layer in ALLOCATOR_HOOKS:
            probe.wrap(resolve(spec), attr, layer)
    try:
        allocation = driver.allocate_module(module, target, "briggs")
    finally:
        probe.remove()
    try:
        run = run_module(module, target=target,
                         assignment=allocation.assignment,
                         max_instructions=instruction_budget(
                             baseline.instructions))
        simulated_ok = same_outputs(run.outputs, baseline.outputs)
        cycles = run.cycles
    except ReproError:
        simulated_ok, cycles = False, 0
    stats = {
        name: {
            "passes": result.stats.pass_count,
            "registers_spilled": result.stats.registers_spilled,
            "spill_cost": result.stats.spill_cost,
        }
        for name, result in sorted(allocation.results.items())
    }
    answer = json.loads(json.dumps({"assignment": flat_assignment(allocation),
                                    "stats": stats}))
    counts = dict(probe.counts)
    counts["driver.passes"] = sum(s["passes"] for s in stats.values())
    return {
        "answer": answer,
        "simulated_ok": simulated_ok,
        "spilled_ranges": sum(s["registers_spilled"]
                              for s in stats.values()),
        "code_bytes": sum(object_size(r.function, target, r.assignment)
                          for r in allocation.results.values()),
        "sim_cycles": cycles,
        "counts": counts,
    }


def references(sources: list, probed: bool) -> list:
    """Reference answers for every distinct source, computed on two
    forked processes before any server starts.  Not spawned: a spawn
    context starts a resource-tracker process that outlives the pool
    and only ends after this process has exited."""
    import concurrent.futures
    import multiprocessing

    context = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=CONNECTIONS, mp_context=context) as executor:
        return list(executor.map(reference, sources,
                                 [probed] * len(sources), chunksize=4))


def check_reply(reply, ref: dict) -> str:
    """Empty when ``reply`` is a correct 200; else why it is not."""
    if reply is None:
        return "no reply"
    if reply.get("status") != 200:
        return f"status {reply.get('status')}: {reply.get('error')}"
    if reply.get("degraded"):
        return "degraded"
    if not ref["simulated_ok"]:
        return "reference simulation differs from the unallocated program"
    if reply.get("assignment") != ref["answer"]["assignment"] or \
            reply.get("stats") != ref["answer"]["stats"]:
        return "answer differs from serial allocate_module"
    return ""


# ----------------------------------------------------------------------
# Worker lanes of traced replies
# ----------------------------------------------------------------------

#: Span name in a pool worker's lane -> layer.
LANE_LAYERS = {
    "renumber": "webs",
    "coalesce": "coalesce",
    "liveness": "liveness",
    "interference": "interference",
    "spill_costs": "spill_costs",
    "simplify": "simplify",
    "select": "select",
    "spill": "spill",
}


def lane_self_times(trace: dict, server_pid: int) -> dict:
    """Self seconds per layer over the worker lanes of one traced reply;
    spans the map does not name (function, pass, build, color) are the
    driver's."""
    totals: dict = {}
    stacks: dict = {}
    for event in trace.get("traceEvents", ()):
        if event.get("pid") == server_pid or event.get("ph") not in ("B", "E"):
            continue
        stack = stacks.setdefault((event["pid"], event.get("tid")), [])
        if event["ph"] == "B":
            stack.append([event["name"], event["ts"], 0.0])
            continue
        if not stack:
            continue
        name, begin, children = stack.pop()
        elapsed = (event["ts"] - begin) / 1e6
        if stack:
            stack[-1][2] += elapsed
        layer = LANE_LAYERS.get(name, "driver")
        totals[layer] = totals.get(layer, 0.0) + elapsed - children
    return totals
