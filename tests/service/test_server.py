"""The allocation daemon end to end, over real localhost sockets.

Each test boots an :class:`AllocationService` on an ephemeral port
inside its own event loop, drives it with NDJSON (or raw HTTP) clients,
and shuts it down — asserting the five hardening layers do what
``docs/SERVICE.md`` promises: correct answers, explicit 429/503/504
refusals, breaker trips that restart the pool, degraded-but-correct
responses under injected worker faults, and clean teardown.
"""

import asyncio
import json

import pytest

from repro.frontend import compile_source
from repro.ir.wire import encode_module
from repro.machine.target import rt_pc
from repro.observability.events import parse_ndjson
from repro.observability.hist import validate_prometheus_text
from repro.regalloc import allocate_module
from repro.regalloc.pool import RESPONSE_CACHE, active_pools, shutdown_pools
from repro.service import protocol
from repro.service.breaker import CircuitBreaker
from repro.service.chaos import request_over_socket
from repro.service.server import AllocationService, ServiceConfig

slow = pytest.mark.slow

SOURCE = (
    "program served\n"
    "integer a, b, c\n"
    "a = 3\n"
    "b = 4\n"
    "c = a * b + a\n"
    "print c\n"
    "end\n"
)


@pytest.fixture(autouse=True)
def fresh_pool_state():
    shutdown_pools()
    RESPONSE_CACHE.clear()
    yield
    shutdown_pools()
    RESPONSE_CACHE.clear()


def drive(coro_factory, config=None):
    """Run one async test body against a started service."""

    async def main():
        service = AllocationService(config or ServiceConfig(
            concurrency=2, queue_limit=2, jobs=2,
            default_deadline=20.0, breaker_cooldown=0.2,
            allow_faults=True,
        ))
        await service.start()
        try:
            return await coro_factory(service)
        finally:
            await service.stop()

    return asyncio.run(main())


def ask(service, message, timeout=30.0):
    return request_over_socket("127.0.0.1", service.port, message,
                               timeout=timeout)


def reference_assignment(method="briggs"):
    module = compile_source(SOURCE, "served")
    allocation = allocate_module(module, rt_pc(), method, jobs=1,
                                 cache=False)
    return protocol.flat_assignment(allocation)


class TestRoundTrip:
    def test_source_allocation_matches_serial_cli(self):
        async def body(service):
            return await ask(service, {
                "op": "allocate", "id": 1, "source": SOURCE,
                "name": "served", "method": "briggs",
            })

        reply = drive(body)
        assert reply["status"] == 200
        assert reply["id"] == 1
        assert not reply.get("degraded")
        assert reply["assignment"] == reference_assignment()
        assert reply["stats"]["served"]["registers_spilled"] == 0

    def test_wire_ir_requests_are_first_class(self):
        module = compile_source(SOURCE, "served")
        wire = encode_module(module)

        async def body(service):
            return await ask(service, {
                "op": "allocate", "id": "w", "wire": wire,
                "method": "chaitin",
            })

        reply = drive(body)
        assert reply["status"] == 200
        assert reply["assignment"] == reference_assignment("chaitin")

    def test_ping_answers_with_the_protocol_version(self):
        async def body(service):
            return await ask(service, {"op": "ping", "id": 0})

        reply = drive(body)
        assert reply == {"id": 0, "status": 200, "ok": True,
                         "protocol": protocol.PROTOCOL_VERSION}

    def test_stats_op_reports_the_service_section(self):
        async def body(service):
            await ask(service, {"op": "allocate", "id": 1,
                                "source": SOURCE, "name": "served"})
            return await ask(service, {"op": "stats", "id": 2})

        reply = drive(body)
        section = reply["service"]
        assert section["requests"] == 1
        assert section["served"] == 1
        assert section["shed"] == 0
        assert section["breaker"]["state"] == CircuitBreaker.CLOSED
        assert "response_cache" in section

    def test_malformed_lines_and_fields_are_400s(self):
        async def body(service):
            bad_json = await ask(service, {"op": "allocate", "id": 3})
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port)
            writer.write(b"this is not json\n")
            await writer.drain()
            raw = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            return bad_json, raw

        missing_body, not_json = drive(body)
        assert missing_body["status"] == 400
        assert "exactly one of" in missing_body["error"]
        assert not_json["status"] == 400
        assert not_json["id"] is None

    def test_requests_pipeline_in_order_on_one_connection(self):
        async def body(service):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port)
            for index in range(3):
                writer.write(protocol.encode_message({
                    "op": "allocate", "id": index, "source": SOURCE,
                    "name": "served",
                }))
            await writer.drain()
            replies = [json.loads(await reader.readline())
                       for _ in range(3)]
            writer.close()
            await writer.wait_closed()
            return replies

        replies = drive(body)
        assert [reply["id"] for reply in replies] == [0, 1, 2]
        assert all(reply["status"] == 200 for reply in replies)


class TestAdmissionControl:
    def test_saturated_queue_sheds_with_429(self):
        config = ServiceConfig(concurrency=1, queue_limit=0, jobs=2,
                               default_deadline=20.0, allow_faults=True)

        async def body(service):
            slow_task = asyncio.ensure_future(ask(service, {
                "op": "allocate", "id": "slow", "source": SOURCE,
                "name": "served", "fault": "slow_request",
                "fault_args": {"delay": 1.0},
            }))
            # Let the slow request occupy the single admission slot.
            await asyncio.sleep(0.2)
            shed = await ask(service, {
                "op": "allocate", "id": "shed", "source": SOURCE,
                "name": "served",
            })
            return shed, await slow_task, service.counters["shed"]

        shed, slow_reply, shed_count = drive(body, config)
        assert shed["status"] == 429
        assert shed["reason"] == "shed"
        assert shed_count == 1
        assert slow_reply["status"] == 200  # the occupant still finishes

    def test_shed_requests_never_trip_the_breaker(self):
        config = ServiceConfig(concurrency=1, queue_limit=0, jobs=2,
                               breaker_threshold=1,
                               default_deadline=20.0, allow_faults=True)

        async def body(service):
            slow_task = asyncio.ensure_future(ask(service, {
                "op": "allocate", "id": "slow", "source": SOURCE,
                "name": "served", "fault": "slow_request",
                "fault_args": {"delay": 0.8},
            }))
            await asyncio.sleep(0.2)
            await ask(service, {"op": "allocate", "id": "shed",
                                "source": SOURCE, "name": "served"})
            state = service.breaker.state
            await slow_task
            return state

        assert drive(body, config) == CircuitBreaker.CLOSED


class TestDeadlines:
    def test_injected_stall_past_the_deadline_is_a_504(self):
        async def body(service):
            return await ask(service, {
                "op": "allocate", "id": "late", "source": SOURCE,
                "name": "served", "deadline": 0.3,
                "fault": "slow_request", "fault_args": {"delay": 0.8},
            })

        reply = drive(body)
        assert reply["status"] == 504
        assert reply["reason"] == "deadline"

    def test_deadline_rejections_count_and_feed_the_breaker(self):
        async def body(service):
            for index in range(2):
                await ask(service, {
                    "op": "allocate", "id": index, "source": SOURCE,
                    "name": "served", "deadline": 0.2,
                    "fault": "slow_request", "fault_args": {"delay": 0.5},
                })
            return (service.counters["deadline_exceeded"],
                    service.breaker.consecutive_failures)

        exceeded, failures = drive(body)
        assert exceeded == 2
        assert failures == 2


class TestDeadlinesEnforceOnSingleFunctions:
    @slow
    def test_hang_in_a_single_function_module_is_reclaimed(self):
        # The regression this guards: a single-function module used to
        # take the serial in-process path, where no watchdog exists —
        # worker_hang wedged the executor thread for the allocator's
        # full 60s sleep and the thread (one of `concurrency`) was lost.
        # With timeouts routed through the pool, the watchdog reclaims
        # the wedged worker and the policy degrades the answer instead.
        async def body(service):
            reply = await asyncio.wait_for(ask(service, {
                "op": "allocate", "id": "wedge", "source": SOURCE,
                "name": "served", "deadline": 8.0,
                "fault": "worker_hang",
            }), timeout=15.0)
            return reply

        reply = drive(body)
        assert reply["status"] == 200
        assert reply["degraded"] is True
        assert reply["assignment"] == reference_assignment("spill-all")


class TestFaultGating:
    def test_fault_requests_are_403_unless_opted_in(self):
        config = ServiceConfig(concurrency=1, queue_limit=1, jobs=2,
                               default_deadline=20.0)  # allow_faults off

        async def body(service):
            refused = await ask(service, {
                "op": "allocate", "id": "f", "source": SOURCE,
                "name": "served", "fault": "slow_request",
                "fault_args": {"delay": 0.2},
            })
            clean = await ask(service, {
                "op": "allocate", "id": "ok", "source": SOURCE,
                "name": "served",
            })
            return refused, clean, dict(service.counters)

        refused, clean, counters = drive(body, config)
        assert refused["status"] == 403
        assert refused["reason"] == "faults_disabled"
        assert counters["bad_requests"] == 1
        assert clean["status"] == 200  # plain requests unaffected

    def test_null_deadline_means_default_not_a_crash(self):
        # An explicit JSON `"deadline": null` must parse as the default
        # deadline, not surface as a TypeError that drops the connection.
        async def body(service):
            return await ask(service, {
                "op": "allocate", "id": "n", "source": SOURCE,
                "name": "served", "deadline": None,
            })

        reply = drive(body)
        assert reply["status"] == 200
        assert reply["assignment"] == reference_assignment()


class TestBreakerAndDegradation:
    @slow
    def test_crash_storm_degrades_then_opens_then_recovers(self):
        config = ServiceConfig(concurrency=1, queue_limit=2, jobs=2,
                               breaker_threshold=2, breaker_cooldown=0.3,
                               default_deadline=20.0, allow_faults=True)

        async def body(service):
            degraded = []
            for index in range(2):
                reply = await ask(service, {
                    "op": "allocate", "id": index, "source": SOURCE,
                    "name": "served", "fault": "worker_crash",
                })
                degraded.append(reply)
            rejected = await ask(service, {
                "op": "allocate", "id": "rejected", "source": SOURCE,
                "name": "served",
            })
            await asyncio.sleep(config.breaker_cooldown + 0.05)
            trial = await ask(service, {
                "op": "allocate", "id": "trial", "source": SOURCE,
                "name": "served",
            })
            return degraded, rejected, trial, service.service_section()

        degraded, rejected, trial, section = drive(body, config)
        naive = reference_assignment("spill-all")
        for reply in degraded:
            # Degraded responses still answer 200 with the spill-all
            # fallback — correct, just not the requested heuristic.
            assert reply["status"] == 200
            assert reply["degraded"] is True
            assert reply["failures"]
            assert reply["assignment"] == naive
        assert rejected["status"] == 503
        assert rejected["reason"] == "breaker_open"
        # The cooldown's half-open trial restarted the pools and closed
        # the breaker with a clean, undegraded answer.
        assert trial["status"] == 200
        assert not trial.get("degraded")
        assert trial["assignment"] == reference_assignment()
        assert section["degraded"] == 2
        assert section["breaker_rejected"] == 1
        assert section["breaker"]["state"] == CircuitBreaker.CLOSED
        assert section["breaker"]["trips"] == 1


class TestHttpProbes:
    async def _http_get(self, service, target):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.port)
        writer.write(f"GET {target} HTTP/1.0\r\n\r\n".encode())
        await writer.drain()
        raw = await reader.read()
        writer.close()
        await writer.wait_closed()
        head, _, body = raw.partition(b"\r\n\r\n")
        status = int(head.split()[1])
        return status, body

    def test_healthz_and_readyz_answer_200_when_serving(self):
        async def body(service):
            health = await self._http_get(service, "/healthz")
            ready = await self._http_get(service, "/readyz")
            return health, ready

        (h_status, h_body), (r_status, _) = drive(body)
        assert (h_status, h_body) == (200, b"ok\n")
        assert r_status == 200

    def test_readyz_is_503_while_the_breaker_is_open(self):
        config = ServiceConfig(concurrency=1, queue_limit=1, jobs=2,
                               breaker_threshold=1, breaker_cooldown=60.0,
                               default_deadline=20.0)

        async def body(service):
            service.breaker.record_failure()  # threshold 1: opens
            return await self._http_get(service, "/readyz")

        status, body_bytes = drive(body, config)
        assert status == 503
        assert json.loads(body_bytes)["breaker"] == CircuitBreaker.OPEN

    def test_metrics_endpoint_serves_the_service_section(self):
        async def body(service):
            await ask(service, {"op": "allocate", "id": 1,
                                "source": SOURCE, "name": "served"})
            return await self._http_get(service, "/metrics")

        status, body_bytes = drive(body)
        assert status == 200
        document = json.loads(body_bytes)
        assert document["schema"] == "repro-metrics/1"
        assert document["service"]["served"] == 1

    def test_unknown_route_is_a_404(self):
        async def body(service):
            return await self._http_get(service, "/wrong")

        status, _ = drive(body)
        assert status == 404


async def http_get(service, target):
    """Raw HTTP/1.0 GET; returns (status, content_type, body_bytes)."""
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", service.port)
    writer.write(f"GET {target} HTTP/1.0\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("ascii", "replace").split("\r\n")
    status = int(lines[0].split()[1])
    content_type = ""
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.lower() == "content-type":
            content_type = value.strip()
    return status, content_type, body


#: Two functions, so allocation takes the pool path and the merged
#: trace gets real worker lanes.
TWO_FUNCTIONS = (
    "subroutine helper(n)\n"
    "end\n"
    "program served2\n"
    "integer a, b\n"
    "a = 1\n"
    "b = a + 2\n"
    "call helper(b)\n"
    "print b\n"
    "end\n"
)


class TestTelemetry:
    """PR-10's always-on production telemetry: latency histograms on
    every reply path, Prometheus exposition, the structured event ring,
    and opt-in per-request tracing."""

    def test_every_reply_carries_a_trace_id(self):
        async def body(service):
            ok = await ask(service, {"op": "allocate", "id": 1,
                                     "source": SOURCE, "name": "served"})
            bad = await ask(service, {"op": "allocate", "id": 2})
            return ok, bad

        ok, bad = drive(body)
        assert ok["status"] == 200 and ok["trace_id"]
        assert bad["status"] == 400 and bad["trace_id"]
        assert ok["trace_id"] != bad["trace_id"]

    def test_latency_histograms_record_every_reply_path(self):
        async def body(service):
            await ask(service, {"op": "allocate", "id": 1,
                                "source": SOURCE, "name": "served"})
            await ask(service, {"op": "allocate", "id": 2})  # a 400
            return service.service_section()

        section = drive(body)
        latency = section["latency"]
        # e2e sees both replies; queue_wait/dispatch only the admitted one.
        assert latency["e2e"]["count"] == 2
        assert latency["queue_wait"]["count"] == 1
        assert latency["dispatch"]["count"] == 1
        assert latency["e2e"]["p99"] > 0.0
        assert latency["e2e"]["p50"] <= latency["e2e"]["p99"]

    def test_prometheus_exposition_validates(self):
        async def body(service):
            await ask(service, {"op": "allocate", "id": 1,
                                "source": SOURCE, "name": "served"})
            return await http_get(service, "/metrics?format=prom")

        status, content_type, body_bytes = drive(body)
        assert status == 200
        assert content_type.startswith("text/plain")
        text = body_bytes.decode()
        stats = validate_prometheus_text(text)
        assert stats["samples"] > 0
        assert 'repro_latency_seconds{op="e2e",quantile="0.99"}' in text
        assert "repro_service_served 1" in text

    def test_events_ring_admission_shed_and_cursor(self):
        config = ServiceConfig(concurrency=1, queue_limit=0, jobs=2,
                               default_deadline=20.0, allow_faults=True)

        async def body(service):
            slow_task = asyncio.ensure_future(ask(service, {
                "op": "allocate", "id": "slow", "source": SOURCE,
                "name": "served", "fault": "slow_request",
                "fault_args": {"delay": 0.8},
            }))
            await asyncio.sleep(0.2)
            await ask(service, {"op": "allocate", "id": "shed",
                                "source": SOURCE, "name": "served"})
            everything = await http_get(service, "/events")
            sheds_only = await http_get(service, "/events?kind=shed")
            await slow_task
            last = service.events.last_seq
            after = await http_get(service, f"/events?since={last}")
            return everything, sheds_only, after

        everything, sheds_only, after = drive(body, config)
        status, content_type, body_bytes = everything
        assert status == 200
        assert content_type == "application/x-ndjson"
        records = parse_ndjson(body_bytes.decode())
        kinds = [record["kind"] for record in records]
        assert "admission" in kinds
        assert "shed" in kinds
        seqs = [record["seq"] for record in records]
        assert seqs == sorted(seqs)
        shed_records = parse_ndjson(sheds_only[2].decode())
        assert shed_records
        assert all(r["kind"] == "shed" for r in shed_records)
        assert parse_ndjson(after[2].decode()) == []

    def test_breaker_transition_and_degrade_events(self):
        config = ServiceConfig(concurrency=1, queue_limit=2, jobs=2,
                               breaker_threshold=2, breaker_cooldown=60.0,
                               default_deadline=20.0, allow_faults=True)

        async def body(service):
            for index in range(2):
                await ask(service, {
                    "op": "allocate", "id": index, "source": SOURCE,
                    "name": "served", "fault": "worker_crash",
                })
            return service.events.tail()

        records = drive(body, config)
        kinds = [record["kind"] for record in records]
        assert "degrade" in kinds
        transitions = [record for record in records
                       if record["kind"] == "breaker"]
        assert any(record["to"] == CircuitBreaker.OPEN
                   for record in transitions)

    def test_trace_opt_in_returns_valid_merged_trace(self, tmp_path):
        from repro.observability.export import validate_chrome_trace

        config = ServiceConfig(concurrency=2, queue_limit=2, jobs=2,
                               default_deadline=20.0,
                               trace_dir=str(tmp_path))

        async def body(service):
            traced = await ask(service, {
                "op": "allocate", "id": "t", "source": TWO_FUNCTIONS,
                "name": "served2", "trace": True,
            })
            plain = await ask(service, {
                "op": "allocate", "id": "p", "source": TWO_FUNCTIONS,
                "name": "served2",
            })
            return traced, plain

        traced, plain = drive(body, config)
        assert traced["status"] == 200
        assert "trace" not in plain  # strictly opt-in
        events = traced["trace"]["traceEvents"]
        names = {event.get("name") for event in events}
        assert "service:request" in names     # the service's own span
        assert "function:served2" in names    # the allocator below it
        assert "function:helper" in names     # ... for every function
        # Worker lanes survived the merge: more than one pid appears.
        pids = {event["pid"] for event in events
                if event.get("ph") in ("B", "E", "X")}
        assert len(pids) >= 2
        # The same merged trace was spooled to trace_dir and is
        # structurally valid Chrome JSON.
        spooled = tmp_path / f"trace-{traced['trace_id']}.json"
        assert spooled.exists()
        stats = validate_chrome_trace(spooled)
        assert stats["events"] > 0
        # Tracing is observational: both replies agree on the answer.
        assert traced["assignment"] == plain["assignment"]

    def test_traced_request_feeds_allocator_counters(self):
        async def body(service):
            await ask(service, {"op": "allocate", "id": "t",
                                "source": SOURCE, "name": "served",
                                "trace": True})
            return service.service_section()

        section = drive(body)
        assert section["allocator"]
        assert section["allocator"].get("live_ranges", 0) > 0

    def test_stats_op_reports_events_cursor(self):
        async def body(service):
            await ask(service, {"op": "allocate", "id": 1,
                                "source": SOURCE, "name": "served"})
            reply = await ask(service, {"op": "stats", "id": 2})
            return reply

        reply = drive(body)
        assert reply["service"]["events_seq"] >= 1
        assert "latency" in reply["service"]

    def test_repro_tail_prints_the_event_ring(self, capsys):
        """``repro tail`` against a live server: one formatted line per
        event, honoring the --kind filter."""
        from repro.cli import main

        async def body(service):
            await ask(service, {"op": "allocate", "id": 1,
                                "source": SOURCE, "name": "served"})
            status = await asyncio.to_thread(
                main, ["tail", "--port", str(service.port)])
            filtered = await asyncio.to_thread(
                main, ["tail", "--port", str(service.port),
                       "--kind", "admission"])
            return status, filtered

        status, filtered = drive(body)
        assert status == 0
        assert filtered == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line]
        assert lines
        assert all(line.startswith("[") for line in lines)
        assert any("admission" in line for line in lines)


class TestTeardown:
    #: Two functions, so the driver takes the pool path (a
    #: single-function module allocates serially in the executor thread
    #: and never warms a worker).
    TWO_FUNCTIONS = (
        "subroutine helper(n)\n"
        "end\n"
        "program served2\n"
        "integer a, b\n"
        "a = 1\n"
        "b = a + 2\n"
        "call helper(b)\n"
        "print b\n"
        "end\n"
    )

    def test_stop_reaps_every_pool_worker(self):
        async def body(service):
            await ask(service, {"op": "allocate", "id": 1,
                                "source": self.TWO_FUNCTIONS,
                                "name": "served2"})
            return [pid for pool in active_pools()
                    for pid in pool.worker_pids()]

        pids = drive(body)
        assert pids, "allocation never warmed the pool"
        from repro.durability.supervisor import process_gone

        for pid in pids:
            assert process_gone(pid), f"worker {pid} survived service.stop()"

    def test_shutdown_op_stops_the_server(self):
        async def body(service):
            reply = await ask(service, {"op": "shutdown", "id": "bye"})
            for _ in range(100):
                if not service.accepting:
                    break
                await asyncio.sleep(0.02)
            return reply, service.accepting

        reply, accepting = drive(body)
        assert reply["status"] == 200
        assert accepting is False

    def test_shutdown_op_wakes_serve_until(self):
        # serve_until must return after a client shutdown even though
        # the caller's stop_event never fires — otherwise `repro serve`
        # lingers as a zombie with the listener already closed.
        async def main():
            service = AllocationService(ServiceConfig(
                concurrency=1, queue_limit=1, jobs=2,
                default_deadline=20.0))
            await service.start()
            never_set = asyncio.Event()
            waiter = asyncio.ensure_future(service.serve_until(never_set))
            reply = await ask(service, {"op": "shutdown", "id": "bye"})
            await asyncio.wait_for(waiter, timeout=30.0)
            return reply, service.accepting

        reply, accepting = asyncio.run(main())
        assert reply["status"] == 200
        assert accepting is False
