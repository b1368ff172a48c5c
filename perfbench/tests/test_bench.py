"""The benchmark's own logic: statistics, names, answer checks, probe
removal and seeded inputs.  Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import random

import pytest

from perfbench import common, inputs, layers, metrics
from perfbench.common import ROOT


# -- the percentile rule ------------------------------------------------


@pytest.mark.parametrize("count", [20, 91, 150, 199, 200, 240, 2000])
def test_tail_percentile_is_the_highest_with_ten_beyond(count):
    samples = [float(value) for value in random.Random(count).sample(
        range(10 * count), count)]
    q = common.tail_percentile(samples)
    assert common.samples_beyond(samples, q) >= common.TAIL_SAMPLES
    higher = [c for c in common.TAIL_CANDIDATES if c > q]
    assert all(common.samples_beyond(samples, c) < common.TAIL_SAMPLES
               for c in higher)


def test_tail_percentile_examples():
    samples = [float(value) for value in range(200)]
    assert common.samples_beyond(samples, 95) == 10
    assert common.tail_percentile(samples) == 95
    assert common.tail_percentile(samples[:91]) == 89
    assert common.tail_percentile([float(v) for v in range(2000)]) == 99.5


def test_tail_percentile_none_when_too_few_samples():
    assert common.tail_percentile([1.0, 2.0, 3.0, 4.0, 5.0]) is None


def test_percentile_interpolates_between_ranks():
    assert common.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert common.percentile([5.0], 95) == 5.0


def test_geomean_of_input_medians():
    names = ["a", "a", "a", "b"]
    latencies = [0.001, 0.002, 0.100, 0.004]
    # median(a) = 2 ms, median(b) = 4 ms, geomean = sqrt(8) ms
    value = metrics.per_input_geomean_ms(names, latencies, failed=[])
    assert value == pytest.approx(8 ** 0.5)
    assert metrics.per_input_geomean_ms(names, latencies, failed=[3]) == \
        pytest.approx(2.0)


# -- metric names ---------------------------------------------------------


def _all_names():
    return ([name for name, *_ in metrics.END_TO_END]
            + [name for name, *_ in metrics.REPORTED]
            + [name for name, _unit in metrics.PER_LAYER])


def test_metric_names_are_well_formed_and_unique():
    names = _all_names()
    assert len(names) == len(set(names))
    for name in names:
        assert common.valid_metric_name(name), name
    assert not common.valid_metric_name("bad name")
    assert not common.valid_metric_name(".leading-dot")


def test_manifest_matches_the_metric_tables():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["end_to_end"]] == \
        [(name, unit, better) for name, unit, better, _ in metrics.END_TO_END]
    assert [(m["name"], m["unit"]) for m in manifest["per_layer"]] == \
        list(metrics.PER_LAYER)
    assert [w["name"] for w in manifest["workloads"]] == \
        ["suite", "serve", "graph"]


# -- answer checks ----------------------------------------------------------


def test_same_outputs_treats_nan_as_equal_to_nan():
    nan = float("nan")
    assert common.same_outputs([1, nan, 2.5], [1, float("nan"), 2.5])
    assert not common.same_outputs([1, nan], [1, 0.0])
    assert not common.same_outputs([1, 2], [1, 3])
    assert not common.same_outputs([1], [1, 1])


def test_serve_check_flags_a_corrupted_assignment():
    from perfbench import serve
    from repro.workloads.synth import generate_program

    ref = serve.reference(generate_program(7))
    assert ref["simulated_ok"]
    reply = {"status": 200, **json.loads(json.dumps(ref["answer"]))}
    assert serve.check_reply(reply, ref) == ""
    function, colors = next(iter(reply["assignment"].items()))
    token = next(iter(colors))
    colors[token] += 1
    assert "differs" in serve.check_reply(reply, ref)
    assert serve.check_reply({"status": 200, "degraded": True}, ref) == \
        "degraded"
    assert serve.check_reply({"status": 429}, ref).startswith("status 429")


def _suite_runner():
    from perfbench.child import Suite
    from repro.workloads import get_workload

    source = get_workload("quicksort").source
    return Suite({"sources": {"quicksort": source}, "warmup": "quicksort",
                  "ops": ["quicksort", "quicksort"]})


def test_suite_check_passes_correct_answers():
    runner = _suite_runner()
    for name in runner.inputs["ops"]:
        runner.keep(name, runner.op(name))
    failed = set()
    totals = runner.check(runner.inputs["ops"], failed)
    assert failed == set()
    assert totals["spilled_ranges"] == 2 and totals["functions"] == 4


def _corrupt(answer):
    """Put every register in one physical register: the simulated outputs
    can no longer match the unallocated program's."""
    module, allocation = answer
    for assignment in [allocation.assignment] + [
            result.assignment for result in allocation.results.values()]:
        for vreg in assignment:
            assignment[vreg] = 0
    return module, allocation


def test_suite_check_flags_a_corrupted_assignment():
    # One wrong answer among right ones is flagged on its own...
    runner = _suite_runner()
    runner.keep("quicksort", _corrupt(runner.op("quicksort")))
    runner.keep("quicksort", runner.op("quicksort"))
    failed = set()
    runner.check(runner.inputs["ops"], failed)
    assert failed == {0}
    # ...and an allocator that is always wrong fails every operation.
    runner = _suite_runner()
    allocate = runner.op
    runner.op = lambda name: _corrupt(allocate(name))
    for name in runner.inputs["ops"]:
        runner.keep(name, runner.op(name))
    failed = set()
    runner.check(runner.inputs["ops"], failed)
    assert failed == {0, 1}
    # A later share checks against the first share's references alone.
    first = _suite_runner()
    first.keep("quicksort", first.op("quicksort"))
    references = first.check(["quicksort"], set())["references"]
    runner = _suite_runner()
    runner.references = references
    runner.keep("quicksort", _corrupt(runner.op("quicksort")))
    runner.keep("quicksort", runner.op("quicksort"))
    failed = set()
    assert "spilled_ranges" not in runner.check(runner.inputs["ops"], failed)
    assert failed == {0}


def test_graph_check_flags_a_corrupted_coloring():
    from perfbench.child import Graph
    from repro.workloads.synth import generate_graph

    adjacency = generate_graph(300, 6.0, seed=5).adjacency
    runner = Graph({"graphs": [adjacency], "k": 16, "ops": [0, 0]})
    for index in runner.inputs["ops"]:
        runner.keep(index, runner.op(index))
    failed = set()
    assert runner.check(runner.inputs["ops"], failed)["spilled_ranges"] == 0
    assert failed == set()
    outcome = runner.answers[1][1]
    vertex = next(v for v, row in enumerate(adjacency) if row)
    outcome.colors[vertex] = outcome.colors[adjacency[vertex][0]]
    runner.check(runner.inputs["ops"], failed)
    assert failed == {1}


# -- the probe --------------------------------------------------------------


@pytest.mark.parametrize("process", ["suite", "graph", "server"])
def test_probe_wrappers_are_removed(process):
    hooks = [(layers.resolve(spec), attr) for spec, attr, _ in
             layers.HOOKS[process]]
    before = [getattr(owner, attr) for owner, attr in hooks]
    with layers.Probe().install(process):
        assert all(layers.is_wrapped(owner, attr) for owner, attr in hooks)
    assert not any(layers.is_wrapped(owner, attr) for owner, attr in hooks)
    # Bound methods compare equal when they wrap the same function.
    assert [getattr(owner, attr) for owner, attr in hooks] == before
    from repro.regalloc.pool import RESPONSE_CACHE

    assert "get" not in vars(RESPONSE_CACHE)


def test_probe_charges_self_time_and_counts():
    import repro.frontend
    import repro.regalloc.driver
    from repro.experiments.runner import EXPERIMENT_TARGET
    from repro.workloads import get_workload

    source = get_workload("quicksort").source
    with layers.Probe().install("suite") as probe:
        module = repro.frontend.compile_source(source, "quicksort")
        repro.regalloc.driver.allocate_module(module, EXPERIMENT_TARGET,
                                              "briggs")
    snap = probe.snapshot()
    assert snap["calls"]["driver"] == 1 and snap["calls"]["frontend"] == 1
    assert snap["counts"]["driver.passes"] == 5
    assert snap["counts"]["interference.builds"] == \
        snap["counts"]["liveness.solves"]
    assert snap["counts"]["coalesce.rounds"] >= snap["counts"][
        "coalesce.calls"]
    assert all(value >= 0 for value in snap["self_s"].values())


# -- seeded inputs ------------------------------------------------------------


def test_suite_inputs_are_identical_for_one_seed():
    first = inputs.encode(inputs.suite_inputs(3, 10))
    assert first == inputs.encode(inputs.suite_inputs(3, 10))
    assert inputs.digest(first) != inputs.digest(
        inputs.encode(inputs.suite_inputs(4, 10)))
    ops = inputs.suite_inputs(3, 10)["ops"]
    assert len(ops) % len(inputs.SUITE_PROGRAMS) == 0
    for start in range(0, len(ops), len(inputs.SUITE_PROGRAMS)):
        assert sorted(ops[start:start + 7]) == sorted(inputs.SUITE_PROGRAMS)


def test_shares_split_whole_sweeps_in_order():
    suite = inputs.suite_inputs(3, 20)
    bounds = inputs.shares(suite, 9)
    assert len(bounds) == 9
    assert bounds[0][0] == 0 and bounds[-1][1] == len(suite["ops"])
    assert all(end == start for (_, end), (start, _) in
               zip(bounds, bounds[1:]))
    sizes = [end - start for start, end in bounds]
    assert all(size % 7 == 0 and size > 0 for size in sizes)
    assert max(sizes) - min(sizes) <= 7
    assert inputs.shares({"workload": "graph", "ops": [0, 1, 2]}, 1) == \
        [(0, 3)]


def test_serve_inputs_are_identical_and_repeat_recent_programs():
    first = inputs.serve_inputs(5, 1)
    assert inputs.encode(first) == inputs.encode(inputs.serve_inputs(5, 1))
    assert inputs.encode(first) != inputs.encode(inputs.serve_inputs(6, 1))
    sequence = first["sequence"]
    assert len(sequence) == inputs.SERVE_MIN_REQUESTS
    seen_at: dict = {}
    repeats = 0
    for index, program in enumerate(sequence):
        if program in seen_at:
            repeats += 1
            assert index - seen_at[program] >= inputs.SERVE_REPEAT_MIN_GAP
            # Among the most recent distinct programs, so still cached.
            assert len(seen_at) - program <= inputs.SERVE_REPEAT_WINDOW
        else:
            assert program == len(seen_at)
            seen_at[program] = index
    assert 0.15 < repeats / len(sequence) < 0.35
    # One fixed warm-up for every seed, never in the timed sequence.
    assert first["warmup"] == inputs.serve_inputs(6, 1)["warmup"]
    assert first["warmup"] not in first["sources"]


def test_serve_repeat_leaves_after_its_first_reply():
    """A slow first request holds back its repeat, and only that."""
    import socketserver
    import threading
    import time

    from perfbench import serve

    assert serve.repeat_of([0, 1, 0, 2, 1, 0]) == \
        [None, None, 0, None, 1, 0]
    seen = []  # what the fake server did, in order

    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            for line in self.rfile:
                request_id = json.loads(line)["id"]
                seen.append(("received", request_id))
                if request_id == 0:
                    time.sleep(0.3)
                seen.append(("answered", request_id))
                self.wfile.write(b'{"status": 200}\n')

    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        sequence = [0, 1, 0, 2]
        driven = serve.drive(
            server.server_address[1],
            [serve.request("", index) for index in range(len(sequence))],
            serve.repeat_of(sequence))
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert driven["errors"] == []
    assert driven["replies"] == [{"status": 200}] * len(sequence)
    assert seen.index(("answered", 0)) < seen.index(("received", 2))
    # Request 1, no repeat, went out while request 0 was still running.
    assert seen.index(("received", 1)) < seen.index(("answered", 0))


def test_graph_inputs_are_identical_for_one_seed(monkeypatch):
    monkeypatch.setattr(inputs, "GRAPH_NODES", 500)
    first = inputs.encode(inputs.graph_inputs(9, 10))
    assert first == inputs.encode(inputs.graph_inputs(9, 10))
    assert first != inputs.encode(inputs.graph_inputs(10, 10))


def test_inputs_round_trip_through_the_file_form():
    rng = random.Random(0)
    seed = rng.randrange(100)
    for inputs_ in (inputs.suite_inputs(seed, 3),
                    inputs.serve_inputs(seed, 1)):
        assert inputs.decode(inputs.encode(inputs_)) == inputs_


# -- no process outlives a run ------------------------------------------


def _in_fresh_process(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON line."""
    import subprocess
    import sys

    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         env=common.child_env(), capture_output=True,
                         text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_reap_descendants_stops_an_adopted_orphan():
    result = _in_fresh_process(
        "import json, subprocess\n"
        "from perfbench import common\n"
        "assert common.become_subreaper()\n"
        "out = subprocess.run(['sh', '-c', 'sleep 60 >/dev/null 2>&1 & "
        "echo $!'], capture_output=True, text=True, check=True)\n"
        "orphan = int(out.stdout)\n"
        "stray = common.reap_descendants(grace=0.2)\n"
        "print(json.dumps({'orphan': orphan, 'stray': stray, "
        "'left': common.children_of(__import__('os').getpid()), "
        "'alive': common.alive(orphan)}))\n")
    assert result["stray"] == [result["orphan"]]
    assert result["left"] == []
    assert not result["alive"]


def test_serve_references_leave_no_process_behind():
    result = _in_fresh_process(
        "import json, os\n"
        "from perfbench import common, inputs, serve\n"
        "refs = serve.references([inputs.serve_inputs(1, 1)['warmup']], "
        "probed=False)\n"
        "print(json.dumps({'ok': refs[0]['simulated_ok'], "
        "'children': common.children_of(os.getpid())}))\n")
    assert result["ok"]
    assert result["children"] == []
