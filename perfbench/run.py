#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload suite|serve|graph|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding ``src/repro``).
Every workload runs a fixed, seeded sequence of operations through the
program's public entry points, each run from fresh processes.  Answers
are checked after the timed operations; a failed, refused, degraded or
wrong answer counts against the run and makes the command exit 1.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
inputs untraced and then traced, and prints the per-layer metrics, the
coverage line and the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    print(f"perfbench: no src/repro under {ROOT}; run from the root of a "
          f"repository checkout", file=sys.stderr)
    sys.exit(2)
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import common  # noqa: E402

# Byte code for this process and everything it starts goes to the
# benchmark's own cache directory, never into src/.
os.environ["PYTHONPYCACHEPREFIX"] = str(common.PYCACHE)
sys.pycache_prefix = str(common.PYCACHE)

from perfbench import inputs as inputs_mod  # noqa: E402
from perfbench import metrics as metrics_mod  # noqa: E402
from perfbench import serve as serve_mod  # noqa: E402

WORKLOADS = ("suite", "serve", "graph")
#: Fresh starts per run; set-up is reported as their median.
SETUP_REPEATS = {"suite": 9, "serve": 5, "graph": 3}
#: Fresh processes that share out an untraced run's operations.  On a
#: shared host one process runs steadily faster or slower than the next,
#: by more than its sweeps vary among themselves, so ``suite`` pools
#: nine; for ``graph`` each start spawns a pool and colors a warm-up
#: graph, too dear to repeat.
MEASURE_PROCESSES = {"suite": 9, "graph": 1}
CHILD_TIMEOUT = 170.0


class RunFailure(Exception):
    """The run could not produce a measurement at all."""


def warm_bytecode() -> None:
    """Compile the sources and import what the timed processes import,
    so every timed start reads a warm byte-code cache."""
    code = ("import compileall, sys; compileall.compile_dir(sys.argv[1], "
            "quiet=1); import repro.cli, repro.service.server, "
            "repro.experiments.runner, repro.regalloc.repair, "
            "perfbench.child, perfbench.serve_server, multiprocessing.pool")
    subprocess.run([sys.executable, "-c", code, str(common.SRC)],
                   cwd=ROOT, env=common.child_env(), check=True,
                   stdout=subprocess.DEVNULL, timeout=600)


def log_tail(path: Path, lines: int = 20) -> str:
    try:
        return "\n".join(path.read_text(errors="replace")
                         .splitlines()[-lines:])
    except OSError:
        return ""


# ----------------------------------------------------------------------
# In-process workloads (suite, graph): the program runs in perfbench.child
# ----------------------------------------------------------------------


def run_child(workload, inputs_path, workdir, mode, traced=False,
              ops=None, references=None) -> dict:
    """One fresh child; ``ops`` is its ``(start, end)`` share of the
    operations (all of them when ``None``)."""
    out = workdir / f"child-{mode}-{int(traced)}-{time.monotonic_ns()}.json"
    log = workdir / "child.log"
    command = [sys.executable, "-m", "perfbench.child", "--workload",
               workload, "--inputs", str(inputs_path), "--out", str(out),
               "--mode", mode, "--trace", str(int(traced))]
    if ops is not None:
        command += ["--ops", f"{ops[0]}:{ops[1]}"]
    if references is not None:
        command += ["--references", str(references)]
    with open(log, "ab") as stderr:
        spawned = time.monotonic()
        proc = subprocess.run(command, cwd=ROOT, env=common.child_env(),
                              stdout=subprocess.DEVNULL, stderr=stderr,
                              stdin=subprocess.DEVNULL,
                              timeout=CHILD_TIMEOUT)
    if proc.returncode != 0 or not out.exists():
        raise RunFailure(f"{workload} child ({mode}) exited "
                         f"{proc.returncode}:\n{log_tail(log)}")
    result = json.loads(out.read_text())
    result["setup_s"] = result["ready"] - spawned - result["inputs_s"]
    return result


def merge(parts) -> dict:
    """One measured run from the shares its processes ran, in operation
    order; the first share's checks carry the exact totals."""
    run = {"names": [], "latencies": [], "failed": [], "errors": []}
    peaks: dict = {}
    for part in parts:
        offset = len(run["names"])
        run["failed"] += [offset + index for index in part["failed"]]
        for key in ("names", "latencies", "errors"):
            run[key] += part[key]
        for name, values in part["peaks"].items():
            peaks.setdefault(name, []).extend(values)
    run["checks"] = parts[0]["checks"]
    run["window"] = sum(value for value in run["latencies"]
                        if value is not None)
    # Each input's typical peak (median over its operations), then the
    # largest input's: one operation that meets a heap full of earlier
    # garbage does not decide the figure.
    run["peak_rss_mb"] = max(
        (common.median(values) for values in peaks.values()), default=0.0
    ) + max(part["workers_rss_mb"] for part in parts)
    return run


def inprocess(workload, inputs, inputs_path, workdir, traced: bool):
    """Untraced: the operations shared out over fresh processes (the
    first share also makes the reference answers the later ones are
    checked against), plus set-up-only starts.  Traced: the same inputs
    untraced and then traced, each in one fresh process.  Returns the
    measured runs, every fresh start, and the problems found."""
    if not traced:
        parts = []
        references = workdir / "references.json"
        for share in inputs_mod.shares(inputs, MEASURE_PROCESSES[workload]):
            parts.append(run_child(
                workload, inputs_path, workdir, "measure", ops=share,
                references=references if parts else None))
            if len(parts) == 1 and "references" in parts[0]["checks"]:
                references.write_text(json.dumps(
                    parts[0]["checks"].pop("references")))
        starts = parts + [
            run_child(workload, inputs_path, workdir, "setup")
            for _ in range(SETUP_REPEATS[workload] - len(parts))]
        return [merge(parts)], starts, leaks(starts)
    untraced = run_child(workload, inputs_path, workdir, "measure")
    traced_run = run_child(workload, inputs_path, workdir, "measure",
                           traced=True)
    problems = leaks([untraced, traced_run])
    if not traced_run["unwrapped"]:
        problems.append("probe wrappers were not removed after the "
                        "traced run")
    runs = [merge([untraced]), merge([traced_run])]
    runs[1]["probe"] = traced_run["probe"]
    return runs, [], problems


def leaks(starts) -> list:
    return [problem for start in starts
            for problem in leak_problems(start["teardown"]["leaked"])]


def leak_problems(leaked) -> list:
    return [f"worker pids {leaked} survived shutdown"] if leaked else []


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------


def serve_pass(inputs, refs, workdir, *, stats_path=None,
               trace_requests=False, measure=True) -> dict:
    """One fresh server: start, warm up, optionally drive the whole
    request sequence, scrape /metrics, shut down, check for leaks."""
    server = serve_mod.Server(workdir / "server.log", stats_path)
    try:
        server.wait_ready()
        warm = serve_mod.send_one(
            server.port, serve_mod.request(inputs["warmup"], "warmup"))
        setup_s = time.monotonic() - server.spawned
        if warm.get("status") != 200:
            raise RunFailure(f"warm-up request answered {warm.get('status')}"
                             f": {warm.get('error')}")
        if not measure:
            return {"setup_s": setup_s, "leaked": server.shutdown()}
        sources, sequence = inputs["sources"], inputs["sequence"]
        payloads = [serve_mod.request(sources[program], index,
                                      trace=trace_requests)
                    for index, program in enumerate(sequence)]
        before = server.metrics()["latency"]
        driven = serve_mod.drive(server.port, payloads,
                                 serve_mod.repeat_of(sequence))
        after = server.metrics()["latency"]
        # The server's histograms over exactly the driven requests.
        service = {
            op: {key: after[op][key] - before[op][key]
                 for key in ("count", "sum")}
            for op in after
        }
        rss = server.peak_rss_mb()
        server_pid = server.proc.pid
        leaked = server.shutdown()
    finally:
        server.close()
    failed = []
    errors = list(driven["errors"])
    for index, (program, reply) in enumerate(zip(sequence,
                                                 driven["replies"])):
        why = serve_mod.check_reply(reply, refs[program])
        if why:
            failed.append(index)
            errors.append(f"request {index}: {why}")
    result = {
        "names": list(sequence),
        "latencies": driven["latencies"],
        "failed": failed,
        "errors": errors[:5],
        "window": driven["window"],
        "peak_rss_mb": rss,
        "service": service,
        "setup_s": setup_s,
        "leaked": leaked,
        "checks": {"spilled_ranges": sum(ref["spilled_ranges"]
                                         for ref in refs)},
    }
    if trace_requests:
        lanes = {"self_s": {}, "ops": len(sequence)}
        for reply in driven["replies"]:
            if reply and "trace" in reply:
                times = serve_mod.lane_self_times(reply["trace"], server_pid)
                for layer, seconds in times.items():
                    lanes["self_s"][layer] = lanes["self_s"].get(
                        layer, 0.0) + seconds
        result["lanes"] = lanes
    if stats_path is not None:
        result["probe"] = json.loads(Path(stats_path).read_text())
    return result


def serve(inputs, workdir, traced: bool):
    refs = serve_mod.references(inputs["sources"], probed=traced)
    problems = [f"reference for program {index} does not simulate to its "
                f"unallocated program's outputs"
                for index, ref in enumerate(refs) if not ref["simulated_ok"]]
    if not traced:
        setups = [serve_pass(inputs, refs, workdir, measure=False)
                  for _ in range(SETUP_REPEATS["serve"] - 1)]
        run = serve_pass(inputs, refs, workdir)
        for one in setups + [run]:
            problems += leak_problems(one["leaked"])
        return [run], setups + [run], problems, refs
    untraced = serve_pass(inputs, refs, workdir)
    probed = serve_pass(inputs, refs, workdir,
                        stats_path=workdir / "server-probe.json")
    lanes = serve_pass(inputs, refs, workdir, trace_requests=True)
    for one in (untraced, probed, lanes):
        problems += leak_problems(one["leaked"])
    return [untraced, probed, lanes], [], problems, refs


# ----------------------------------------------------------------------
# One workload, start to finish
# ----------------------------------------------------------------------


def throughput(run) -> float:
    good = metrics_mod.ok_latencies(run["latencies"], run["failed"])
    return len(good) / run["window"]


def run_workload(workload, seed, seconds, traced) -> dict:
    meta = common.run_metadata()
    workdir = common.WORK / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        warm_bytecode()
        inputs = inputs_mod.BUILDERS[workload](seed, seconds)
        blob = inputs_mod.encode(inputs)
        inputs_path = workdir / "inputs.bin"
        inputs_path.write_bytes(blob)
        refs = None
        if workload == "serve":
            runs, setups, problems, refs = serve(inputs, workdir, traced)
        else:
            runs, setups, problems = inprocess(workload, inputs, inputs_path,
                                               workdir, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta = common.finish_metadata(meta)
    meta["inputs_digest"] = inputs_mod.digest(blob)
    meta["operations"] = len(runs[0]["names"])
    attempted = sum(len(run["names"]) for run in runs)
    failed = sum(len(run["failed"]) for run in runs)
    errors = [error for run in runs for error in run.get("errors", ())]
    result = {"workload": workload, "seed": seed, "traced": traced,
              "meta": meta, "attempted": attempted, "failed": failed,
              "problems": problems, "errors": errors,
              "correct": failed == 0 and not problems}
    if not traced:
        run = runs[0]
        setup_s = [one["setup_s"] for one in setups]
        values, reported = metrics_mod.end_to_end(workload, run, setup_s)
        result["metrics"] = values
        result["reported"] = reported
        result["tail"] = metrics_mod.tail_note(
            metrics_mod.ok_latencies(run["latencies"], run["failed"]))
        result["setups"] = setup_s
        return result
    untraced = runs[0]
    if workload == "suite":
        layers = metrics_mod.suite_layers(untraced, runs[1])
    elif workload == "graph":
        layers = metrics_mod.graph_layers(untraced, runs[1])
    else:
        ref_counts: dict = {}
        for program in inputs["sequence"]:
            for name, value in refs[program]["counts"].items():
                ref_counts[name] = ref_counts.get(name, 0) + value
        layers = metrics_mod.serve_layers(untraced, runs[1],
                                          runs[2]["lanes"], ref_counts)
        result["trace_true_rps"] = throughput(runs[2])
    result["untraced_rps"] = throughput(untraced)
    result["traced_rps"] = throughput(runs[1])
    layers["trace.overhead_rps"] = result["traced_rps"] - \
        result["untraced_rps"]
    result["metrics"] = layers
    return result


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------


def render(result) -> list:
    meta = result["meta"]
    lines = [f"== {result['workload']} seed={result['seed']} "
             f"ops={meta['operations']} inputs={meta['inputs_digest']} "
             f"{'traced' if result['traced'] else 'untraced'}"]
    if not result["traced"]:
        for name, unit, better, _ in metrics_mod.END_TO_END:
            lines.append(f"  {name:<22} {result['metrics'][name]:>14.4f} "
                         f"{unit:<9} {better} is better")
        for name, unit, better in metrics_mod.REPORTED:
            if name in result["reported"]:
                value = result["reported"][name]
                shown = f"{value:>14}" if isinstance(value, int) else \
                    f"{value:>14.4f}"
                lines.append(f"  {name:<22} {shown} {unit:<9} "
                             f"{better} is better (unbounded)")
        lines.append(f"  tail: {result['tail']}")
        lines.append("  setup_s samples: " + ", ".join(
            f"{value:.3f}" for value in result["setups"]))
    else:
        units = dict(metrics_mod.PER_LAYER)
        for name, value in result["metrics"].items():
            lines.append(f"  {name:<30} {value:>14.4f} {units[name]}")
        m = result["metrics"]
        lines.append(f"  coverage: {100 * m['trace.coverage']:.1f}% of "
                     f"end-to-end time under named layers, residual "
                     f"{m['trace.residual_ms']:.2f} ms/op")
        lines.append(f"  tracing overhead: traced {result['traced_rps']:.3f}"
                     f" - untraced {result['untraced_rps']:.3f} = "
                     f"{m['trace.overhead_rps']:+.3f} ops/s")
        if "trace_true_rps" in result:
            lines.append(f"  \"trace\": true replies: "
                         f"{result['trace_true_rps']:.3f} ops/s")
    lines.append(f"  attempted {result['attempted']} failed "
                 f"{result['failed']}")
    for problem in result["problems"] + result["errors"][:5]:
        lines.append(f"  FAIL: {problem}")
    lines.append(f"  meta: {json.dumps(meta, sort_keys=True)}")
    return lines


def metric_units(traced: bool) -> dict:
    if traced:
        return dict(metrics_mod.PER_LAYER)
    return {name: unit for name, unit, _b, _d in metrics_mod.END_TO_END}


def summary(results, traced: bool) -> dict:
    units = metric_units(traced)
    single = len(results) == 1
    out = {}
    for result in results:
        for name, value in result["metrics"].items():
            key = name if single else f"{result['workload']}.{name}"
            out[key] = {"value": value, "unit": units[name]}
    return {
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": out,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run the repository benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="run length; fixes the operation count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so every server and child it
    # started is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    # Any process a server or child leaves behind re-parents here, so
    # none survives the run, on any path out of it.
    common.become_subreaper()
    try:
        return run_all(args)
    finally:
        common.reap_descendants()


def run_all(args) -> int:
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in workloads:
        try:
            result = run_workload(workload, args.seed, args.seconds,
                                  bool(args.trace))
        except (RunFailure, OSError, RuntimeError, ValueError,
                subprocess.SubprocessError) as error:
            print(f"perfbench: {workload}: {error}", file=sys.stderr)
            return 1
        # Everything the run started has been waited for; a process
        # still running here would take CPU from the next run.
        stray = common.reap_descendants()
        if stray:
            result["problems"].append(f"processes {stray} were still "
                                      f"running after the run")
            result["correct"] = False
        for line in render(result):
            print(line, flush=True)
        results.append(result)
    final = summary(results, bool(args.trace))
    print(json.dumps(final, sort_keys=True), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
