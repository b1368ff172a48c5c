"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``compile FILE``
    Compile mini-FORTRAN and print the textual IR.
``run FILE``
    Compile and execute; prints outputs and cycle counts.  With
    ``--allocate`` the program runs on physical registers after register
    allocation (the default is virtual-register execution).
``allocate FILE``
    Allocate registers and print per-routine statistics.
``verify [FILE]``
    Defense-in-depth smoke checks: translation validation (differential
    execution of pre- vs post-allocation code) over a file or the
    workload registry, or — with ``--inject FAULT --seed N`` — a seeded
    fault-injection probe asserting the fault is detected by a defense
    layer or degrades gracefully.  ``--list-faults`` shows the registry.
``fuzz``
    Closed-loop correctness fuzzing (defense layer 4): seeded random
    interference graphs and random programs driven through both
    allocators under full paranoia, the exact small-graph oracle, the
    §2.3 subset guarantee, and differential execution; failures are
    minimized by a deterministic shrinker and written as crash bundles.
``trace WORKLOAD``
    Allocate one registry workload with tracing on and write a Chrome
    trace-event file (loadable in Perfetto or ``chrome://tracing``);
    ``--metrics`` additionally writes the metrics document.  With
    ``--serve-replay JOURNAL`` it instead re-allocates a serve
    journal's unanswered backlog post-mortem, one trace file per
    journaled request.
``tail``
    Follow a live server's structured event ring (``GET /events``):
    admissions, sheds, breaker transitions, degrades, pool restarts,
    repair-round summaries — formatted one event per line.
``figures [NAMES...]``
    Regenerate the paper's tables (figure5 figure6 figure6_extended
    figure7 ablations intstudy svd_headline, or ``all``) into ``--out``
    (default ``results/``): every committed table the figure tests
    compare against.
``report``
    Regenerate every experiment into one markdown document
    (``results/REPORT.md``).
``workloads``
    List the bundled benchmark programs.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.errors import ReproError
from repro.frontend import compile_source
from repro.ir import print_module
from repro.machine import rt_pc, run_module
from repro.machine.encoding import object_size
from repro.regalloc import allocate_module


def _target_from(args) -> object:
    target = rt_pc()
    if args.int_regs != 16:
        target = target.with_int_regs(args.int_regs)
    if args.float_regs != 8:
        target = target.with_float_regs(args.float_regs)
    return target


def _compile_file(args):
    source = pathlib.Path(args.file).read_text()
    return compile_source(source, pathlib.Path(args.file).stem,
                          optimize=args.optimize)


def cmd_compile(args) -> int:
    print(print_module(_compile_file(args)), end="")
    return 0


def _alloc_kwargs(args) -> dict:
    return {
        "coalesce": args.coalesce,
        "rematerialize": args.rematerialize,
        "split_ranges": args.split_ranges,
        "jobs": args.jobs,
        "policy": args.policy,
        "timeout": args.timeout,
        "retries": args.retries,
        "bundle_dir": args.bundle_dir,
        "paranoia": args.paranoia,
        "cache": not args.no_cache,
    }


def cmd_run(args) -> int:
    module = _compile_file(args)
    target = _target_from(args)
    assignment = None
    if args.allocate:
        allocation = allocate_module(
            module, target, args.allocate, validate=True, **_alloc_kwargs(args)
        )
        assignment = allocation.assignment
    result = run_module(
        module, entry=args.entry, target=target, assignment=assignment
    )
    for value in result.outputs:
        print(value)
    mode = f"allocated ({args.allocate})" if args.allocate else "virtual"
    print(
        f"# {mode}: {result.instructions} instructions, "
        f"{result.cycles} cycles, {result.calls} calls",
        file=sys.stderr,
    )
    return 0


def cmd_allocate(args) -> int:
    from repro.experiments.tables import Table
    from repro.observability import Tracer, metrics_document

    module = _compile_file(args)
    target = _target_from(args)
    tracer = Tracer() if args.json else None
    allocation = allocate_module(
        module, target, args.method, validate=True, tracer=tracer,
        journal=args.journal, resume=not args.no_resume,
        **_alloc_kwargs(args)
    )
    if args.json:
        document = metrics_document(
            allocation, tracer=tracer,
            meta={"file": args.file, "method": args.method,
                  "target": target.name, "jobs": args.jobs},
        )
        _emit_json(document, args.json)
    if args.json != "-":
        table = Table(
            f"register allocation ({args.method}, target {target.name})",
            ["Routine", "Live Ranges", "Spilled", "Spill Cost", "Passes",
             "Object Size"],
        )
        for name, result in allocation.results.items():
            table.add_row(
                name,
                result.stats.live_ranges,
                result.stats.registers_spilled,
                result.stats.spill_cost,
                result.stats.pass_count,
                object_size(result.function, target, result.assignment),
            )
        print(table.render())
    return 0


def _emit_json(document: dict, path: str) -> None:
    """Write ``document`` to ``path``, or to stdout when path is ``-``."""
    import json

    if path == "-":
        json.dump(document, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return
    from repro.observability import write_metrics_json

    write_metrics_json(document, path)
    print(f"wrote {path}", file=sys.stderr)


def _serve_replay(args) -> int:
    """Post-mortem tracing: re-allocate a serve journal's request
    backlog under a live tracer, one Chrome trace file per request.

    The journal (``repro-journal/1``, written by ``repro serve
    --journal``) records every admitted request and its outcome; the
    unanswered ones are exactly what the server would replay on
    restart.  This command runs that replay *offline* with tracing on,
    so an operator can see where a wedged backlog was spending its
    time without touching the production process.
    """
    from repro.durability.journal import read_journal
    from repro.ir.wire import decode_module
    from repro.observability import Tracer, write_chrome_trace
    from repro.service.protocol import parse_allocate_request
    from repro.service.server import unanswered_requests

    records, recovery = read_journal(args.serve_replay)
    requests = [r for r in records if r.get("type") == "request"]
    backlog = unanswered_requests(records)
    if args.replay_all:
        backlog = requests
    elif not backlog and requests:
        print(
            f"serve-replay: no unanswered backlog in "
            f"{args.serve_replay}; re-tracing all {len(requests)} "
            f"journaled requests (as --replay-all would)",
            file=sys.stderr,
        )
        backlog = requests
    if not backlog:
        print(f"serve-replay: no journaled requests in "
              f"{args.serve_replay}", file=sys.stderr)
        return 1
    if recovery.dropped_bytes:
        print(
            f"serve-replay: dropped {recovery.dropped_bytes} torn "
            f"trailing bytes ({recovery.reason})", file=sys.stderr,
        )
    out_dir = pathlib.Path(args.out or "results/serve-replay")
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for record in backlog:
        jid = record.get("jid", "unknown")
        trace_id = f"replay-{jid}"
        try:
            # Same validation the server applies on admission; the
            # deadline fields only clamp, they do not time the replay.
            request = parse_allocate_request(
                dict(record, fault=None, fault_args={}), 30.0, 120.0,
            )
            module = (
                compile_source(request.source, request.name)
                if request.source is not None
                else decode_module(request.wire)
            )
            target = (
                rt_pc()
                .with_int_regs(request.int_regs)
                .with_float_regs(request.float_regs)
            )
            tracer = Tracer()
            tracer.trace_id = trace_id
            with tracer.span("service:request", cat="service",
                             trace_id=trace_id, method=request.method,
                             function=request.name):
                allocate_module(
                    module, target, request.method,
                    validate=request.validate, tracer=tracer,
                    jobs=args.jobs,
                )
        except ReproError as error:
            failures += 1
            print(f"jid {jid}: replay failed: {error}", file=sys.stderr)
            continue
        out = out_dir / f"trace-{trace_id}.json"
        write_chrome_trace(tracer, out)
        spans = sum(1 for e in tracer.events if e["ph"] == "B")
        print(
            f"jid {jid} ({request.name}/{request.method}): "
            f"{spans} spans -> {out}",
            file=sys.stderr,
        )
    print(
        f"serve-replay: {len(backlog) - failures}/{len(backlog)} "
        f"requests re-traced into {out_dir}",
        file=sys.stderr,
    )
    return 0 if failures == 0 else 1


def cmd_trace(args) -> int:
    from repro.experiments.runner import allocate_workload
    from repro.observability import (
        Tracer,
        metrics_document,
        write_chrome_trace,
    )
    from repro.workloads import all_workloads

    if args.serve_replay is not None:
        return _serve_replay(args)
    if args.workload is None:
        print("error: a workload name (or --serve-replay JOURNAL) is "
              "required", file=sys.stderr)
        return 2
    workloads = all_workloads()
    if args.workload not in workloads:
        print(
            f"unknown workload {args.workload!r} "
            f"(known: {', '.join(sorted(workloads))})",
            file=sys.stderr,
        )
        return 2
    workload = workloads[args.workload]
    target = _target_from(args)
    tracer = Tracer()
    _module, allocation = allocate_workload(
        workload, target, args.method, validate=args.validate,
        tracer=tracer, jobs=args.jobs,
    )
    out = args.out or f"results/trace-{args.workload}.json"
    pathlib.Path(out).parent.mkdir(parents=True, exist_ok=True)
    write_chrome_trace(tracer, out)
    spans = sum(1 for e in tracer.events if e["ph"] == "B")
    print(
        f"{args.workload}/{args.method}: {spans} spans, "
        f"{len(tracer.counters)} counters -> {out}",
        file=sys.stderr,
    )
    if args.metrics:
        document = metrics_document(
            allocation, tracer=tracer,
            meta={"workload": args.workload, "method": args.method,
                  "target": target.name, "jobs": args.jobs},
        )
        _emit_json(document, args.metrics)
    return 0


def cmd_verify(args) -> int:
    from repro.robustness import (
        FAULTS,
        probe_fault,
        validate_workload,
        verify_allocation,
    )

    if args.list_faults:
        for name, fault in sorted(FAULTS.items()):
            print(f"{name:22s} [{fault.kind}, expect {fault.expect}]  "
                  f"{fault.description}")
        return 0

    methods = ["briggs", "chaitin"] if args.method == "all" else [args.method]
    target = rt_pc().with_int_regs(args.int_regs).with_float_regs(
        args.float_regs
    )

    if args.inject:
        source = (
            pathlib.Path(args.file).read_text() if args.file else None
        )
        fault_names = (
            sorted(FAULTS) if args.inject == "all" else [args.inject]
        )
        all_ok = True
        for fault_name in fault_names:
            for method in methods:
                probe = probe_fault(
                    fault_name, seed=args.seed, source=source, method=method
                )
                if probe.injected is None:
                    verdict = (
                        "INAPPLICABLE (injector found nothing to corrupt)"
                    )
                elif probe.detected_by:
                    verdict = f"DETECTED by {', '.join(probe.detected_by)}"
                elif probe.degraded:
                    verdict = (
                        f"DEGRADED gracefully ({probe.failures} recorded)"
                    )
                else:
                    verdict = "SILENT PASS-THROUGH"
                print(f"{fault_name} (seed {args.seed}, {method}): {verdict}")
                if probe.injected:
                    print(f"  injected: {probe.injected}")
                if probe.detail:
                    print(f"  evidence: {probe.detail}")
                all_ok = all_ok and probe.ok
        return 0 if all_ok else 1

    if args.file:
        stem = pathlib.Path(args.file).stem
        source = pathlib.Path(args.file).read_text()
        for method in methods:
            baseline = compile_source(source, stem)
            module = compile_source(source, stem)
            allocation = allocate_module(
                module, target, method,
                jobs=args.jobs, policy=args.policy, timeout=args.timeout,
                retries=args.retries, bundle_dir=args.bundle_dir,
                paranoia=args.paranoia, cache=not args.no_cache,
            )
            report = verify_allocation(
                module, allocation, entry=args.entry, baseline=baseline
            )
            print(
                f"{stem}/{method}: OK — {report.functions_checked} "
                f"functions, {len(report.outputs)} outputs match the "
                f"pre-allocation run"
            )
        return 0

    from repro.workloads import all_workloads

    names = args.workload or sorted(all_workloads())
    for name in names:
        workload = all_workloads()[name]
        for method in methods:
            report = validate_workload(workload, method, target,
                                       paranoia=args.paranoia)
            print(
                f"{name}/{method}: OK — {report.functions_checked} "
                f"functions, {len(report.outputs)} outputs match"
            )
    return 0


def cmd_fuzz(args) -> int:
    from repro.robustness import run_fuzz

    modes = ("graph", "ir") if args.mode == "both" else (args.mode,)
    report = run_fuzz(
        seed=args.seed,
        iters=args.iters,
        max_nodes=args.max_nodes,
        bundle_dir=args.bundle_dir,
        modes=modes,
        paranoia=args.paranoia,
        log=print,
        journal=args.journal,
        resume=not args.no_resume,
    )
    print(report.summary())
    return 0 if report.ok else 1


_FIGURES = ("figure5", "figure6", "figure6_extended", "figure7",
            "ablations", "intstudy", "svd_headline")


def cmd_figures(args) -> int:
    from repro.experiments import (
        run_ablations,
        run_figure5,
        run_figure6,
        run_figure7,
    )
    from repro.experiments.figure6 import EXTENDED_COUNTS
    from repro.experiments.intstudy import run_integer_study

    wanted = list(args.names) or ["all"]
    if "all" in wanted:
        wanted = list(_FIGURES)
    unknown = [n for n in wanted if n not in _FIGURES]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    runners = {
        "figure5": lambda: run_figure5().to_table().render(),
        "figure6": lambda: run_figure6(array_size=args.array_size)
        .to_table()
        .render(),
        "figure6_extended": lambda: run_figure6(
            register_counts=EXTENDED_COUNTS, array_size=args.array_size
        ).to_table().render(),
        "figure7": lambda: run_figure7().to_table().render(),
        "ablations": lambda: run_ablations().to_table().render(),
        "intstudy": lambda: run_integer_study(
            quicksort_size=args.array_size
        ).to_table().render(),
        "svd_headline": lambda: run_figure5(
            programs=["svd"], simulate=False
        ).headline("svd"),
    }
    for name in wanted:
        rendered = runners[name]()
        (out / f"{name}.txt").write_text(rendered + "\n")
        print(rendered)
        print()
    return 0


def cmd_report(args) -> int:
    from repro.experiments.report import build_report

    report = build_report(array_size=args.array_size)
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(report)
    print(f"wrote {out}")
    return 0


def cmd_workloads(_args) -> int:
    from repro.workloads import all_workloads

    for name, workload in sorted(all_workloads().items()):
        routines = ", ".join(workload.routines)
        print(f"{name:10s} {workload.description}")
        print(f"{'':10s}   routines: {routines}")
    return 0


def cmd_tail(args) -> int:
    """Stream a live server's event ring to stdout, one formatted line
    per event.  Plain HTTP/1.0 over a raw socket — works against any
    ``repro serve`` with zero dependencies.  ``--follow`` polls with a
    ``since=`` cursor so each event prints exactly once even though the
    server's ring is bounded."""
    import socket
    import time

    from repro.observability.events import format_event, parse_ndjson

    since = args.since
    while True:
        query = f"/events?since={since}"
        if args.kind:
            query += f"&kind={args.kind}"
        if args.limit:
            query += f"&limit={args.limit}"
        try:
            with socket.create_connection(
                (args.host, args.port), timeout=5.0
            ) as sock:
                sock.sendall(f"GET {query} HTTP/1.0\r\n\r\n"
                             .encode("ascii"))
                chunks = []
                while True:
                    data = sock.recv(65536)
                    if not data:
                        break
                    chunks.append(data)
        except OSError as error:
            print(f"error: cannot reach {args.host}:{args.port}: "
                  f"{error}", file=sys.stderr)
            return 1
        raw = b"".join(chunks).decode("utf-8", "replace")
        head, _, body = raw.partition("\r\n\r\n")
        status_line = head.split("\r\n", 1)[0]
        if " 200 " not in status_line:
            print(f"error: server answered {status_line!r}",
                  file=sys.stderr)
            return 1
        for record in parse_ndjson(body):
            print(format_event(record), flush=True)
            seq = record.get("seq")
            if isinstance(seq, int):
                since = max(since, seq)
        if not args.follow:
            return 0
        time.sleep(args.interval)


def cmd_serve(args) -> int:
    from repro.service import ServiceConfig, run_server

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        concurrency=args.concurrency,
        queue_limit=args.queue_limit,
        default_deadline=args.deadline,
        max_deadline=args.max_deadline,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        jobs=args.jobs,
        policy=args.policy,
        bundle_dir=args.bundle_dir,
        cache_dir=args.cache_dir,
        allow_faults=args.allow_faults,
        journal_path=args.journal,
        trace_dir=args.trace_dir,
    )

    def announce(service):
        print(
            f"repro serve: listening on {config.host}:{service.port} "
            f"(concurrency {config.concurrency}, queue "
            f"{config.queue_limit}, deadline {config.default_deadline}s, "
            f"breaker {config.breaker_threshold}x/"
            f"{config.breaker_cooldown}s)",
            flush=True,
        )

    return run_server(config, announce=announce)


def cmd_torture(args) -> int:
    from repro.durability.torture import run_torture
    from repro.workloads import all_workloads

    workloads = list(args.workload or [])
    known = all_workloads()
    for name in workloads:
        if name not in known:
            print(f"error: unknown workload {name!r} "
                  f"(known: {', '.join(sorted(known))})", file=sys.stderr)
            return 2
    sources = []
    if args.file:
        sources.append(pathlib.Path(args.file).read_text())
    if not workloads and not sources:
        workloads = ["quicksort"]
    report = run_torture(
        workloads=workloads, sources=sources, target=_target_from(args),
        method=args.method, kills=args.kills, seed=args.seed,
        step_max=args.step_max, torn_rate=args.torn_rate, jobs=args.jobs,
        journal_path=args.journal, max_restarts=args.max_restarts,
        bundle_dir=args.bundle_dir,
    )
    if args.json:
        _emit_json(report.as_dict(), args.json)
    if args.json != "-":
        verdict = "ok" if report.ok else "FAILED"
        print(
            f"torture {verdict}: {report.kills_delivered}/"
            f"{report.kills_requested} kills delivered "
            f"({report.torn_delivered} torn), {report.functions} "
            f"functions, {report.re_executed} re-executed "
            f"(bound {report.re_executed_bound}), "
            f"identical={report.identical}, "
            f"leaked workers={len(report.leaked_workers)}, "
            f"{report.elapsed:.2f}s"
        )
        print(f"lives: {' -> '.join(report.reasons)}")
        if report.mismatched:
            print("mismatched modules: " + ", ".join(report.mismatched))
        replay = (
            f"repro torture --seed {args.seed} --kills {args.kills} "
            f"--step-max {args.step_max} --torn-rate {args.torn_rate}"
        )
        for name in workloads:
            replay += f" --workload {name}"
        if args.file:
            replay += f" {args.file}"
        print(f"replay: {replay}")
    return 0 if report.ok else 1


def cmd_gc(args) -> int:
    from repro.durability.gc import collect_debris

    max_age = (None if args.max_age_days is None
               else args.max_age_days * 86400.0)
    report = collect_debris(
        results_dir=args.results, cache_dir=args.cache_dir,
        keep=args.keep, max_age=max_age, dry_run=args.dry_run,
    )
    if args.json:
        _emit_json(report.as_dict(), args.json)
    if args.json != "-":
        verb = "would remove" if report.dry_run else "removed"
        print(
            f"gc: {report.scanned} artifacts scanned, {report.kept} "
            f"kept, {verb} {len(report.removed)} "
            f"({report.freed_bytes} bytes)"
        )
        for name, stats in sorted(report.categories.items()):
            print(f"  {name}: {stats['scanned']} scanned, "
                  f"{stats['kept']} kept, {stats['removed']} removed")
    return 0


def cmd_chaos(args) -> int:
    from repro.service.chaos import (
        DEFAULT_FAULT_RATES,
        load_storm_manifest,
        replay_command,
        run_chaos,
    )

    rates = None
    requests, seed = args.requests, args.seed
    concurrency, deadline = args.concurrency, args.deadline
    workloads = None
    if args.replay:
        # One-command reproduction of a recorded storm: every parameter
        # comes from the bundle's manifest; command-line tuning flags
        # are ignored in favor of what actually ran.
        manifest = load_storm_manifest(args.replay)
        requests = manifest.get("requests", requests)
        seed = manifest.get("seed", seed)
        concurrency = manifest.get("concurrency", concurrency)
        deadline = manifest.get("deadline", deadline)
        workloads = manifest.get("workloads")
        rates = manifest.get("fault_rates")
    elif args.fault:
        rates = {name: 0.0 for name in DEFAULT_FAULT_RATES}
        for spec in args.fault:
            name, _, rate_text = spec.partition("=")
            if name not in DEFAULT_FAULT_RATES:
                known = ", ".join(sorted(DEFAULT_FAULT_RATES))
                print(f"error: unknown chaos fault {name!r} "
                      f"(known: {known})", file=sys.stderr)
                return 2
            rates[name] = (
                float(rate_text) if rate_text
                else max(DEFAULT_FAULT_RATES[name], 0.1)
            )
    report = run_chaos(
        requests=requests,
        seed=seed,
        fault_rates=rates,
        concurrency=concurrency,
        deadline=deadline,
        workloads=workloads,
        bundle_dir=args.bundle_dir,
    )
    if args.json:
        _emit_json(report.as_dict(), args.json)
    if args.json != "-":
        print(report.summary())
        if not report.ok:
            print(f"replay: {replay_command(report.storm)}")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Briggs et al. 1989 reproduction: mini-FORTRAN compiler with "
            "Chaitin and optimistic register allocation"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_target_flags(p):
        p.add_argument("--int-regs", type=int, default=16,
                       help="general-purpose registers (default 16)")
        p.add_argument("--float-regs", type=int, default=8,
                       help="floating-point registers (default 8)")

    def add_alloc_flags(p):
        p.add_argument(
            "--coalesce",
            choices=["aggressive", "conservative"],
            default="aggressive",
            help="copy-coalescing strategy (default aggressive)",
        )
        p.add_argument(
            "--rematerialize",
            action="store_true",
            help="recompute spilled constants instead of reloading",
        )
        p.add_argument(
            "--split-ranges",
            action="store_true",
            help="split loop-transparent live ranges around pressured loops",
        )
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            help=(
                "allocate functions over the persistent worker pool with "
                "N processes (0 = one per CPU, clamped to the function "
                "count; default 1 = serial)"
            ),
        )
        p.add_argument(
            "--no-cache",
            action="store_true",
            help=(
                "disable the pool's content-addressed response cache "
                "(identical parallel requests then always re-dispatch)"
            ),
        )
        p.add_argument(
            "--policy",
            choices=["raise", "degrade-to-naive", "skip"],
            default="raise",
            help=(
                "what to do when one function's allocation fails "
                "(default raise)"
            ),
        )
        p.add_argument(
            "--timeout",
            type=float,
            default=None,
            help="per-function timeout in seconds for parallel workers",
        )
        p.add_argument(
            "--retries",
            type=int,
            default=1,
            help="in-process re-attempts after a worker crash (default 1)",
        )
        p.add_argument(
            "--bundle-dir",
            default=None,
            help=(
                "write deterministic crash bundles "
                "(<dir>/crash-<function>/) for recorded failures"
            ),
        )
        p.add_argument(
            "--paranoia",
            choices=["off", "cheap", "full"],
            default="off",
            help=(
                "phase-boundary invariant checking inside the allocation "
                "cycle (default off; 'cheap' is O(V+E) outcome checks, "
                "'full' adds stack and select-replay verification)"
            ),
        )

    p = sub.add_parser("compile", help="print the compiled IR")
    p.add_argument("file")
    p.add_argument("--optimize", action="store_true")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="compile and execute")
    p.add_argument("file")
    p.add_argument("--entry", default=None)
    p.add_argument("--optimize", action="store_true")
    p.add_argument(
        "--allocate",
        choices=["chaitin", "briggs", "briggs-degree", "spill-all",
                 "repair"],
        default=None,
        help="allocate registers and run on the physical machine",
    )
    add_target_flags(p)
    add_alloc_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("allocate", help="report allocation statistics")
    p.add_argument("file")
    p.add_argument("--method", default="briggs",
                   choices=["chaitin", "briggs", "briggs-degree", "spill-all",
                            "repair"])
    p.add_argument("--optimize", action="store_true")
    p.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help=(
            "also write the full metrics document (schema repro-metrics/1, "
            "see docs/OBSERVABILITY.md) to PATH; '-' writes it to stdout "
            "instead of the table"
        ),
    )
    p.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help=(
            "journal allocation progress to PATH (crash-safe WAL, see "
            "docs/DURABILITY.md); re-running with the same journal "
            "replays completed functions bit-identically"
        ),
    )
    p.add_argument(
        "--no-resume",
        action="store_true",
        help="reset the journal instead of resuming from it",
    )
    add_target_flags(p)
    add_alloc_flags(p)
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser(
        "trace",
        help="allocate a registry workload and write a Perfetto-loadable "
        "Chrome trace-event file",
    )
    p.add_argument("workload", nargs="?", default=None,
                   help="registry workload name (see 'repro workloads'; "
                   "not needed with --serve-replay)")
    p.add_argument("--method", default="briggs",
                   choices=["chaitin", "briggs", "briggs-degree",
                            "spill-all", "repair"])
    p.add_argument("--out", default=None, metavar="PATH",
                   help="trace file (default results/trace-<workload>"
                   ".json); with --serve-replay, the output *directory* "
                   "(default results/serve-replay)")
    p.add_argument("--serve-replay", default=None, metavar="JOURNAL",
                   dest="serve_replay",
                   help="post-mortem mode: re-allocate the unanswered "
                   "request backlog of a 'repro serve --journal' WAL "
                   "with tracing on, writing one trace-replay-<jid>"
                   ".json per request")
    p.add_argument("--replay-all", action="store_true", dest="replay_all",
                   help="with --serve-replay: re-trace every journaled "
                   "request, not just the unanswered backlog")
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help="also write the metrics document ('-' for stdout)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers; each worker gets its own trace "
                   "lane (default 1)")
    p.add_argument("--validate", action="store_true",
                   help="run the post-allocation validator (its time shows "
                   "up in the trace)")
    p.add_argument("--int-regs", type=int, default=12,
                   help="GPRs (default 12: the pressured experiment target, "
                   "so spill passes appear in the trace)")
    p.add_argument("--float-regs", type=int, default=6,
                   help="FPRs (default 6)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "verify",
        help="translation validation and fault-injection smoke checks",
    )
    p.add_argument("file", nargs="?", default=None,
                   help="mini-FORTRAN file (default: registry workloads)")
    p.add_argument("--workload", action="append", default=None,
                   metavar="NAME", help="validate one registry workload "
                   "(repeatable; default all)")
    p.add_argument("--method", default="all",
                   choices=["briggs", "chaitin", "briggs-degree",
                            "spill-all", "repair", "all"],
                   help="allocator(s) to validate (default: briggs+chaitin)")
    p.add_argument("--inject", default=None, metavar="FAULT",
                   help="inject one registered fault ('all' sweeps the "
                   "registry) and report which defense layer catches it")
    p.add_argument("--seed", type=int, default=0,
                   help="fault-injection seed (default 0)")
    p.add_argument("--list-faults", action="store_true",
                   help="list the fault registry and exit")
    p.add_argument("--entry", default=None)
    p.add_argument("--int-regs", type=int, default=12,
                   help="validation target GPRs (default 12: pressured, "
                   "so spill code is exercised)")
    p.add_argument("--float-regs", type=int, default=6,
                   help="validation target FPRs (default 6)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--no-cache", action="store_true",
                   help="disable the worker pool's response cache")
    p.add_argument("--policy",
                   choices=["raise", "degrade-to-naive", "skip"],
                   default="raise")
    p.add_argument("--timeout", type=float, default=None)
    p.add_argument("--retries", type=int, default=1)
    p.add_argument("--bundle-dir", default=None)
    p.add_argument("--paranoia", choices=["off", "cheap", "full"],
                   default="cheap",
                   help="phase-boundary invariant checking during the "
                   "validation allocations (default cheap)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "fuzz",
        help="closed-loop correctness fuzzing with a minimizing shrinker",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="master seed; the whole campaign replays "
                   "bit-identically from it (default 0)")
    p.add_argument("--iters", type=int, default=200,
                   help="fuzz iterations (default 200)")
    p.add_argument("--max-nodes", type=int, default=16,
                   help="max virtual nodes per random graph (default 16)")
    p.add_argument("--mode", choices=["graph", "ir", "both"],
                   default="both",
                   help="case mix: random interference graphs, random "
                   "programs, or alternating (default both)")
    p.add_argument("--paranoia", choices=["cheap", "full"], default="full",
                   help="invariant-checking level inside fuzzed "
                   "allocations (default full; 'off' is not offered — "
                   "the fuzz loop never runs unchecked)")
    p.add_argument("--bundle-dir", default="results/fuzz",
                   help="directory for shrunken crash bundles "
                   "(<dir>/fuzz-<kind>-<case_seed>/; default results/fuzz)")
    p.add_argument("--journal", default=None, metavar="PATH",
                   help="journal completed iterations to PATH (crash-safe "
                   "WAL); rerunning with the same journal resumes the "
                   "campaign instead of restarting it")
    p.add_argument("--no-resume", action="store_true",
                   help="reset the journal instead of resuming from it")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("figures", help="regenerate the paper's tables")
    p.add_argument("names", nargs="*", help=" ".join(_FIGURES) + " | all")
    p.add_argument("--out", default="results")
    p.add_argument("--array-size", type=int, default=256)
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser(
        "report", help="regenerate every experiment into one markdown report"
    )
    p.add_argument("--out", default="results/REPORT.md")
    p.add_argument("--array-size", type=int, default=256)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("workloads", help="list bundled benchmarks")
    p.set_defaults(func=cmd_workloads)

    p = sub.add_parser(
        "serve",
        help="run the hardened allocation daemon (NDJSON over TCP, "
        "HTTP probes on the same port; see docs/SERVICE.md)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7632,
                   help="TCP port (default 7632; 0 picks an ephemeral "
                   "port and prints it)")
    p.add_argument("--concurrency", type=int, default=2,
                   help="requests allocating at once (default 2)")
    p.add_argument("--queue-limit", type=int, default=8,
                   help="admitted-but-waiting requests beyond "
                   "--concurrency before shedding with 429 (default 8)")
    p.add_argument("--deadline", type=float, default=30.0,
                   help="default per-request deadline in seconds "
                   "(default 30)")
    p.add_argument("--max-deadline", type=float, default=120.0,
                   help="hard ceiling a request may ask for (default 120)")
    p.add_argument("--breaker-threshold", type=int, default=5,
                   help="consecutive backend failures that open the "
                   "circuit breaker (default 5)")
    p.add_argument("--breaker-cooldown", type=float, default=5.0,
                   help="seconds the breaker stays open before one "
                   "half-open trial (default 5)")
    p.add_argument("--jobs", type=int, default=2,
                   help="worker-pool size per request (default 2)")
    p.add_argument("--policy",
                   choices=["raise", "degrade-to-naive", "skip"],
                   default="degrade-to-naive",
                   help="per-function failure policy (default "
                   "degrade-to-naive: answer spill-all rather than 500)")
    p.add_argument("--bundle-dir", default=None,
                   help="write per-request crash bundles under "
                   "<dir>/request-<n>/")
    p.add_argument("--cache-dir", default=None,
                   help="attach the checksummed disk tier of the "
                   "response cache at this directory")
    p.add_argument("--allow-faults", action="store_true",
                   help="enable chaos fault injection (the 'fault' "
                   "request field); off by default — a production "
                   "server answers 403 to fault-carrying requests")
    p.add_argument("--journal", default=None, metavar="PATH",
                   help="journal admitted requests to a crash-safe WAL; "
                   "a restarted server replays the unanswered ones and "
                   "holds /readyz at 503 until the backlog drains")
    p.add_argument("--trace-dir", default=None, metavar="DIR",
                   dest="trace_dir",
                   help="spool each traced request's merged Chrome "
                   "trace to DIR/trace-<trace_id>.json (requests opt "
                   "in with \"trace\": true)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "tail",
        help="follow a live server's structured event ring "
        "(GET /events): admissions, sheds, breaker flips, degrades, "
        "pool restarts, repair summaries",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7632,
                   help="server port (default 7632)")
    p.add_argument("--follow", "-f", action="store_true",
                   help="poll forever instead of printing once; the "
                   "since= cursor guarantees each event prints exactly "
                   "once")
    p.add_argument("--interval", type=float, default=1.0,
                   help="poll interval in seconds with --follow "
                   "(default 1.0)")
    p.add_argument("--since", type=int, default=0,
                   help="only events with seq > SINCE (default 0: "
                   "everything still in the ring)")
    p.add_argument("--kind", default=None,
                   help="only events of this kind (e.g. breaker, "
                   "admission, shed)")
    p.add_argument("--limit", type=int, default=None,
                   help="at most N events per poll")
    p.set_defaults(func=cmd_tail)

    p = sub.add_parser(
        "chaos",
        help="replay a seeded fault storm against a live in-process "
        "server and assert no wrong answers, no leaked workers, "
        "bounded p99",
    )
    p.add_argument("--requests", type=int, default=40,
                   help="request-stream length (default 40)")
    p.add_argument("--seed", type=int, default=0,
                   help="stream seed; the whole storm replays from it "
                   "(default 0)")
    p.add_argument("--concurrency", type=int, default=4,
                   help="concurrent chaos clients (default 4)")
    p.add_argument("--deadline", type=float, default=10.0,
                   help="per-request deadline in seconds (default 10)")
    p.add_argument("--fault", action="append", default=None,
                   metavar="NAME[=RATE]",
                   help="enable one injected fault at RATE (default "
                   "rate if omitted; repeatable; default: the standard "
                   "mix — worker_crash, slow_request, cache_corrupt, "
                   "client_disconnect)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the chaos report as JSON ('-' for "
                   "stdout)")
    p.add_argument("--bundle-dir", default=None,
                   help="write per-request crash bundles for degraded "
                   "allocations under <dir>/request-<n>/, plus the "
                   "storm.json manifest --replay consumes")
    p.add_argument("--replay", default=None, metavar="BUNDLE",
                   help="re-run the exact storm recorded in BUNDLE's "
                   "storm.json (a chaos --bundle-dir artifact); "
                   "overrides the tuning flags")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "torture",
        help="SIGKILL a supervised allocation at seeded journal appends "
        "and prove it resumes to a bit-identical result",
    )
    p.add_argument("file", nargs="?", default=None,
                   help="mini-FORTRAN file to torture (default: the "
                   "quicksort workload)")
    p.add_argument("--workload", action="append", default=None,
                   metavar="NAME",
                   help="torture a registry workload (repeatable; see "
                   "'repro workloads')")
    p.add_argument("--method", default="briggs",
                   choices=["chaitin", "briggs", "briggs-degree",
                            "spill-all", "repair"])
    p.add_argument("--kills", type=int, default=10,
                   help="seeded SIGKILL points to schedule (default 10)")
    p.add_argument("--seed", type=int, default=0,
                   help="schedule seed; same seed replays the exact "
                   "same storm (default 0)")
    p.add_argument("--step-max", type=int, default=4, dest="step_max",
                   help="max journal appends between kill points "
                   "(min 2; default 4)")
    p.add_argument("--torn-rate", type=float, default=0.34,
                   dest="torn_rate",
                   help="fraction of deaths that land mid-record, "
                   "leaving a torn tail (default 0.34)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers inside the tortured child "
                   "(default 1)")
    p.add_argument("--journal", default=None, metavar="PATH",
                   help="journal file (default: a temp file, removed "
                   "afterwards)")
    p.add_argument("--max-restarts", type=int, default=None,
                   help="supervisor restart budget (default kills + 2)")
    p.add_argument("--bundle-dir", default=None,
                   help="crash-bundle directory for degraded "
                   "allocations")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the torture report as JSON ('-' for "
                   "stdout)")
    add_target_flags(p)
    p.set_defaults(func=cmd_torture)

    p = sub.add_parser(
        "gc",
        help="sweep crash/fuzz/request bundles and cache quarantine",
    )
    p.add_argument("--results", default="results", metavar="DIR",
                   help="bundle tree to sweep (default results/)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="disk-cache root whose quarantine/ to cap")
    p.add_argument("--keep", type=int, default=16,
                   help="newest artifacts retained per category "
                   "(default 16)")
    p.add_argument("--max-age-days", type=float, default=None,
                   dest="max_age_days",
                   help="also remove artifacts older than this many "
                   "days, even within the keep window")
    p.add_argument("--dry-run", action="store_true",
                   help="report what would be removed; delete nothing")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the GC report as JSON ('-' for stdout)")
    p.set_defaults(func=cmd_gc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
