"""The repository benchmark: ``python3 perfbench/run.py --workload NAME``.

See ``perfbench/README.md`` for the workloads, the metrics and how to run
them.  Nothing under ``src/`` knows about this package; per-layer numbers
come from wrappers the benchmark installs around public entry points
(:mod:`perfbench.layers`) and from the program's own ``tracer=`` /
``"trace": true`` hooks.
"""
