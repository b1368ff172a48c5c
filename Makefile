# Convenience targets for the repro repo.
#
#   make test          — the tier-1 verify command (everything, fail-fast)
#   make test-fast     — sub-minute inner loop (skips @slow experiment
#                        regenerations, workload simulations, differentials)
#   make verify-faults — sweep the fault-injection registry (every fault
#                        must be detected or visibly degraded) and run
#                        the robustness, fault-injection and worker-pool
#                        suites (@slow tests included)
#   make fuzz          — bounded smoke-fuzz campaign: fixed seed, both
#                        allocators under full paranoia, exact oracles,
#                        minimizing shrinker; bundles in results/fuzz/
#   make trace         — allocate $(TRACE_WORKLOAD) with tracing on; the
#                        Chrome trace + metrics land in results/
#   make serve         — run the hardened allocation daemon (NDJSON +
#                        HTTP probes) with the disk cache in results/rc
#   make chaos         — seeded fault storm against a live in-process
#                        server: no wrong answers, no leaked workers,
#                        bounded p99; crash bundles in results/chaos
#   make torture       — kill-torture: SIGKILL a supervised allocation at
#                        $(TORTURE_KILLS) seeded journal appends and
#                        require the resumed result byte-identical to an
#                        unkilled serial reference
#   make gc            — retention sweep of results/ debris (crash/fuzz/
#                        request bundles, cache quarantine): keep the
#                        newest $(GC_KEEP) artifacts per category

PYTHON ?= python
FUZZ_SEED ?= 0
FUZZ_ITERS ?= 150
TRACE_WORKLOAD ?= quicksort
CHAOS_REQUESTS ?= 24
CHAOS_SEED ?= 0
TORTURE_KILLS ?= 10
TORTURE_SEED ?= 0
GC_KEEP ?= 16

.PHONY: test test-fast verify-faults fuzz trace serve chaos torture gc

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

test-fast:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q -m "not slow"

verify-faults:
	PYTHONPATH=src $(PYTHON) -m repro verify --inject all
	PYTHONPATH=src $(PYTHON) -m pytest -x -q \
		tests/robustness tests/properties/test_fault_injection.py \
		tests/regalloc/test_pool.py

fuzz:
	PYTHONPATH=src $(PYTHON) -m repro fuzz --seed $(FUZZ_SEED) \
		--iters $(FUZZ_ITERS) --bundle-dir results/fuzz

trace:
	PYTHONPATH=src $(PYTHON) -m repro trace $(TRACE_WORKLOAD) \
		--out results/trace-$(TRACE_WORKLOAD).json \
		--metrics results/metrics-$(TRACE_WORKLOAD).json

serve:
	PYTHONPATH=src $(PYTHON) -m repro serve --cache-dir results/rc

chaos:
	PYTHONPATH=src $(PYTHON) -m repro chaos --requests $(CHAOS_REQUESTS) \
		--seed $(CHAOS_SEED) --bundle-dir results/chaos

torture:
	PYTHONPATH=src $(PYTHON) -m repro torture --workload linpack \
		--workload svd --workload quicksort --step-max 2 \
		--kills $(TORTURE_KILLS) --seed $(TORTURE_SEED)

gc:
	PYTHONPATH=src $(PYTHON) -m repro gc --results results \
		--keep $(GC_KEEP)
