"""The answer manifest: every registry program's allocation, pinned.

``answers.txt`` holds one line per registry program × target (``rt_pc()``
and the paper's 12/6 ``EXPERIMENT_TARGET``) × method (``briggs``,
``chaitin``, ``briggs-degree``, ``repair``) × ``coalesce`` setting
(``True``, ``False``, ``"conservative"``)::

    <program> <target> <method> coalesce=<setting> <answer>

The answer is a sha256 over, for each allocated function in module order,
its name, its wire text (spill code included), the sorted
``(class, vreg id, color)`` triples of its assignment, and its pass count,
first-pass spill count and total spill count.  A configuration that raises
a :class:`~repro.errors.ReproError` records ``<ErrorType>: <message>`` as
its answer instead, so a configuration that starts or stops failing shows
up as a changed line.

``briggs`` with default coalescing (both targets, 14 lines) runs in the
fast suite; the whole matrix is @slow.  A change that is meant to change
answers rewrites the file with::

    PYTHONPATH=src python -m tests.regalloc.test_answers

and lists ``git diff tests/regalloc/answers.txt`` in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.experiments.runner import EXPERIMENT_TARGET
from repro.ir.wire import encode_function
from repro.machine.target import rt_pc
from repro.regalloc import allocate_module
from repro.workloads import all_workloads, get_workload

MANIFEST = Path(__file__).with_name("answers.txt")

TARGETS = {"rt_pc": rt_pc(), "12/6": EXPERIMENT_TARGET}
METHODS = ("briggs", "chaitin", "briggs-degree", "repair")
COALESCE = (True, False, "conservative")


def configurations() -> list:
    """``(program, target label, method, coalesce)`` in manifest order."""
    return [
        (program, target, method, coalesce)
        for program in all_workloads()
        for target in TARGETS
        for method in METHODS
        for coalesce in COALESCE
    ]


def key(config) -> str:
    program, target, method, coalesce = config
    return f"{program} {target} {method} coalesce={coalesce}"


def answer(config) -> str:
    """The digest of one configuration's allocation, or its error."""
    program, target, method, coalesce = config
    module = get_workload(program).compile()
    try:
        allocation = allocate_module(
            module, TARGETS[target], method, coalesce=coalesce
        )
    except ReproError as error:
        return f"{type(error).__name__}: {error}"
    digest = hashlib.sha256()
    for name, result in allocation.results.items():
        triples = sorted(
            (vreg.rclass.value, vreg.id, color)
            for vreg, color in result.assignment.items()
        )
        stats = result.stats
        digest.update(repr((
            name,
            encode_function(result.function),
            triples,
            stats.pass_count,
            stats.registers_spilled,
            stats.total_registers_spilled,
        )).encode("utf-8"))
    return digest.hexdigest()


def read_manifest() -> dict:
    entries = {}
    for line in MANIFEST.read_text(encoding="utf-8").splitlines():
        program, target, method, coalesce, recorded = line.split(" ", 4)
        entries[f"{program} {target} {method} {coalesce}"] = recorded
    return entries


def _is_fast(config) -> bool:
    return config[2] == "briggs" and config[3] is True


def test_manifest_lists_every_configuration_once():
    lines = MANIFEST.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(configurations()) == 168
    assert list(read_manifest()) == [key(c) for c in configurations()]


@pytest.mark.parametrize("config", [
    pytest.param(
        config, id=key(config).replace(" ", "-"),
        marks=() if _is_fast(config) else pytest.mark.slow,
    )
    for config in configurations()
])
def test_answer_matches_manifest(config):
    assert answer(config) == read_manifest()[key(config)]


if __name__ == "__main__":
    MANIFEST.write_text(
        "".join(f"{key(c)} {answer(c)}\n" for c in configurations()),
        encoding="utf-8",
    )
    print(f"wrote {len(configurations())} answers to {MANIFEST}")
