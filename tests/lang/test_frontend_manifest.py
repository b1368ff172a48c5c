"""The front-end manifest: every token stream and every module's IR, pinned.

``frontend_manifest.txt`` holds one line per source::

    <label> <tokens> <ir>

The sources are the seven registry programs (labelled by name),
``generate_program(seed)`` for seeds 0-99 (``gen-<seed>``), and 200 seeded
one-character edits of those sources (``edit-<n>-<source>-<op>-<offset>``,
plus the inserted or replacing character's code point).  ``<tokens>`` is a
sha256 over every token's kind, value, line and column; ``<ir>`` is a
sha256 over the module's wire text, every function included.  A source
that fails to compile records the first error in place of ``<ir>``, or in
place of both digests when lexing fails, as ``<ErrorType>: <file>:<line>:
<column>: <message>``.

The whole manifest runs in the fast suite.  A change that is meant to
change the front end's output rewrites the file with::

    PYTHONPATH=src python -m tests.lang.test_frontend_manifest

and lists ``git diff tests/lang/frontend_manifest.txt`` in CHANGES.md.
"""

import functools
import hashlib
import random
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.frontend import compile_source
from repro.ir.wire import encode_module
from repro.lang.lexer import tokenize
from repro.workloads import all_workloads, get_workload
from repro.workloads.synth import generate_program

MANIFEST = Path(__file__).with_name("frontend_manifest.txt")

GENERATED_SEEDS = range(100)
EDITS = 200

#: What an edit inserts or substitutes: letters that start keywords,
#: dotted operators and exponents, digits, every symbol, the comment,
#: continuation and separator characters, blanks, and two characters
#: the lexer rejects.
_EDIT_ALPHABET = "aedgiklnotxAEDKT019_.+-*/=<>(),:;!& \t\r\n@$"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _describe(error: ReproError) -> str:
    return f"{type(error).__name__}: {error}"


def answer(source: str) -> str:
    """``<tokens> <ir>`` for ``source``, with an error in place of a
    digest that could not be computed."""
    try:
        tokens = tokenize(source, "module")
    except ReproError as error:
        return _describe(error)
    stream = _digest(repr([
        (t.kind.name, t.value, t.location.line, t.location.column)
        for t in tokens
    ]))
    try:
        module = compile_source(source, "module")
    except ReproError as error:
        return f"{stream} {_describe(error)}"
    return f"{stream} {_digest(encode_module(module))}"


def _edit(rng: random.Random, n: int, label: str, text: str):
    op = rng.choice(("replace", "insert", "delete"))
    offset = rng.randrange(len(text) + (op == "insert"))
    char = "" if op == "delete" else rng.choice(_EDIT_ALPHABET)
    edited = text[:offset] + char + text[offset + (op != "insert"):]
    key = f"edit-{n:03d}-{label}-{op}-{offset}"
    if char:
        key += f"-{ord(char):#04x}"
    return key, edited


@functools.lru_cache(maxsize=None)
def sources() -> dict:
    """Label -> source text, in manifest order, grouped as
    ``{"registry": ..., "generated": ..., "edited": ...}``."""
    registry = {name: get_workload(name).source for name in all_workloads()}
    generated = {f"gen-{seed}": generate_program(seed)
                 for seed in GENERATED_SEEDS}
    bases = {**registry, **generated}
    labels = list(bases)
    rng = random.Random(0)
    edited = {}
    for n in range(EDITS):
        label = rng.choice(labels)
        key, text = _edit(rng, n, label, bases[label])
        edited[key] = text
    return {"registry": registry, "generated": generated, "edited": edited}


def all_sources() -> dict:
    return {label: text for group in sources().values()
            for label, text in group.items()}


def read_manifest() -> dict:
    entries = {}
    for line in MANIFEST.read_text(encoding="utf-8").splitlines():
        label, recorded = line.split(" ", 1)
        entries[label] = recorded
    return entries


def test_manifest_lists_every_source_once():
    lines = MANIFEST.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 7 + len(GENERATED_SEEDS) + EDITS
    assert list(read_manifest()) == list(all_sources())


@pytest.mark.parametrize("group", ["registry", "generated", "edited"])
def test_front_end_matches_manifest(group):
    recorded = read_manifest()
    changed = [
        label for label, source in sources()[group].items()
        if answer(source) != recorded[label]
    ]
    assert not changed, (
        f"{len(changed)} of {len(sources()[group])} {group} sources lex or "
        f"compile differently from the manifest: {changed[:10]}"
    )


if __name__ == "__main__":
    every = all_sources()
    MANIFEST.write_text(
        "".join(f"{label} {answer(text)}\n" for label, text in every.items()),
        encoding="utf-8",
    )
    print(f"wrote {len(every)} answers to {MANIFEST}")
