"""Compact line-oriented wire format for shipping IR between processes.

The textual printer/parser (:mod:`repro.ir.printer` /
:mod:`repro.ir.parser`) round-trips the IR for humans; this module is the
machine-to-machine sibling the persistent worker pool
(:mod:`repro.regalloc.pool`) puts on the wire.  It differs from the
pretty printer in three ways:

* **terse** — operands are bare vreg ids (the register class lives in
  one shared register table per function), opcodes carry no punctuation,
  and the operand arity comes from :data:`repro.ir.instructions.OPCODES`
  instead of being re-stated per line.  The encoding is a fraction of
  the size of a pickled :class:`~repro.ir.function.Function` and decodes
  without importing any allocator state (docs/PERFORMANCE.md compares
  its size and codec speed with pickle's);
* **lossless** — unlike the pretty printer it preserves *all* function
  state the allocator and the downstream consumers (simulator, encoder)
  depend on: spill-temp flags, the spill-slot count, the label counter
  (so transforms that create blocks in a worker generate the same labels
  the serial path would), and the exact virtual-register table order;
* **self-delimiting** — a function ends with a ``.`` line, so responses
  can be streamed or concatenated.

Grammar (one record per line, fields space-separated)::

    F <name> <result:i|f|-> <spill_slots> <next_label>
    A <name> <size>            # frame arrays, insertion order (0+ lines)
    V <tok> <tok> ...          # full vreg table, list order preserved
    P <id> <id> ...            # parameter vreg ids (omitted when none)
    :<label>                   # basic block starts
    <op> <operands...>         # instructions (see _encode_instr)
    .

A vreg token is ``<class><id>`` (``i4``, ``f7``) with an optional
``:name`` when the name hint is not the default ``t`` and a ``!`` suffix
marking a spill temporary: ``i12:n``, ``f3!``.

:func:`function_fingerprint` hashes every encoded fact into one
comparable tuple — the equality the round-trip property tests assert,
and the content-address the worker pool's response cache keys on.
"""

from __future__ import annotations

from repro.errors import IRError
from repro.ir.basicblock import Block
from repro.ir.function import Function
from repro.ir.instructions import Instr, OPCODES, RELOPS
from repro.ir.module import FunctionSignature, Module
from repro.ir.values import RClass, VReg

#: Wire-format version, first token of :func:`encode_function` output.
WIRE_VERSION = 1


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


def _vreg_token(vreg: VReg) -> str:
    token = f"{vreg.rclass.value}{vreg.id}"
    if vreg.name and vreg.name != "t":
        token += f":{vreg.name}"
    if vreg.is_spill_temp:
        token += "!"
    return token


def _encode_imm(imm) -> str:
    """Immediates as ``repr`` — exact for ints and round-trips floats.
    Symbol immediates (frame-array names, ``\\w`` only) go bare."""
    if isinstance(imm, str):
        return imm
    return repr(imm)


def _encode_instr(instr: Instr) -> str:
    op = instr.op
    if op in ("cbr", "fcbr"):
        return (
            f"{op} {instr.relop} {instr.uses[0].id} {instr.uses[1].id} "
            f"{instr.targets[0]} {instr.targets[1]}"
        )
    if op == "jmp":
        return f"jmp {instr.targets[0]}"
    if op == "call":
        ids = [str(v.id) for v in instr.defs] + [str(v.id) for v in instr.uses]
        head = f"call {instr.callee} {len(instr.defs)}"
        return f"{head} {' '.join(ids)}" if ids else head
    parts = [op]
    parts.extend(str(v.id) for v in instr.defs)
    parts.extend(str(v.id) for v in instr.uses)
    if instr.imm is not None:
        parts.append(_encode_imm(instr.imm))
    return " ".join(parts)


def encode_function(function: Function) -> str:
    """Encode one function as compact wire text."""
    result = function.result_class.value if function.result_class else "-"
    lines = [
        f"F {function.name} {result} {function.spill_slots} "
        f"{function._next_label}"
    ]
    for array in function.frame_arrays.values():
        lines.append(f"A {array.name} {array.size}")
    if function.vregs:
        lines.append("V " + " ".join(_vreg_token(v) for v in function.vregs))
    if function.params:
        lines.append("P " + " ".join(str(p.id) for p in function.params))
    for block in function.blocks:
        lines.append(f":{block.label}")
        for instr in block.instrs:
            lines.append(_encode_instr(instr))
    lines.append(".")
    return "\n".join(lines) + "\n"


def encode_module(module: Module) -> str:
    """Encode a whole module (header line + concatenated functions)."""
    entry = module.entry or "-"
    lines = [f"M {WIRE_VERSION} {module.name} {entry}"]
    for function in module:
        lines.append(encode_function(function))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


_RCLASS_BY_CODE = {"i": RClass.INT, "f": RClass.FLOAT}

#: op -> (def count, use count, imm kind, variadic) for the fast decoder.
_OP_SHAPE = {
    name: (
        len(spec.def_classes),
        len(spec.use_classes),
        spec.imm_kind,
        spec.variadic,
    )
    for name, spec in OPCODES.items()
}


def _raw_instr(op, defs, uses, imm=None, targets=(), relop=None,
               callee=None) -> Instr:
    """Construct an Instr without re-running operand validation.

    Wire text is produced by :func:`encode_function` from instructions
    that already passed :meth:`Instr._check`; re-validating every line
    on decode would double the cost of the hot transport path.  Shape
    errors in hand-written wire text still surface as :class:`IRError`
    from the decoder's own field parsing.
    """
    instr = Instr.__new__(Instr)
    instr.op = op
    instr.defs = defs
    instr.uses = uses
    instr.imm = imm
    instr.targets = list(targets)
    instr.relop = relop
    instr.callee = callee
    return instr


def _decode_vreg_token(token: str) -> VReg:
    spill = token.endswith("!")
    if spill:
        token = token[:-1]
    body, _, name = token.partition(":")
    try:
        rclass = _RCLASS_BY_CODE[body[0]]
        vid = int(body[1:])
    except (KeyError, ValueError, IndexError):
        raise IRError(f"bad wire vreg token {token!r}") from None
    return VReg(vid, rclass, name or "t", spill)


class _Decoder:
    """Decodes one function; owns the id -> VReg table."""

    def __init__(self, header_fields: list):
        if len(header_fields) != 5:
            raise IRError(f"bad wire function header {header_fields!r}")
        _tag, name, result, spill_slots, next_label = header_fields
        result_class = None if result == "-" else RClass(result)
        self.function = Function(name, result_class)
        self.function.spill_slots = int(spill_slots)
        self.function._next_label = int(next_label)
        self.by_id: dict = {}
        self.block: Block | None = None

    def vreg(self, token: str) -> VReg:
        try:
            return self.by_id[int(token)]
        except (KeyError, ValueError):
            raise IRError(f"unknown wire vreg id {token!r}") from None

    def feed(self, line: str) -> bool:
        """Consume one line; returns True once the function is complete."""
        if line == ".":
            return True
        kind = line[0]
        if kind == "A":
            _tag, name, size = line.split()
            self.function.add_frame_array(name, int(size))
        elif kind == "V":
            for token in line.split()[1:]:
                vreg = _decode_vreg_token(token)
                if vreg.id in self.by_id:
                    raise IRError(f"duplicate wire vreg id {vreg.id}")
                self.by_id[vreg.id] = vreg
                self.function.vregs.append(vreg)
        elif kind == "P":
            self.function.params.extend(
                self.vreg(token) for token in line.split()[1:]
            )
        elif kind == ":":
            self.block = self.function.add_block(Block(line[1:]))
        else:
            if self.block is None:
                raise IRError(f"wire instruction before first block: {line!r}")
            self.block.append(self._decode_instr(line))
        return False

    def _decode_instr(self, line: str) -> Instr:
        fields = line.split()
        op = fields[0]
        by_id = self.by_id
        if op in ("cbr", "fcbr"):
            if len(fields) != 6 or fields[1] not in RELOPS:
                raise IRError(f"bad wire branch {line!r}")
            return _raw_instr(
                op, [],
                [by_id[int(fields[2])], by_id[int(fields[3])]],
                relop=fields[1],
                targets=[fields[4], fields[5]],
            )
        if op == "jmp":
            return _raw_instr("jmp", [], [], targets=[fields[1]])
        if op == "call":
            callee, ndefs = fields[1], int(fields[2])
            operands = [by_id[int(token)] for token in fields[3:]]
            return _raw_instr(
                "call", operands[:ndefs], operands[ndefs:], callee=callee
            )
        shape = _OP_SHAPE.get(op)
        if shape is None:
            raise IRError(f"unknown wire opcode in {line!r}")
        ndefs, nuses, imm_kind, variadic = shape
        try:
            defs = [by_id[int(t)] for t in fields[1:1 + ndefs]]
            if variadic:  # ret: 0 or 1 use, never an immediate
                return _raw_instr(op, defs, [by_id[int(t)]
                                             for t in fields[1 + ndefs:]])
            cursor = 1 + ndefs
            uses = [by_id[int(t)] for t in fields[cursor:cursor + nuses]]
            cursor += nuses
            imm = None
            if cursor < len(fields):
                token = fields[cursor]
                if imm_kind == "float":
                    imm = float(token)
                elif imm_kind in ("int", "slot"):
                    imm = int(token)
                elif imm_kind == "symbol":
                    imm = token.strip("'")
                else:
                    raise IRError(f"unexpected wire immediate in {line!r}")
        except (KeyError, ValueError):
            raise IRError(f"malformed wire instruction {line!r}") from None
        return _raw_instr(op, defs, uses, imm=imm)


def decode_function(text: str) -> Function:
    """Decode :func:`encode_function` output back into a Function."""
    decoder = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if decoder is None:
            if not line.startswith("F "):
                raise IRError(f"wire text does not start with 'F': {line!r}")
            decoder = _Decoder(line.split())
            continue
        if decoder.feed(line):
            return decoder.function
    raise IRError("unterminated wire function (missing '.')")


def decode_module(text: str) -> Module:
    """Decode :func:`encode_module` output; signatures are rebuilt from
    each function's parameter classes, as :func:`repro.ir.parser
    .parse_module` does."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("M "):
        raise IRError("wire text does not start with a module header")
    _tag, version, name, entry = lines[0].split()
    if int(version) != WIRE_VERSION:
        raise IRError(f"unsupported wire version {version}")
    module = Module(name)
    module.entry = None if entry == "-" else entry
    decoder = None
    for line in lines[1:]:
        if decoder is None:
            if not line.startswith("F "):
                raise IRError(f"expected wire function header, got {line!r}")
            decoder = _Decoder(line.split())
            continue
        if decoder.feed(line):
            function = decoder.function
            module.add_function(
                function,
                FunctionSignature(
                    function.name,
                    [p.rclass for p in function.params],
                    function.result_class,
                ),
            )
            decoder = None
    if decoder is not None:
        raise IRError("unterminated wire function (missing '.')")
    return module


# ----------------------------------------------------------------------
# Structural equality
# ----------------------------------------------------------------------


def function_fingerprint(function: Function) -> tuple:
    """A hashable digest of everything the wire format carries.

    Two functions with equal fingerprints are interchangeable for every
    consumer in the repository: same IR, same register table (ids,
    classes, name hints, spill-temp flags, order), same frame layout and
    label counter.  The round-trip property is
    ``function_fingerprint(decode_function(encode_function(f))) ==
    function_fingerprint(f)``; the worker pool's response cache uses the
    encoded text itself (a superset of this digest) as its key.
    """
    return (
        function.name,
        function.result_class,
        function.spill_slots,
        function._next_label,
        tuple(
            (a.name, a.offset, a.size) for a in function.frame_arrays.values()
        ),
        tuple(p.id for p in function.params),
        tuple(
            (v.id, v.rclass, v.name, v.is_spill_temp) for v in function.vregs
        ),
        tuple(
            (
                block.label,
                tuple(
                    (
                        instr.op,
                        tuple(d.id for d in instr.defs),
                        tuple(u.id for u in instr.uses),
                        instr.imm,
                        tuple(instr.targets),
                        instr.relop,
                        instr.callee,
                    )
                    for instr in block.instrs
                ),
            )
            for block in function.blocks
        ),
    )


def module_fingerprint(module: Module) -> tuple:
    return (
        module.name,
        module.entry,
        tuple(function_fingerprint(f) for f in module),
    )
