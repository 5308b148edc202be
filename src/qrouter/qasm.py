"""Minimal OpenQASM 2.0 reader/writer and a directed-coupling-map transpiler.

Supported statements: the ``OPENQASM 2.0;`` header, ``include`` (ignored),
one ``qreg`` and one ``creg``, the fixed gate set (h/x/s/sdg/t/tdg/cx),
``measure`` and ``barrier``, with ``//`` comments. Everything else is a
positioned parse error; the parser never raises anything but ``QasmError``
subclasses on malformed text. ``_read`` defines the language: it reads the
source token by token and returns the circuit or words the error at a 1-based
line and column. ``parse`` itself reads only the text ``serialize`` writes for
a circuit of gates alone; every other source is read, or rejected, by ``_read``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .gates import GATE_ARITY, GATE_MATRICES, Circuit, Instruction
from .qstate import _check_qubits, _is_int


class QasmError(Exception):
    """Base for all parse errors; carries 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class QasmSyntaxError(QasmError):
    pass


class MissingHeaderError(QasmError):
    pass


class UnknownGateError(QasmError):
    pass


class IndexOutOfRangeError(QasmError):
    pass


class DuplicateRegisterError(QasmError):
    pass


class UnroutableCnotError(Exception):
    """CNOT whose qubit pair is adjacent in neither direction on the map."""

    def __init__(self, control: int, target: int):
        super().__init__(f"no coupling-map edge between qubits {control} and {target}")
        self.control = control
        self.target = target


# The text ``serialize`` writes for a circuit of gates alone: the header, the
# include, a register of n >= 1 qubits with no leading zero, and one line per
# gate, each one name and one or two operands.
_GATE_LINE = r"([a-z]+) q\[([0-9]+)\](?:, q\[([0-9]+)\])?;\n"
_SERIALIZED_RE = re.compile(
    r'OPENQASM 2\.0;\ninclude "qelib1\.inc";\nqreg q\[([1-9][0-9]*)\];\n' f"((?:{_GATE_LINE})*)"
)
_GATE_LINE_RE = re.compile(_GATE_LINE)


def parse(src: str) -> Circuit:
    """Parse QASM source into a Circuit; raises positioned QasmError on failure.

    ``parse`` reads only the text ``serialize`` writes for a circuit of gates
    alone: one ``fullmatch`` checks it, and one ``findall`` over its gate lines
    feeds ``Circuit.add``. Every other source, and matched text whose numbers
    ``int()`` cannot read or whose gates the circuit refuses, is read whole by
    ``_read``, which defines the language: it returns the circuit or raises the
    positioned error.
    """
    m = _SERIALIZED_RE.fullmatch(src)
    if m:
        try:
            circuit = Circuit(int(m[1]))
            for name, a, b in _GATE_LINE_RE.findall(src, m.start(2)):
                if b:
                    circuit.add(name, int(a), int(b))
                else:
                    circuit.add(name, int(a))
            return circuit
        except ValueError:  # past the digit limit, an unknown gate, a qubit refused
            pass
    return _read(src)


# The reader's tokens: one named group per kind, whitespace and comments included.
_READ_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>//[^\n]*)
      | (?P<num>[0-9]+(\.[0-9]+)?)
      | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<str>"[^"\n]*")
      | (?P<arrow>->)
      | (?P<sym>[\[\];,])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _position(src: str, off: int) -> tuple[int, int]:
    """1-based (line, col) of ``off``; end of input is column 1 of the last line."""
    line = src.count("\n", 0, off) + 1
    return line, (off - src.rfind("\n", 0, off) if off < len(src) else 1)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """``(kind, text, offset)`` tokens, closed by an ``end`` token at ``len(src)``."""
    tokens = []
    for m in _READ_TOKEN_RE.finditer(src):
        kind = m.lastgroup
        if kind == "bad":
            raise QasmSyntaxError(f"unexpected character {m.group()!r}", *_position(src, m.start()))
        if kind != "ws" and kind != "comment":
            tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "end of input", len(src)))
    return tokens


def _read(src: str) -> Circuit:
    """The definition of the language: one ``(kind, text, offset)`` tuple per
    token, then one ``take`` call per token; raises positioned QasmError on
    failure."""
    tokens = _tokenize(src)
    if tokens[0][:2] != ("id", "OPENQASM"):
        raise MissingHeaderError(
            "program must start with 'OPENQASM 2.0;'", *_position(src, tokens[0][2])
        )
    i = 1

    def take(what: str, kind: str | None = None) -> tuple[str, int]:
        """Next token's text and offset; it must be of ``kind``, else have the text ``what``."""
        nonlocal i
        k, text, off = tokens[i]
        if (k != kind) if kind else (text != what):
            raise QasmSyntaxError(f"expected {what!r}, got {text!r}", *_position(src, off))
        i += 1
        return text, off

    def bracketed(what: str) -> tuple[int, int]:
        """``[n]`` with an integer literal n: its value and offset."""
        take("[")
        text, off = take(what, "num")
        if "." in text:
            raise QasmSyntaxError(f"{what} must be an integer", *_position(src, off))
        take("]")
        try:
            return int(text), off
        except ValueError:  # past the interpreter's integer-string digit limit
            raise QasmSyntaxError(f"{what} has too many digits", *_position(src, off)) from None

    regs: dict[str, tuple[str, int]] = {}  # "qreg"/"creg" -> (name, size)

    def operand(kw: str) -> int:
        role = "quantum" if kw == "qreg" else "classical"
        name, off = take(f"{role} register operand", "id")
        if kw not in regs:
            raise QasmSyntaxError(f"no {role} register declared", *_position(src, off))
        reg, size = regs[kw]
        if name != reg:
            raise QasmSyntaxError(f"unknown register {name!r}", *_position(src, off))
        index, off = bracketed("index")
        if index >= size:
            raise IndexOutOfRangeError(
                f"index {index} out of range for {reg}[{size}]", *_position(src, off)
            )
        return index

    ver, off = take("version number", "num")
    if ver != "2.0":
        raise QasmSyntaxError(f"unsupported OPENQASM version {ver}", *_position(src, off))
    take(";")
    circuit = Circuit(0)
    while tokens[i][0] != "end":
        kind, kw, off = tokens[i]
        i += 1
        if kind != "id":
            raise QasmSyntaxError(f"expected a statement, got {kw!r}", *_position(src, off))
        if kw == "OPENQASM":
            raise QasmSyntaxError("duplicate OPENQASM header", *_position(src, off))
        if kw == "include":
            take("include filename", "str")
            take(";")
            continue
        if kw in ("qreg", "creg"):
            name, name_off = take("register name", "id")
            size, size_off = bracketed("register size")
            take(";")
            if size < 1:
                raise QasmSyntaxError("register size must be positive", *_position(src, size_off))
            if kw in regs:
                raise DuplicateRegisterError(
                    f"only one {kw} is supported", *_position(src, name_off)
                )
            regs[kw] = (name, size)
            setattr(circuit, "n_qubits" if kw == "qreg" else "n_clbits", size)
            continue
        if kw in GATE_MATRICES:
            qubits = [operand("qreg")]
            for _ in range(GATE_ARITY[kw] - 1):
                take(",")
                qubits.append(operand("qreg"))
            take(";")
            append, args = circuit.add, (kw, *qubits)
        elif kw == "measure":
            q = operand("qreg")
            take("->")
            append, args = circuit.measure, (q, operand("creg"))
            take(";")
        elif kw == "barrier":
            args = []
            if tokens[i][0] == "id":
                args.append(operand("qreg"))
                while tokens[i][1] == ",":
                    i += 1
                    args.append(operand("qreg"))
            take(";")
            append = circuit.barrier
        else:
            raise UnknownGateError(f"unknown gate or statement {kw!r}", *_position(src, off))
        try:
            append(*args)
        except ValueError as e:  # a qubit already measured, or a repeated operand
            raise QasmSyntaxError(str(e), *_position(src, off)) from None
    return circuit


def serialize(c: Circuit) -> str:
    """Canonical QASM text: one statement per line, single space after commas."""
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";']
    if c.n_qubits > 0:
        lines.append(f"qreg q[{c.n_qubits}];")
    if c.n_clbits > 0:
        lines.append(f"creg c[{c.n_clbits}];")
    for instr in c.instructions:
        ops = ", ".join(f"q[{q}]" for q in instr.qubits)
        if instr.name in GATE_MATRICES or instr.name == "barrier":
            lines.append(f"{instr.name} {ops};")
        elif instr.name == "measure":
            lines.append(f"measure {ops} -> c[{instr.clbits[0]}];")
        else:
            raise ValueError(f"cannot serialize instruction {instr.name!r}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CouplingMap:
    """Directed CNOT adjacency of a device: (control, target) pairs."""

    n_qubits: int
    edges: frozenset

    def __post_init__(self):
        for c, t in self.edges:
            if c == t:
                raise ValueError(f"self-edge on qubit {c}")
            if not (0 <= c < self.n_qubits and 0 <= t < self.n_qubits):
                raise ValueError(f"edge ({c}, {t}) outside register of {self.n_qubits}")


# ibmqx4 native CNOT directions
IBMQX4_COUPLING = CouplingMap(
    5, frozenset({(1, 0), (2, 0), (2, 1), (2, 4), (3, 2), (3, 4)})
)


class CouplingMapError(ValueError):
    """A coupling-map file that does not have the expected structure."""


def coupling_map_from_json(data) -> CouplingMap:
    """Load ``{"n_qubits": n, "edges": [[c, t], ...]}`` (dict or JSON text)."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise CouplingMapError("coupling map must be a JSON object")
    n = data.get("n_qubits")
    if not (_is_int(n) and n >= 1):
        raise CouplingMapError(f"coupling map needs a positive integer 'n_qubits', not {n!r}")
    edges = data.get("edges")
    if not isinstance(edges, (list, tuple)):
        raise CouplingMapError("coupling map needs an 'edges' list")
    for i, edge in enumerate(edges):
        if not (isinstance(edge, (list, tuple)) and len(edge) == 2 and all(map(_is_int, edge))):
            raise CouplingMapError(f"coupling map edges[{i}] is not a pair of integers: {edge!r}")
    return CouplingMap(n, frozenset(tuple(e) for e in edges))


def transpile(c: Circuit, cmap: CouplingMap) -> Circuit:
    """Legalize CNOT directions against ``cmap``.

    A CNOT on a native edge passes through; one whose reverse is native is
    conjugated with Hadamards; anything else raises (no swap routing).
    """
    if c.n_qubits > cmap.n_qubits:
        raise ValueError(
            f"circuit has {c.n_qubits} qubits but the map only {cmap.n_qubits}"
        )
    out = Circuit(c.n_qubits, c.n_clbits, name=c.name)
    for instr in c.instructions:
        if instr.name == "cx":
            ctl, tgt = instr.qubits
            if (ctl, tgt) in cmap.edges:
                out.add("cx", ctl, tgt)
            elif (tgt, ctl) in cmap.edges:
                out.add("h", ctl)
                out.add("h", tgt)
                out.add("cx", tgt, ctl)
                out.add("h", ctl)
                out.add("h", tgt)
            else:
                raise UnroutableCnotError(ctl, tgt)
        else:
            out.append(instr)
    return out


def apply_layout(c: Circuit, layout, n_qubits: int) -> Circuit:
    """Relabel logical qubit i to physical qubit ``layout[i]`` (``_check_qubits``'s rule)."""
    layout = list(layout)
    if len(layout) != c.n_qubits:
        raise ValueError(f"layout must list {c.n_qubits} physical qubits")
    _check_qubits(layout, n_qubits)
    out = Circuit(n_qubits, c.n_clbits, name=c.name)
    for instr in c.instructions:
        out.append(Instruction(instr.name, tuple([layout[q] for q in instr.qubits]), instr.clbits))
    return out
