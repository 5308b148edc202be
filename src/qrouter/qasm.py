"""Minimal OpenQASM 2.0 reader/writer and a directed-coupling-map transpiler.

Supported statements: the ``OPENQASM 2.0;`` header, ``include`` (ignored),
one ``qreg`` and one ``creg``, the fixed gate set (h/x/s/sdg/t/tdg/cx),
``measure`` and ``barrier``, with ``//`` comments. Everything else is a
positioned parse error; the parser never raises anything but ``QasmError``
subclasses on malformed text.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .gates import GATE_ARITY, GATE_MATRICES, Circuit


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


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>//[^\n]*)
      | (?P<num>\d+(\.\d+)?)
      | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<str>"[^"\n]*")
      | (?P<arrow>->)
      | (?P<sym>[\[\];,])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(src):
        kind = m.lastgroup
        text = m.group()
        if kind == "bad":
            raise QasmSyntaxError(f"unexpected character {text!r}", line, col)
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], end_line: int):
        self.tokens = tokens
        self.pos = 0
        self.end_line = end_line

    def _here(self):
        if self.pos < len(self.tokens):
            t = self.tokens[self.pos]
            return t.line, t.col
        return self.end_line, 1

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> _Token:
        t = self.peek()
        if t is None:
            line, col = self._here()
            raise QasmSyntaxError("unexpected end of input", line, col)
        self.pos += 1
        return t

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> _Token:
        t = self.peek()
        if t is None or t.kind != kind or (text is not None and t.text != text):
            line, col = self._here()
            want = what or (text if text is not None else kind)
            got = t.text if t is not None else "end of input"
            raise QasmSyntaxError(f"expected {want!r}, got {got!r}", line, col)
        self.pos += 1
        return t


def parse(src: str) -> Circuit:
    """Parse QASM source into a Circuit; raises positioned QasmError on failure."""
    tokens = _tokenize(src)
    p = _Parser(tokens, src.count("\n") + 1)

    first = p.peek()
    if first is None or not (first.kind == "id" and first.text == "OPENQASM"):
        line, col = p._here()
        raise MissingHeaderError("program must start with 'OPENQASM 2.0;'", line, col)
    p.take()
    ver = p.expect("num", what="version number")
    if ver.text != "2.0":
        raise QasmSyntaxError(f"unsupported OPENQASM version {ver.text}", ver.line, ver.col)
    p.expect("sym", ";")

    qreg: tuple[str, int] | None = None
    creg: tuple[str, int] | None = None
    circuit = Circuit(0)

    def operand(expect_reg: tuple[str, int] | None, reg_role: str) -> int:
        name = p.expect("id", what=f"{reg_role} register operand")
        if expect_reg is None:
            raise QasmSyntaxError(f"no {reg_role} register declared", name.line, name.col)
        if name.text != expect_reg[0]:
            raise QasmSyntaxError(f"unknown register {name.text!r}", name.line, name.col)
        p.expect("sym", "[")
        idx = p.expect("num", what="index")
        if "." in idx.text:
            raise QasmSyntaxError("index must be an integer", idx.line, idx.col)
        p.expect("sym", "]")
        i = int(idx.text)
        if i >= expect_reg[1]:
            raise IndexOutOfRangeError(
                f"index {i} out of range for {expect_reg[0]}[{expect_reg[1]}]",
                idx.line,
                idx.col,
            )
        return i

    while p.peek() is not None:
        t = p.take()
        if t.kind != "id":
            raise QasmSyntaxError(f"expected a statement, got {t.text!r}", t.line, t.col)
        kw = t.text

        if kw == "OPENQASM":
            raise QasmSyntaxError("duplicate OPENQASM header", t.line, t.col)

        if kw == "include":
            p.expect("str", what="include filename")
            p.expect("sym", ";")
            continue

        if kw in ("qreg", "creg"):
            name = p.expect("id", what="register name")
            p.expect("sym", "[")
            size = p.expect("num", what="register size")
            if "." in size.text:
                raise QasmSyntaxError("register size must be an integer", size.line, size.col)
            p.expect("sym", "]")
            p.expect("sym", ";")
            n = int(size.text)
            if n < 1:
                raise QasmSyntaxError("register size must be positive", size.line, size.col)
            if kw == "qreg":
                if qreg is not None:
                    raise DuplicateRegisterError(
                        "only one qreg is supported", name.line, name.col
                    )
                qreg = (name.text, n)
            else:
                if creg is not None:
                    raise DuplicateRegisterError(
                        "only one creg is supported", name.line, name.col
                    )
                creg = (name.text, n)
            rebuilt = Circuit(qreg[1] if qreg else 0, creg[1] if creg else 0)
            rebuilt.instructions = circuit.instructions
            rebuilt._measured = circuit._measured
            circuit = rebuilt
            continue

        if kw in GATE_MATRICES:
            qubits = [operand(qreg, "quantum")]
            for _ in range(GATE_ARITY[kw] - 1):
                p.expect("sym", ",")
                qubits.append(operand(qreg, "quantum"))
            p.expect("sym", ";")
            if len(set(qubits)) != len(qubits):
                raise IndexOutOfRangeError(
                    f"repeated operand q[{qubits[0]}]", t.line, t.col
                )
            try:
                circuit.add(kw, *qubits)
            except ValueError as e:
                raise QasmSyntaxError(str(e), t.line, t.col) from None
            continue

        if kw == "measure":
            q = operand(qreg, "quantum")
            p.expect("arrow", what="->")
            c = operand(creg, "classical")
            p.expect("sym", ";")
            try:
                circuit.measure(q, c)
            except ValueError as e:
                raise QasmSyntaxError(str(e), t.line, t.col) from None
            continue

        if kw == "barrier":
            qubits = []
            nxt = p.peek()
            if nxt is not None and nxt.kind == "id":
                qubits.append(operand(qreg, "quantum"))
                while p.peek() is not None and p.peek().text == ",":
                    p.take()
                    qubits.append(operand(qreg, "quantum"))
            p.expect("sym", ";")
            try:
                circuit.barrier(*qubits) if qubits else circuit.barrier()
            except ValueError as e:
                raise QasmSyntaxError(str(e), t.line, t.col) from None
            continue

        raise UnknownGateError(f"unknown gate or statement {kw!r}", t.line, t.col)

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
        if instr.name in GATE_MATRICES:
            lines.append(f"{instr.name} {ops};")
        elif instr.name == "measure":
            lines.append(f"measure q[{instr.qubits[0]}] -> c[{instr.clbits[0]}];")
        elif instr.name == "barrier":
            lines.append(f"barrier {ops};")
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


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def coupling_map_from_json(data) -> CouplingMap:
    """Load ``{"n_qubits": n, "edges": [[c, t], ...]}`` (dict or JSON text)."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise CouplingMapError("coupling map must be a JSON object")
    if not _is_int(data.get("n_qubits")):
        raise CouplingMapError("coupling map needs an integer 'n_qubits'")
    edges = data.get("edges")
    if not isinstance(edges, (list, tuple)):
        raise CouplingMapError("coupling map needs an 'edges' list")
    for i, edge in enumerate(edges):
        if not (isinstance(edge, (list, tuple)) and len(edge) == 2 and all(map(_is_int, edge))):
            raise CouplingMapError(f"coupling map edges[{i}] is not a pair of integers: {edge!r}")
    return CouplingMap(data["n_qubits"], frozenset(tuple(e) for e in edges))


def get_coupling_map(name_or_path: str) -> CouplingMap:
    if name_or_path == "ibmqx4":
        return IBMQX4_COUPLING
    with open(name_or_path) as f:
        return coupling_map_from_json(f.read())


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
        elif instr.name == "measure":
            out.measure(instr.qubits[0], instr.clbits[0])
        elif instr.name == "barrier":
            out.barrier(*instr.qubits)
        else:
            out.add(instr.name, *instr.qubits)
    return out


def apply_layout(c: Circuit, layout, n_qubits: int) -> Circuit:
    """Relabel logical qubit i to physical qubit ``layout[i]`` on a larger register."""
    layout = list(layout)
    if len(layout) != c.n_qubits:
        raise ValueError(f"layout must list {c.n_qubits} physical qubits")
    if len(set(layout)) != len(layout) or any(not 0 <= q < n_qubits for q in layout):
        raise ValueError("layout entries must be distinct and within the device")
    out = Circuit(n_qubits, c.n_clbits, name=c.name)
    for instr in c.instructions:
        mapped = tuple(layout[q] for q in instr.qubits)
        if instr.name == "measure":
            out.measure(mapped[0], instr.clbits[0])
        elif instr.name == "barrier":
            out.barrier(*mapped)
        else:
            out.add(instr.name, *mapped)
    return out
