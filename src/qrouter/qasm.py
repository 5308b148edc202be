"""Minimal OpenQASM 2.0 reader/writer and a directed-coupling-map transpiler.

Supported statements: the ``OPENQASM 2.0;`` header, ``include`` (ignored),
one ``qreg`` and one ``creg``, the fixed gate set (h/x/s/sdg/t/tdg/cx),
``measure`` and ``barrier``, with ``//`` comments. Everything else is a
positioned parse error; the parser never raises anything but ``QasmError``
subclasses on malformed text. Tokens are bare texts from one ``findall``, and a
statement is accepted when its tokens equal the fixed shape of its kind. Only a
statement that fails is re-read token by token, with offsets from a rescan of
the text, to word its error at a 1-based line and column.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from typing import NoReturn

from .gates import GATE_ARITY, GATE_MATRICES, Circuit, Instruction


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


# One match per token: the match skips the whitespace and ``//`` comments in
# front of the token, and its one group is the token's text. The catch-all
# ``.`` and the end of input (the empty text) close the alternation, so every
# match succeeds where it starts and nothing backtracks.
_TOKEN_RE = re.compile(
    r"""\s*(?://[^\n]*\s*)*
      ( [0-9]+(?:\.[0-9]+)?
      | [A-Za-z_][A-Za-z0-9_]*
      | "[^"\n]*"
      | ->
      | [\[\];,]
      | .
      | \Z )
    """,
    re.VERBOSE,
)
# the one-character tokens of the grammar; any other one is a stray character
_TOKEN_CHARS = frozenset("[];,_0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")


def _position(src: str, off: int) -> tuple[int, int]:
    """1-based (line, col) of ``off``; end of input is column 1 of the last line."""
    line = src.count("\n", 0, off) + 1
    return line, (off - src.rfind("\n", 0, off) if off < len(src) else 1)


def _offsets(src: str, start: int, stop: int) -> list[int]:
    """The offsets into ``src`` of tokens ``start`` to ``stop - 1``, counted in
    the order ``_TOKEN_RE.findall`` gives them."""
    return [m.start(1) for m in itertools.islice(_TOKEN_RE.finditer(src), start, stop)]


def _operands(reg: str, k: int) -> list:
    """The shape of ``k`` operands of ``reg`` up to the ``;``, such as
    ``q [ n ] , q [ m ] ;``, with None in each index slot."""
    shape = [reg, "[", None, "]", ","] * k
    shape[-1:] = [";"]
    return shape


def _shapes(regs: dict) -> dict[str, list]:
    """The shape of each gate's and of ``measure``'s operands, as far as the
    registers declared so far allow."""
    if "qreg" not in regs:
        return {}
    q = regs["qreg"][0]
    shapes = {gate: _operands(q, k) for gate, k in GATE_ARITY.items()}
    if "creg" in regs:
        shapes["measure"] = [q, "[", None, "]", "->", regs["creg"][0], "[", None, "]", ";"]
    return shapes


def parse(src: str) -> Circuit:
    """Parse QASM source into a Circuit; raises positioned QasmError on failure.

    One ``findall`` splits the source into token texts, closed by ``""`` at the
    end of input. Each statement is accepted by comparing its tokens with the
    fixed shape of its kind. One that does not fit it, or whose numbers or
    qubits the circuit refuses, is re-read by ``_reject``, which raises.
    """
    texts = _TOKEN_RE.findall(src)
    stray = {t for t in set(texts) if len(t) == 1} - _TOKEN_CHARS
    if stray:
        j = next(j for j, text in enumerate(texts) if text in stray)
        raise QasmSyntaxError(
            f"unexpected character {texts[j]!r}", *_position(src, *_offsets(src, j, j + 1))
        )
    circuit = Circuit(0)
    regs: dict[str, tuple[str, int]] = {}  # "qreg"/"creg" -> (name, size)
    shapes: dict[str, list] = {}
    if texts[:3] != ["OPENQASM", "2.0", ";"]:
        _reject(src, texts, 0, regs, circuit)
    i = 3
    while kw := texts[i]:
        try:
            shape = shapes.get(kw)
            if kw == "barrier":
                k = (texts.index(";", i) - i) // 5
                shape = _operands(regs["qreg"][0], k) if "qreg" in regs else [";"]
            if shape is not None:
                end = i + 1 + len(shape)
                stmt = texts[i + 1 : end]
                indices = stmt[2::5]
                stmt[2::5] = shape[2::5]
                if stmt == shape:
                    if kw == "measure":
                        circuit.measure(*map(int, indices))
                    elif kw == "barrier":
                        circuit.barrier(*map(int, indices))
                    else:
                        circuit.add(kw, *map(int, indices))
                    i = end
                    continue
            elif kw == "include" and texts[i + 1][:1] == '"' and texts[i + 2] == ";":
                i += 3
                continue
            elif (kw == "qreg" or kw == "creg") and kw not in regs:
                name, lb, size, rb, semi = texts[i + 1 : i + 6]
                if name.isidentifier() and [lb, rb, semi] == ["[", "]", ";"] and int(size) > 0:
                    regs[kw] = (name, int(size))
                    setattr(circuit, "n_qubits" if kw == "qreg" else "n_clbits", int(size))
                    shapes = _shapes(regs)
                    i += 6
                    continue
        except ValueError:  # cut short, no ';', a number int() cannot read, a qubit refused
            pass
        _reject(src, texts, i, regs, circuit)
    return circuit


def _kind(text: str) -> str:
    """The kind of a token from its text; ``""`` is the end of input."""
    if not text:
        return "end"
    if "0" <= text[0] <= "9":
        return "num"
    if text[0] == '"':
        return "str"
    return "id" if text[0] == "_" or text[0].isalpha() else "sym"


def _reject(src: str, texts: list[str], i: int, regs: dict, circuit: Circuit) -> NoReturn:
    """Raise the positioned error of the header (``i == 0``) or of the statement
    at token ``i``, re-read one token at a time from the ``regs`` and
    ``circuit`` that the statements before it built."""
    try:  # the re-read ends at the first ";" from token i, or at the end of input
        stop = texts.index(";", i) + 1
    except ValueError:
        stop = len(texts)
    tokens = {
        j: (_kind(text), text or "end of input", off)
        for j, text, off in zip(range(i, stop), texts[i:stop], _offsets(src, i, stop))
    }

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

    at_header = i == 0
    kind, kw, off = tokens[i]
    i += 1
    if at_header:
        if (kind, kw) != ("id", "OPENQASM"):
            raise MissingHeaderError(
                "program must start with 'OPENQASM 2.0;'", *_position(src, off)
            )
        ver, off = take("version number", "num")
        if ver != "2.0":
            raise QasmSyntaxError(f"unsupported OPENQASM version {ver}", *_position(src, off))
        take(";")
    elif kind != "id":
        raise QasmSyntaxError(f"expected a statement, got {kw!r}", *_position(src, off))
    elif kw == "OPENQASM":
        raise QasmSyntaxError("duplicate OPENQASM header", *_position(src, off))
    elif kw == "include":
        take("include filename", "str")
        take(";")
    elif kw in ("qreg", "creg"):
        name, name_off = take("register name", "id")
        size, size_off = bracketed("register size")
        take(";")
        if size < 1:
            raise QasmSyntaxError("register size must be positive", *_position(src, size_off))
        if kw in regs:
            raise DuplicateRegisterError(f"only one {kw} is supported", *_position(src, name_off))
    else:
        if kw in GATE_MATRICES:
            qubits = [operand("qreg")]
            for _ in range(GATE_ARITY[kw] - 1):
                take(",")
                qubits.append(operand("qreg"))
            take(";")
            if len(set(qubits)) != len(qubits):
                raise IndexOutOfRangeError(f"repeated operand q[{qubits[0]}]", *_position(src, off))
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
        except ValueError as e:  # a qubit already measured, or a repeated barrier operand
            raise QasmSyntaxError(str(e), *_position(src, off)) from None
    raise AssertionError(f"the statement at line {_position(src, off)[0]} fits its shape")


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
        else:
            out.append(instr)
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
        out.append(Instruction(instr.name, tuple(layout[q] for q in instr.qubits), instr.clbits))
    return out
