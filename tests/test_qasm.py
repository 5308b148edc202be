import time

import numpy as np
import pytest

from qrouter import qasm
from qrouter.gates import (
    ROUTER_EXPERIMENTS,
    Circuit,
    _gate,
    circuit_unitary,
    named_router_circuit,
)
from qrouter.qasm import (
    IBMQX4_COUPLING,
    CouplingMap,
    CouplingMapError,
    DuplicateRegisterError,
    IndexOutOfRangeError,
    MissingHeaderError,
    QasmError,
    QasmSyntaxError,
    UnknownGateError,
    UnroutableCnotError,
    _read,
    apply_layout,
    coupling_map_from_json,
    parse,
    serialize,
    transpile,
)

from .test_gates import max_dev_up_to_phase

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


class TestParse:
    def test_smallest_program(self):
        c = parse(HEADER + "qreg q[1];\nh q[0];\n")
        assert c.n_qubits == 1
        assert [(i.name, i.qubits) for i in c.instructions] == [("h", (0,))]

    def test_header_without_include(self):
        c = parse("OPENQASM 2.0; qreg q[2]; cx q[0],q[1];")
        assert c.instructions[0].qubits == (0, 1)

    def test_measure_and_barrier(self):
        c = parse(HEADER + "qreg q[2]; creg c[2]; h q[0]; barrier q[0], q[1]; measure q[0] -> c[1];")
        names = [i.name for i in c.instructions]
        assert names == ["h", "barrier", "measure"]
        assert c.instructions[-1].clbits == (1,)

    def test_creg_before_qreg(self):
        src = "creg c[2];\nqreg q[3];\nh q[0];\ncx q[0], q[2];\nmeasure q[2] -> c[1];\n"
        c = parse(HEADER + src)
        assert (c.n_qubits, c.n_clbits) == (3, 2)
        assert [(i.name, i.qubits, i.clbits) for i in c.instructions] == [
            ("h", (0,), ()), ("cx", (0, 2), ()), ("measure", (2,), (1,))
        ]
        assert parse(serialize(c)) == c

    def test_comments_ignored(self):
        c = parse(HEADER + "// whole line\nqreg q[1]; h q[0]; // trailing\n")
        assert len(c.instructions) == 1

    def test_missing_header(self):
        with pytest.raises(MissingHeaderError):
            parse("qreg q[1];")

    def test_unknown_gate_position(self):
        with pytest.raises(UnknownGateError) as e:
            parse(HEADER + "qreg q[1];\nrz q[0];\n")
        assert e.value.line == 4 and e.value.col == 1

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            parse(HEADER + "qreg q[2]; h q[2];")

    def test_repeated_cx_operand(self):
        with pytest.raises(QasmSyntaxError, match=r"repeated qubit operand in \(0, 0\)"):
            parse(HEADER + "qreg q[2]; cx q[0],q[0];")

    def test_duplicate_register(self):
        with pytest.raises(DuplicateRegisterError):
            parse(HEADER + "qreg q[1]; qreg r[1];")

    def test_gate_before_qreg(self):
        with pytest.raises(QasmSyntaxError):
            parse(HEADER + "h q[0];")

    def test_gate_after_measure(self):
        with pytest.raises(QasmSyntaxError):
            parse(HEADER + "qreg q[1]; creg c[1]; measure q[0] -> c[0]; h q[0];")

    def test_gate_after_measure_with_late_creg(self):
        c = parse(HEADER + "qreg q[2]; h q[0]; creg c[2]; measure q[0] -> c[1];")
        assert (c.n_qubits, c.n_clbits, len(c.instructions)) == (2, 2, 2)
        with pytest.raises(QasmSyntaxError, match="already measured"):
            parse(HEADER + "qreg q[2]; h q[0]; creg c[2]; measure q[0] -> c[1]; h q[0];")

    def test_syntax_error_has_position(self):
        with pytest.raises(QasmSyntaxError) as e:
            parse(HEADER + "qreg q[1]\nh q[0];")
        assert e.value.line >= 3

    def test_include_filename_with_semicolon(self):
        c = parse(HEADER + 'include "a;b.inc";\nqreg q[1];\nh q[0];')
        assert [(i.name, i.qubits) for i in c.instructions] == [("h", (0,))]

    def test_megabyte_of_blank_and_comment_lines(self):
        gap = ("  \t\r\n// " + "comment; h q[0] " * 4 + "\n\n") * 3000  # about 220 KB
        c = Circuit(2).add("h", 0).add("cx", 0, 1).add("x", 1)
        src = gap.join(serialize(c).splitlines(keepends=True))
        assert len(src) > 1_000_000
        start = time.perf_counter()
        assert parse(src) == c
        assert time.perf_counter() - start < 10.0


Q = HEADER + "qreg q[2];\ncreg c[2];\n"

# One malformed program per raise site in ``parse``: class, message, line, col.
PARSE_ERRORS = [
    ("bad-char", HEADER + "qreg q[1];\nh q[0]; @",
     QasmSyntaxError, "unexpected character '@'", 4, 9),
    ("bad-char-after-tab-comment", HEADER + "// note\n\tqreg q[1]; $",
     QasmSyntaxError, "unexpected character '$'", 4, 13),
    ("bad-char-after-syntax-error", HEADER + "qreg q[1]\nh q[0]; @",
     QasmSyntaxError, "unexpected character '@'", 4, 9),
    ("no-header", "qreg q[1];",
     MissingHeaderError, "program must start with 'OPENQASM 2.0;'", 1, 1),
    ("empty", "",
     MissingHeaderError, "program must start with 'OPENQASM 2.0;'", 1, 1),
    ("only-comment", "// nothing here\n  ",
     MissingHeaderError, "program must start with 'OPENQASM 2.0;'", 2, 1),
    ("version", "OPENQASM 3.0;",
     QasmSyntaxError, "unsupported OPENQASM version 3.0", 1, 10),
    ("version-missing", "OPENQASM ;",
     QasmSyntaxError, "expected 'version number', got ';'", 1, 10),
    ("header-semicolon-eof", "OPENQASM 2.0",
     QasmSyntaxError, "expected ';', got 'end of input'", 1, 1),
    ("header-semicolon-eof-newlines", "OPENQASM 2.0\n\n",
     QasmSyntaxError, "expected ';', got 'end of input'", 3, 1),
    ("duplicate-header", HEADER + "OPENQASM 2.0;",
     QasmSyntaxError, "duplicate OPENQASM header", 3, 1),
    ("include-filename", "OPENQASM 2.0;\ninclude qelib1;",
     QasmSyntaxError, "expected 'include filename', got 'qelib1'", 2, 9),
    ("include-semicolon", 'OPENQASM 2.0;\ninclude "qelib1.inc"\nqreg q[1];',
     QasmSyntaxError, "expected ';', got 'qreg'", 3, 1),
    ("statement", HEADER + "qreg q[1];\n; h q[0];",
     QasmSyntaxError, "expected a statement, got ';'", 4, 1),
    ("statement-number", HEADER + "  2 q[0];",
     QasmSyntaxError, "expected a statement, got '2'", 3, 3),
    ("register-name", HEADER + "qreg [2];",
     QasmSyntaxError, "expected 'register name', got '['", 3, 6),
    ("register-bracket", HEADER + "qreg q 2;",
     QasmSyntaxError, "expected '[', got '2'", 3, 8),
    ("register-size", HEADER + "qreg q[];",
     QasmSyntaxError, "expected 'register size', got ']'", 3, 8),
    ("register-close", HEADER + "qreg q[2;",
     QasmSyntaxError, "expected ']', got ';'", 3, 9),
    ("register-semicolon", HEADER + "creg c[2]\n",
     QasmSyntaxError, "expected ';', got 'end of input'", 4, 1),
    ("register-size-real", HEADER + "qreg q[1.5];",
     QasmSyntaxError, "register size must be an integer", 3, 8),
    ("register-size-zero", HEADER + "qreg q[0];",
     QasmSyntaxError, "register size must be positive", 3, 8),
    # in the serializer's layout, where only the n >= 1 rule of parse's own match refuses it
    ("register-size-zero-serialized", HEADER + "qreg q[0];\n",
     QasmSyntaxError, "register size must be positive", 3, 8),
    ("register-size-non-ascii-digit", HEADER + "qreg q[\u0663];",
     QasmSyntaxError, "unexpected character '\u0663'", 3, 8),
    ("register-size-too-many-digits", HEADER + "qreg q[" + "1" * 5000 + "];",
     QasmSyntaxError, "register size has too many digits", 3, 8),
    ("second-qreg", HEADER + "qreg q[1];\nqreg r[1];",
     DuplicateRegisterError, "only one qreg is supported", 4, 6),
    ("second-creg", Q + "creg d[1];",
     DuplicateRegisterError, "only one creg is supported", 5, 6),
    ("no-qreg", HEADER + "h q[0];",
     QasmSyntaxError, "no quantum register declared", 3, 3),
    ("no-creg", HEADER + "qreg q[1];\nmeasure q[0] -> c[0];",
     QasmSyntaxError, "no classical register declared", 4, 17),
    ("unknown-qreg", Q + "x r[0];",
     QasmSyntaxError, "unknown register 'r'", 5, 3),
    ("unknown-creg", Q + "measure q[0] -> d[0];",
     QasmSyntaxError, "unknown register 'd'", 5, 17),
    ("operand", Q + "h ;",
     QasmSyntaxError, "expected 'quantum register operand', got ';'", 5, 3),
    ("operand-bracket", Q + "h q 0;",
     QasmSyntaxError, "expected '[', got '0'", 5, 5),
    ("index", Q + "h q[];",
     QasmSyntaxError, "expected 'index', got ']'", 5, 5),
    ("index-real", Q + "h q[0.5];",
     QasmSyntaxError, "index must be an integer", 5, 5),
    ("index-too-many-digits", Q + "h q[" + "0" * 5000 + "];",
     QasmSyntaxError, "index has too many digits", 5, 5),
    ("index-close", Q + "h q[0;",
     QasmSyntaxError, "expected ']', got ';'", 5, 6),
    ("index-range", HEADER + "qreg q[1];\nh q[03];",
     IndexOutOfRangeError, "index 3 out of range for q[1]", 4, 5),
    ("index-range-clbit", Q + "measure q[0] -> c[2];",
     IndexOutOfRangeError, "index 2 out of range for c[2]", 5, 19),
    ("gate-comma", Q + "cx q[0] q[1];",
     QasmSyntaxError, "expected ',', got 'q'", 5, 9),
    ("gate-semicolon", Q + "h q[0]\nh q[1];",
     QasmSyntaxError, "expected ';', got 'h'", 6, 1),
    ("gate-eof", Q + "h q[0]",
     QasmSyntaxError, "expected ';', got 'end of input'", 5, 1),
    ("measure-arrow", Q + "measure q[0] c[0];",
     QasmSyntaxError, "expected '->', got 'c'", 5, 14),
    ("measure-operand", Q + "measure q[0] -> ;",
     QasmSyntaxError, "expected 'classical register operand', got ';'", 5, 17),
    ("measure-semicolon", Q + "measure q[0] -> c[0]",
     QasmSyntaxError, "expected ';', got 'end of input'", 5, 1),
    ("barrier-semicolon", Q + "barrier q[0] q[1];",
     QasmSyntaxError, "expected ';', got 'q'", 5, 14),
    ("barrier-eof", Q + "barrier q[0],\n",
     QasmSyntaxError, "expected 'quantum register operand', got 'end of input'", 6, 1),
    ("repeated-operand", Q + "cx q[1],\n   q[1];",
     QasmSyntaxError, "repeated qubit operand in (1, 1)", 5, 1),
    ("measured-gate", Q + "measure q[0] -> c[0];\nh q[1]; t q[0];",
     QasmSyntaxError, "qubit 0 was already measured", 6, 9),
    ("measured-measure", Q + "measure q[1] -> c[0];\nmeasure q[1] -> c[1];",
     QasmSyntaxError, "qubit 1 was already measured", 6, 1),
    ("repeated-barrier", Q + "barrier q[0], q[1], q[0];",
     QasmSyntaxError, "repeated qubit operand in (0, 1, 0)", 5, 1),
    ("unknown-gate", Q + "h q[0];\n  rz q[0];",
     UnknownGateError, "unknown gate or statement 'rz'", 6, 3),
    ("crlf-lines",
     'OPENQASM 2.0;\r\ninclude "qelib1.inc";\r\nqreg q[2];\r\nh q[0];\r\ncx q[1],\r\n  q[2];\r\n',
     IndexOutOfRangeError, "index 2 out of range for q[2]", 6, 5),
]


@pytest.mark.parametrize(
    "src, cls, message, line, col",
    [row[1:] for row in PARSE_ERRORS],
    ids=[row[0] for row in PARSE_ERRORS],
)
def test_parse_error_table(src, cls, message, line, col):
    with pytest.raises(QasmError) as e:
        parse(src)
    assert type(e.value) is cls
    assert (str(e.value), e.value.line, e.value.col) == (
        f"line {line}, col {col}: {message}", line, col
    )


GATES1 = ["h", "x", "s", "sdg", "t", "tdg"]

# separators that split statements across lines and carry comments
SEPARATORS = [" ", "\t", "\n", "  \n\t", " // note; q[0]\n", "\n// h q[9];\n\n", "\r\n "]


def spaced_program(c, rng):
    """QASM text for ``c`` with a seeded separator between every two tokens."""
    tokens = ["OPENQASM", "2.0", ";", "include", '"qelib1.inc"', ";"]
    tokens += ["qreg", "q", "[", str(c.n_qubits), "]", ";"]
    if c.n_clbits:
        tokens += ["creg", "c", "[", str(c.n_clbits), "]", ";"]
    for instr in c.instructions:
        tokens.append(instr.name)
        for i, q in enumerate(instr.qubits):
            tokens += ([","] if i else []) + ["q", "[", str(q), "]"]
        if instr.name == "measure":
            tokens += ["->", "c", "[", str(instr.clbits[0]), "]"]
        tokens.append(";")
    seps = rng.choice(SEPARATORS, size=len(tokens))
    return "".join(f"{sep}{tok}" for sep, tok in zip(seps, tokens)) + str(rng.choice(SEPARATORS))


def seeded_circuit(rng):
    """A circuit of 1-4 qubits with gates, barriers and, when it has a creg, measurements."""
    n = int(rng.integers(1, 5))
    c = Circuit(n, int(rng.integers(0, 3)) and n)
    for _ in range(int(rng.integers(0, 12))):
        r = rng.random()
        if r < 0.1:
            c.barrier(*[int(q) for q in rng.permutation(n)[: int(rng.integers(1, n + 1))]])
        elif n >= 2 and r < 0.4:
            q = rng.permutation(n)[:2]
            c.add("cx", int(q[0]), int(q[1]))
        else:
            c.add(str(rng.choice(GATES1)), int(rng.integers(n)))
    for q in rng.permutation(n)[: int(rng.integers(0, n + 1))] if c.n_clbits else []:
        c.measure(int(q), int(rng.integers(c.n_clbits)))
    return c


def test_seeded_multiline_programs_parse_to_their_circuits():
    rng = np.random.default_rng(11)
    for _ in range(40):
        c = seeded_circuit(rng)
        got = parse(spaced_program(c, rng))
        assert [(i.name, i.qubits, i.clbits) for i in got.instructions] == [
            (i.name, i.qubits, i.clbits) for i in c.instructions
        ]
        assert (got.n_qubits, got.n_clbits) == (c.n_qubits, c.n_clbits)


class TestSerialize:
    def test_empty_circuit(self):
        text = serialize(Circuit(1))
        assert text == HEADER + "qreg q[1];\n"

    def test_gate_lines_in_order(self):
        c = Circuit(2).add("h", 0).add("cx", 0, 1)
        assert serialize(c).endswith("h q[0];\ncx q[0], q[1];\n")

    @pytest.mark.parametrize(
        "name", ["router-superposition", "router-control0", "router-control1"]
    )
    def test_round_trip_router_circuits(self, name):
        c = named_router_circuit(name)
        assert parse(serialize(c)) == c

    def test_round_trip_with_measure(self):
        c = Circuit(2, 2).add("h", 0).add("cx", 0, 1)
        c.measure(0, 0)
        c.measure(1, 1)
        assert parse(serialize(c)) == c

    def test_round_trip_random_circuits(self):
        rng = np.random.default_rng(23)
        gates1 = ["h", "x", "s", "sdg", "t", "tdg"]
        for _ in range(50):
            n = int(rng.integers(1, 5))
            c = Circuit(n)
            for _ in range(int(rng.integers(0, 15))):
                if n >= 2 and rng.random() < 0.3:
                    q = rng.permutation(n)[:2]
                    c.add("cx", int(q[0]), int(q[1]))
                else:
                    c.add(str(rng.choice(gates1)), int(rng.integers(n)))
            assert parse(serialize(c)) == c


class TestCouplingMap:
    def test_ibmqx4_edges(self):
        assert (2, 0) in IBMQX4_COUPLING.edges
        assert (0, 4) not in IBMQX4_COUPLING.edges
        assert len(IBMQX4_COUPLING.edges) == 6

    def test_rejects_self_edge(self):
        with pytest.raises(ValueError):
            CouplingMap(2, frozenset({(0, 0)}))

    def test_json_round_trip(self):
        cmap = coupling_map_from_json(
            '{"n_qubits": 5, "edges": [[1, 0], [2, 0], [2, 1], [2, 4], [3, 2], [3, 4]]}'
        )
        assert cmap == IBMQX4_COUPLING

    def test_dict_with_tuple_edges(self):
        cmap = coupling_map_from_json({"n_qubits": 2, "edges": [(1, 0)]})
        assert cmap == CouplingMap(2, frozenset({(1, 0)}))

    @pytest.mark.parametrize(
        "n, edge, accepted",
        [(np.int64(2), (1, 0), True), (2, (np.int64(1), 0), True),
         (True, (1, 0), False), (2, (True, 0), False)],
        ids=["int64-n_qubits", "int64-edge", "bool-n_qubits", "bool-edge"],
    )
    def test_dict_integers_are_ints_or_numpy_integers_never_bools(self, n, edge, accepted):
        data = {"n_qubits": n, "edges": [edge]}
        if accepted:
            assert coupling_map_from_json(data) == CouplingMap(2, frozenset({(1, 0)}))
        else:
            with pytest.raises(CouplingMapError, match="integer"):
                coupling_map_from_json(data)


class TestTranspile:
    def test_reversed_edge_hadamard_fix(self):
        c = Circuit(2).add("cx", 0, 1)
        out = transpile(c, IBMQX4_COUPLING)
        assert [(i.name, i.qubits) for i in out.instructions] == [
            ("h", (0,)),
            ("h", (1,)),
            ("cx", (1, 0)),
            ("h", (0,)),
            ("h", (1,)),
        ]
        assert max_dev_up_to_phase(circuit_unitary(out), circuit_unitary(c)) < 1e-9

    def test_native_edge_unchanged(self):
        c = Circuit(3).add("cx", 2, 0)
        assert transpile(c, IBMQX4_COUPLING) == c

    def test_unroutable(self):
        c = Circuit(5).add("cx", 0, 4)
        with pytest.raises(UnroutableCnotError) as e:
            transpile(c, IBMQX4_COUPLING)
        assert (e.value.control, e.value.target) == (0, 4)

    def test_soundness_on_random_edge_circuits(self):
        rng = np.random.default_rng(31)
        pairs = sorted(IBMQX4_COUPLING.edges) + [
            (t, c) for c, t in sorted(IBMQX4_COUPLING.edges)
        ]
        gates1 = ["h", "x", "s", "sdg", "t", "tdg"]
        for _ in range(20):
            c = Circuit(5)
            for _ in range(int(rng.integers(1, 12))):
                if rng.random() < 0.4:
                    ctl, tgt = pairs[int(rng.integers(len(pairs)))]
                    c.add("cx", ctl, tgt)
                else:
                    c.add(str(rng.choice(gates1)), int(rng.integers(5)))
            out = transpile(c, IBMQX4_COUPLING)
            for instr in out.instructions:
                if instr.name == "cx":
                    assert instr.qubits in IBMQX4_COUPLING.edges
            assert max_dev_up_to_phase(circuit_unitary(out), circuit_unitary(c)) < 1e-9

    def test_router_layout_is_routable(self):
        c = apply_layout(named_router_circuit("router-superposition"), (2, 0, 1), 5)
        out = transpile(c, IBMQX4_COUPLING)
        assert max_dev_up_to_phase(circuit_unitary(out), circuit_unitary(c)) < 1e-9


class TestApplyLayout:
    def test_remaps_indices(self):
        c = Circuit(2).add("cx", 0, 1)
        out = apply_layout(c, (3, 1), 5)
        assert out.instructions[0].qubits == (3, 1)
        assert out.n_qubits == 5

    def test_relabels_every_kind(self):
        c = Circuit(3, 1).add("h", 0).add("cx", 0, 1).add("cx", 1, 0).barrier().barrier(0, 2)
        c.measure(1, 0).barrier(1, 2)  # the last barrier spans the measured qubit
        out = apply_layout(c, (2, 0, 1), 5)
        by_hand = Circuit(5, 1).add("h", 2).add("cx", 2, 0).add("cx", 0, 2).barrier(2, 0, 1)
        assert out == by_hand.barrier(2, 1).measure(0, 0).barrier(0, 1)
        assert all(i is _gate(5, i.name, *i.qubits) for i in out.gate_instructions())
        assert parse(serialize(out)) == out

    def test_rejects_bad_layout(self):
        with pytest.raises(ValueError):
            apply_layout(Circuit(2).add("h", 0), (0,), 5)
        with pytest.raises(ValueError):
            apply_layout(Circuit(2).add("h", 0), (0, 0), 5)


FUZZ_VOCAB = [
    "OPENQASM", "2.0", "include", '"qelib1.inc"', "qreg", "creg", "q", "c",
    "h", "x", "s", "sdg", "t", "tdg", "cx", "measure", "barrier", "->",
    "[", "]", ";", ",", "0", "1", "5", "//", "\n", " ", "q[0]", "q[1]",
]


def fuzz_sources():
    """1000 seeded sources: vocabulary soups, random bytes and character-mutated programs."""
    rng = np.random.default_rng(7)
    for _ in range(1000):
        kind = rng.random()
        if kind < 0.4:
            yield "".join(
                str(rng.choice(FUZZ_VOCAB)) for _ in range(int(rng.integers(0, 60)))
            )
        elif kind < 0.7:
            yield bytes(rng.integers(0, 256, size=int(rng.integers(0, 200)))).decode("latin-1")
        else:
            base = list(HEADER + "qreg q[3]; creg c[3]; h q[0]; cx q[0], q[1];")
            for _ in range(int(rng.integers(1, 8))):
                base[int(rng.integers(len(base)))] = chr(int(rng.integers(32, 127)))
            yield "".join(base)


class TestFuzz:
    def test_parser_never_crashes(self):
        for src in fuzz_sources():
            try:
                parse(src)
            except QasmError:
                pass


# pieces a mutation inserts: tokens, statements, separators and stray characters
MUTATION_PIECES = [
    ";", ",", "[", "]", "->", " ", "\t", "\n", "\r\n", "// x;\n", "q", "c", "r", "0", "2",
    "9", "1.5", '"', '"a;b"', "-", "@", "OPENQASM 2.0;", "qreg q[2];", "creg c[2];",
    "measure", "barrier", "barrier;", "h", "cx", "include",
]


def mutated(text, rng):
    """``text`` with one to three seeded deletions, insertions or character swaps."""
    for _ in range(int(rng.integers(1, 4))):
        at = int(rng.integers(len(text) + 1))
        r = rng.random()
        if r < 0.35:
            text = text[:at] + text[at + int(rng.integers(1, 6)):]
        elif r < 0.7:
            text = text[:at] + str(rng.choice(MUTATION_PIECES)) + text[at:]
        else:
            text = text[:at] + chr(int(rng.integers(32, 127))) + text[at + 1:]
    return text


def parse_outcome(parser, src):
    """The registers and instructions ``parser`` builds from ``src``, or the
    class, message, line and column of the QasmError it raises."""
    try:
        c = parser(src)
    except QasmError as e:
        return type(e), str(e), e.line, e.col
    return c.n_qubits, c.n_clbits, c.instructions


def five_qubit_gate_circuit(rng):
    """A seeded gate-only circuit on ibmqx4's 5 qubits: 1 to 40 gates, whose
    CNOTs lie on the coupling map's edges, in either direction."""
    pairs = sorted(IBMQX4_COUPLING.edges)
    c = Circuit(5)
    for _ in range(int(rng.integers(1, 41))):
        if rng.random() < 0.4:
            ctl, tgt = pairs[int(rng.integers(len(pairs)))]
            c.add("cx", *((ctl, tgt) if rng.random() < 0.5 else (tgt, ctl)))
        else:
            c.add(str(rng.choice(GATES1)), int(rng.integers(5)))
    return c


class TestAgainstReferenceParser:
    """``parse`` builds the circuit that ``_read``, the token-by-token reader that
    defines the language, builds, or raises the same error at the same place."""

    @staticmethod
    def assert_same(sources):
        kinds = set()
        for src in sources:
            got = parse_outcome(parse, src)
            assert got == parse_outcome(_read, src), repr(src)
            kinds.add(got[0] if isinstance(got[0], type) else "circuit")
        return kinds

    def test_fuzz_corpus(self):
        kinds = self.assert_same(fuzz_sources())
        assert {"circuit", QasmSyntaxError, MissingHeaderError} <= kinds

    def test_spaced_programs(self):
        rng = np.random.default_rng(12)
        kinds = self.assert_same(spaced_program(seeded_circuit(rng), rng) for _ in range(200))
        assert kinds == {"circuit"}

    def test_mutated_canonical_programs(self):
        rng = np.random.default_rng(13)
        kinds = self.assert_same(mutated(serialize(seeded_circuit(rng)), rng) for _ in range(3000))
        assert kinds == {
            "circuit", QasmSyntaxError, MissingHeaderError, UnknownGateError,
            IndexOutOfRangeError, DuplicateRegisterError,
        }

    def test_serialized_and_transpiled_random_circuits(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            c = five_qubit_gate_circuit(rng)
            for circuit in (c, transpile(c, IBMQX4_COUPLING)):
                text = serialize(circuit)
                assert parse(text) == circuit
                assert parse_outcome(parse, text) == parse_outcome(_read, text)


# the text ``serialize`` writes for a gate-only circuit, and what ``parse`` reads itself
FAST_CIRCUIT = Circuit(3).add("h", 0).add("cx", 0, 2).add("t", 1)
FAST_TEXT = serialize(FAST_CIRCUIT)
# the same circuit in text ``serialize`` does not write
OTHER_TEXTS = [
    pytest.param(FAST_TEXT.replace(", ", " ,\t"), id="spaced-operands"),
    pytest.param(FAST_TEXT.replace("qreg", "// three qubits\nqreg"), id="comment-line"),
    pytest.param(FAST_TEXT.replace('include "qelib1.inc";\n', ""), id="no-include"),
    pytest.param(FAST_TEXT.replace("q[3]", "q[03]"), id="leading-zero-size"),
    pytest.param(FAST_TEXT[:-1], id="no-final-newline"),
    pytest.param(FAST_TEXT.replace("\n", "\r\n"), id="crlf"),
]


class TestFastPath:
    """``parse`` reads only the text ``serialize`` writes for gate-only circuits;
    every other source, even one of the same circuit, is read by ``_read``."""

    @pytest.fixture
    def no_read(self, monkeypatch):
        def refuse(src):
            raise AssertionError(f"reached _read: {src!r}")

        monkeypatch.setattr(qasm, "_read", refuse)

    def test_serialized_gate_circuits_stay_on_the_fast_path(self, no_read):
        rng = np.random.default_rng(15)
        for _ in range(100):
            c = five_qubit_gate_circuit(rng)
            for circuit in (c, transpile(c, IBMQX4_COUPLING)):
                assert parse(serialize(circuit)) == circuit

    @pytest.mark.parametrize("name", sorted(ROUTER_EXPERIMENTS))
    def test_router_files_stay_on_the_fast_path(self, no_read, name):
        c = named_router_circuit(name)
        placed = apply_layout(c, (2, 0, 1), 5)
        for circuit in (c, placed, transpile(placed, IBMQX4_COUPLING)):
            assert parse(serialize(circuit)) == circuit

    @pytest.mark.parametrize(
        "statements",
        ["creg c[1];", "barrier q[0], q[1];", "creg c[2];\nmeasure q[0] -> c[1];"],
        ids=["creg", "barrier", "measure"],
    )
    def test_other_statements_reach_read(self, no_read, statements):
        with pytest.raises(AssertionError, match="reached _read"):
            parse(HEADER + f"qreg q[2];\nh q[0];\n{statements}\ncx q[0], q[1];\n")

    @pytest.mark.parametrize("src", OTHER_TEXTS)
    def test_other_text_of_the_same_circuit_reaches_read(self, no_read, src):
        with pytest.raises(AssertionError, match="reached _read"):
            parse(src)

    @pytest.mark.parametrize("src", OTHER_TEXTS)
    def test_other_text_of_the_same_circuit_parses_to_it(self, src):
        assert parse(src) == FAST_CIRCUIT
