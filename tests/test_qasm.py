import numpy as np
import pytest

from qrouter.gates import Circuit, circuit_unitary, named_router_circuit
from qrouter.qasm import (
    IBMQX4_COUPLING,
    CouplingMap,
    DuplicateRegisterError,
    IndexOutOfRangeError,
    MissingHeaderError,
    QasmError,
    QasmSyntaxError,
    UnknownGateError,
    UnroutableCnotError,
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
        with pytest.raises(IndexOutOfRangeError):
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

    def test_syntax_error_has_position(self):
        with pytest.raises(QasmSyntaxError) as e:
            parse(HEADER + "qreg q[1]\nh q[0];")
        assert e.value.line >= 3


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

    def test_rejects_bad_layout(self):
        with pytest.raises(ValueError):
            apply_layout(Circuit(2).add("h", 0), (0,), 5)
        with pytest.raises(ValueError):
            apply_layout(Circuit(2).add("h", 0), (0, 0), 5)


class TestFuzz:
    def test_parser_never_crashes(self):
        rng = np.random.default_rng(7)
        vocab = [
            "OPENQASM", "2.0", "include", '"qelib1.inc"', "qreg", "creg", "q", "c",
            "h", "x", "s", "sdg", "t", "tdg", "cx", "measure", "barrier", "->",
            "[", "]", ";", ",", "0", "1", "5", "//", "\n", " ", "q[0]", "q[1]",
        ]
        for _ in range(1000):
            kind = rng.random()
            if kind < 0.4:
                src = "".join(
                    str(rng.choice(vocab)) for _ in range(int(rng.integers(0, 60)))
                )
            elif kind < 0.7:
                src = bytes(rng.integers(0, 256, size=int(rng.integers(0, 200)))).decode(
                    "latin-1"
                )
            else:
                base = list(HEADER + "qreg q[3]; creg c[3]; h q[0]; cx q[0], q[1];")
                for _ in range(int(rng.integers(1, 8))):
                    base[int(rng.integers(len(base)))] = chr(int(rng.integers(32, 127)))
                src = "".join(base)
            try:
                parse(src)
            except QasmError:
                pass
