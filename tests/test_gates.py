import itertools

import numpy as np
import pytest

from qrouter import gates, noise
from qrouter.gates import (
    ROUTER_EXPERIMENTS,
    Circuit,
    Instruction,
    _apply_tensor,
    apply_circuit,
    circuit_unitary,
    embed_gate,
    fredkin_circuit,
    named_router_circuit,
    router_circuit,
)
from qrouter.noise import ibmqx4_model, readout_flip, simulate_noisy
from qrouter.qasm import IBMQX4_COUPLING, apply_layout, transpile
from qrouter.qstate import (
    StateVector,
    basis_state,
    equal_up_to_global_phase,
    partial_trace,
    to_density,
)

from ._analytic import (
    PLUS,
    PSI_S,
    gate_matrix,
    prep_state,
    psi_f_amplitudes,
    tensordot_apply,
)


def cswap_permutation():
    """Ideal controlled-swap built directly as a permutation of basis states."""
    m = np.zeros((8, 8))
    for i in range(8):
        c, a, b = (i >> 2) & 1, (i >> 1) & 1, i & 1
        if c:
            a, b = b, a
        m[(c << 2) | (a << 1) | b, i] = 1
    return m


def max_dev_up_to_phase(u, v):
    k = np.argmax(np.abs(v))
    c = v.flat[k] / u.flat[k]
    assert abs(abs(c) - 1) < 1e-9
    return np.max(np.abs(c * u - v))


class TestGateMatrices:
    @pytest.mark.parametrize("name", ["h", "x", "s", "sdg", "t", "tdg", "cx"])
    def test_unitary(self, name):
        u = gate_matrix(name)
        assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-12

    def test_hadamard(self):
        assert np.allclose(gate_matrix("h"), np.array([[1, 1], [1, -1]]) / np.sqrt(2))

    def test_t_squared_is_s(self):
        assert np.max(np.abs(gate_matrix("t") @ gate_matrix("t") - gate_matrix("s"))) < 1e-12

    def test_s_sdg_identity(self):
        assert np.allclose(gate_matrix("s") @ gate_matrix("sdg"), np.eye(2))

    def test_unknown_gate(self):
        with pytest.raises(ValueError):
            gate_matrix("cz")


class TestCircuit:
    def test_no_gate_after_measure(self):
        c = Circuit(1, 1)
        c.add("h", 0)
        c.measure(0, 0)
        with pytest.raises(ValueError):
            c.add("x", 0)

    def test_repeated_operand(self):
        with pytest.raises(ValueError):
            Circuit(2).add("cx", 0, 0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Circuit(1).add("h", 1)

    @pytest.mark.parametrize("sizes", [(-1,), (2, -1), (-3, -3)])
    def test_rejects_negative_register_size(self, sizes):
        with pytest.raises(ValueError, match="register sizes must be nonnegative"):
            Circuit(*sizes)

    def test_rejects_unknown_gate(self):
        with pytest.raises(ValueError, match="unknown gate 'rz'"):
            Circuit(1).add("rz", 0)

    @pytest.mark.parametrize("gate, qubits", [("h", (0, 1)), ("cx", (0,)), ("cx", (0, 1, 2))])
    def test_rejects_wrong_number_of_qubits(self, gate, qubits):
        with pytest.raises(ValueError, match=f"{gate} expects .* qubits, got {len(qubits)}"):
            Circuit(3).add(gate, *qubits)

    def test_append_copies_every_kind(self):
        c = Circuit(3, 2).add("h", 0).add("cx", 0, 2).barrier().measure(2, 1)
        c.barrier(0, 2).add("t", 1).measure(0, 0)  # a barrier may span a measured qubit
        copy = Circuit(3, 2)
        for instr in c.instructions:
            copy.append(instr)
        assert copy == c
        with pytest.raises(ValueError, match="qubit 2 was already measured"):
            copy.append(Instruction("x", (2,)))


SIMULATORS = {
    "apply_circuit": lambda c: apply_circuit(c, basis_state(c.n_qubits, 0)),
    "circuit_unitary": circuit_unitary,
    "simulate_noisy": lambda c: simulate_noisy(c, ibmqx4_model()),
}


class TestGateWalk:
    @pytest.mark.parametrize("simulate", SIMULATORS.values(), ids=list(SIMULATORS))
    def test_barriers_are_skipped(self, simulate):
        c = Circuit(2).add("h", 0).barrier().add("cx", 0, 1).barrier(1)
        assert [i.name for i in c.unitary_gates()] == ["h", "cx"]
        simulate(c)

    @pytest.mark.parametrize("simulate", SIMULATORS.values(), ids=list(SIMULATORS))
    @pytest.mark.parametrize(
        "instr",
        [Instruction("measure", (1,), (0,)), Instruction("foo", (0,))],
        ids=["measure", "raw-non-gate"],
    )
    def test_non_gates_raise(self, simulate, instr):
        c = Circuit(2, 1).add("h", 0).barrier()
        c.instructions.append(instr)  # past the validating methods, as a raw instruction
        with pytest.raises(ValueError, match=f"cannot simulate {instr.name!r} as a gate"):
            simulate(c)


class TestApplyCircuit:
    def test_empty_circuit_identity(self):
        psi = basis_state(2, 1)
        out = apply_circuit(Circuit(2), psi)
        assert np.allclose(out.amplitudes, psi.amplitudes)

    @pytest.mark.parametrize("width", [1, 3])
    def test_rejects_state_of_another_width(self, width):
        with pytest.raises(ValueError, match=f"circuit has 2 qubits, state has {width}"):
            apply_circuit(Circuit(2).add("h", 0), basis_state(width, 0))

    def test_control_prep(self):
        # H, S, T, S on |0>
        c = Circuit(1)
        for g in ("h", "s", "t", "s"):
            c.add(g, 0)
        out = apply_circuit(c, basis_state(1, 0))
        expected = np.array([1, -np.exp(1j * np.pi / 4)]) / np.sqrt(2)
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-9

    def test_signal_prep(self):
        # H, T, H, S on |0>, up to global phase
        c = Circuit(1)
        for g in ("h", "t", "h", "s"):
            c.add(g, 0)
        out = apply_circuit(c, basis_state(1, 0))
        assert equal_up_to_global_phase(out, StateVector(1, PSI_S), 1e-9)

    def test_rejects_measure(self):
        c = Circuit(1, 1)
        c.measure(0, 0)
        with pytest.raises(ValueError):
            apply_circuit(c, basis_state(1, 0))

    def test_matches_unitary_path(self):
        rng = np.random.default_rng(5)
        gates1 = ["h", "x", "s", "sdg", "t", "tdg"]
        for _ in range(10):
            c = Circuit(3)
            for _ in range(12):
                if rng.random() < 0.3:
                    q = rng.permutation(3)[:2]
                    c.add("cx", int(q[0]), int(q[1]))
                else:
                    c.add(str(rng.choice(gates1)), int(rng.integers(3)))
            amps = rng.normal(size=8) + 1j * rng.normal(size=8)
            psi = StateVector(3, amps / np.linalg.norm(amps))
            via_apply = apply_circuit(c, psi).amplitudes
            via_matrix = circuit_unitary(c) @ psi.amplitudes
            assert np.max(np.abs(via_apply - via_matrix)) < 1e-9


class TestCircuitUnitary:
    def test_single_h(self):
        c = Circuit(1).add("h", 0)
        assert np.allclose(circuit_unitary(c), gate_matrix("h"))

    def test_cnot_permutation(self):
        c = Circuit(2).add("cx", 0, 1)
        expected = np.eye(4)
        expected[[2, 3]] = expected[[3, 2]]
        assert np.allclose(circuit_unitary(c), expected)

    def test_unitarity(self):
        u = circuit_unitary(named_router_circuit("router-superposition"))
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-9

    def test_embed_gate_nonadjacent(self):
        u = embed_gate(gate_matrix("cx"), (2, 0), 3)
        # control q2 (LSB), target q0 (MSB)
        psi = np.zeros(8)
        psi[0b001] = 1
        assert np.argmax(np.abs(u @ psi)) == 0b101


def random_operator(rng, k):
    d = 2**k
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


class TestTensorKernel:
    """``_apply_tensor`` against the tensordot + moveaxis reference, bit for bit."""

    @pytest.mark.parametrize("batch", [None, 3], ids=["no-batch", "batch"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_equal_to_tensordot_reference(self, n, batch):
        rng = np.random.default_rng([n, batch or 0])
        shape = (2,) * n + ((batch,) if batch else ())
        tensor = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for k in (1, 2, 4):
            # every ordered placement, so unsorted ones such as (3, 1) are included
            for qubits in itertools.permutations(range(n), k):
                u = random_operator(rng, k)
                got = _apply_tensor(tensor, u, qubits)
                assert np.array_equal(got, tensordot_apply(tensor, u, qubits)), qubits

    @pytest.mark.parametrize("n", [4, 5])
    def test_superoperator_placements_on_rho(self, n):
        # a 16x16 superoperator on the (row, column) axes of two qubits of rho,
        # past the six axes above, e.g. (3, 1, n + 3, n + 1)
        rng = np.random.default_rng(n)
        rho = rng.normal(size=(2,) * (2 * n)) + 1j * rng.normal(size=(2,) * (2 * n))
        for a, b in itertools.permutations(range(n), 2):
            qubits = (a, b, n + a, n + b)
            sop = random_operator(rng, 4)
            assert np.array_equal(
                _apply_tensor(rho, sop, qubits), tensordot_apply(rho, sop, qubits)
            ), qubits

    @pytest.mark.parametrize("lead", [0, 1, 2])
    def test_real_confusion_matrix(self, lead):
        rng = np.random.default_rng(lead)
        confusion = np.array([[0.98, 0.02], [0.02, 0.98]])
        for n in range(1, 7):
            probs = rng.random((3,) * lead + (2,) * n)
            for axis in range(lead, lead + n):
                got = _apply_tensor(probs, confusion, (axis,))
                assert got.dtype == np.float64
                assert np.array_equal(got, tensordot_apply(probs, confusion, (axis,)))

    def test_simulators_equal_with_reference_kernel(self, monkeypatch):
        circuits = []
        for name in ROUTER_EXPERIMENTS:
            c = named_router_circuit(name)
            circuits += [c, transpile(apply_layout(c, (2, 0, 1), 5), IBMQX4_COUPLING)]
        probs = np.random.default_rng(1).random((4, 32))
        probs /= probs.sum(axis=1, keepdims=True)

        def run_all():
            out = []
            for c in circuits:
                out.append(apply_circuit(c, basis_state(c.n_qubits, 0)).amplitudes)
                out.append(circuit_unitary(c))
                out.append(simulate_noisy(c, ibmqx4_model()).matrix)
            out.append(readout_flip(probs, 0.02))
            return out

        fast = run_all()
        monkeypatch.setattr(gates, "_apply_tensor", tensordot_apply)
        monkeypatch.setattr(noise, "_apply_tensor", tensordot_apply)
        reference = run_all()
        assert len(fast) == len(reference) == 19
        for got, want in zip(fast, reference):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_permutation_cache_is_bounded(self):
        assert gates._axis_orders.cache_info().maxsize is not None
        perm, inverse = gates._axis_orders(4, (3, 1))
        assert perm == (3, 1, 0, 2) and inverse == (2, 1, 3, 0)


class TestFredkin:
    def test_unitary_matches_cswap(self):
        u = circuit_unitary(fredkin_circuit(0, 1, 2))
        assert max_dev_up_to_phase(u, cswap_permutation()) < 1e-10

    def test_control_set_swaps(self):
        psi = basis_state(3, 0b110)  # |1>|1>|0>
        out = apply_circuit(fredkin_circuit(0, 1, 2), psi)
        assert equal_up_to_global_phase(out, basis_state(3, 0b101), 1e-9)

    def test_control_clear_identity(self):
        psi = StateVector(3, np.kron([1, 0], np.kron(PSI_S, PLUS)))
        out = apply_circuit(fredkin_circuit(0, 1, 2), psi)
        assert equal_up_to_global_phase(out, psi, 1e-9)

    def test_alternate_operand_order(self):
        u = circuit_unitary(fredkin_circuit(2, 0, 1))
        m = np.zeros((8, 8))
        for i in range(8):
            a, b, c = (i >> 2) & 1, (i >> 1) & 1, i & 1
            if c:
                a, b = b, a
            m[(a << 2) | (b << 1) | c, i] = 1
        assert max_dev_up_to_phase(u, m) < 1e-10

    def test_rejects_repeated_indices(self):
        with pytest.raises(ValueError):
            fredkin_circuit(0, 0, 1)


class TestRouterCircuit:
    def test_rejects_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown router experiment 'router-foo'"):
            named_router_circuit("router-foo")

    def test_superposition_final_state(self):
        out = apply_circuit(
            named_router_circuit("router-superposition"), basis_state(3, 0)
        )
        assert equal_up_to_global_phase(out, StateVector(3, psi_f_amplitudes()), 1e-10)

    def test_control0_final_state(self):
        out = apply_circuit(named_router_circuit("router-control0"), basis_state(3, 0))
        expected = StateVector(3, np.kron([1, 0], np.kron(PSI_S, PLUS)))
        assert equal_up_to_global_phase(out, expected, 1e-10)

    def test_control1_final_state(self):
        out = apply_circuit(named_router_circuit("router-control1"), basis_state(3, 0))
        expected = StateVector(3, np.kron([0, 1], np.kron(PLUS, PSI_S)))
        assert equal_up_to_global_phase(out, expected, 1e-10)

    def test_custom_prep_list(self):
        c = router_circuit(("h",), ("x",))
        out = apply_circuit(c, basis_state(3, 0))
        # control |+>, signal |1>, null |+>: CSWAP leaves |1> on path1 for the
        # |0> branch and moves it to path2 for the |1> branch
        expected = (
            np.kron([1, 0], np.kron([0, 1], PLUS))
            + np.kron([0, 1], np.kron(PLUS, [0, 1]))
        ) / np.sqrt(2)
        assert equal_up_to_global_phase(out, StateVector(3, expected), 1e-9)

    def test_invalid_prep(self):
        with pytest.raises(ValueError):
            router_circuit("nonsense", "paper-signal")
        with pytest.raises(ValueError):
            router_circuit(("cx",), ())

    def test_routing_preservation_random_preps(self):
        rng = np.random.default_rng(17)
        gates1 = ["h", "x", "s", "sdg", "t", "tdg"]
        for _ in range(20):
            prep = tuple(rng.choice(gates1) for _ in range(int(rng.integers(1, 7))))
            target = to_density(prep_state(prep))
            out0 = apply_circuit(router_circuit("zero", prep), basis_state(3, 0))
            red = partial_trace(to_density(out0), [1])
            assert np.max(np.abs(red.matrix - target.matrix)) < 1e-10
            out1 = apply_circuit(router_circuit("one", prep), basis_state(3, 0))
            red = partial_trace(to_density(out1), [2])
            assert np.max(np.abs(red.matrix - target.matrix)) < 1e-10
