import itertools
import re

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
from qrouter.qasm import IBMQX4_COUPLING, apply_layout, parse, serialize, transpile
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
    gate_by_gate_unitary,
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

    @pytest.mark.parametrize(
        "sizes, bad",
        [((2.0,), 2.0), ((True,), True), ((3, 1.0), 1.0), ((3, False), False), (("3",), "3")],
        ids=["float", "bool", "float-clbits", "bool-clbits", "str"],
    )
    def test_rejects_register_size_that_is_not_an_integer(self, sizes, bad):
        # serialize would write ``qreg q[2.0];`` or ``qreg q[True];``, which parse refuses
        with pytest.raises(ValueError) as err:
            Circuit(*sizes)
        assert str(err.value) == f"register size {bad!r} is not an integer"

    def test_integer_register_sizes_round_trip(self):
        c = Circuit(np.int64(2), np.int64(1)).add("h", 0).measure(1, 0)
        assert parse(serialize(c)).n_qubits == 2

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

    def test_append_of_an_empty_barrier_spans_the_register(self):
        c = Circuit(3).append(Instruction("barrier", ()))
        assert c == Circuit(3).barrier() and c.instructions[0].qubits == (0, 1, 2)
        assert parse(serialize(c)) == c

    @pytest.mark.parametrize(
        "instr, message",
        [
            (Instruction("measure", (0,), ()), "measure expects 1 clbit operand, got 0"),
            (Instruction("measure", (), (0,)), "measure expects 1 qubit operand, got 0"),
            (Instruction("measure", (0, 1), (0,)), "measure expects 1 qubit operand, got 2"),
            (Instruction("measure", (0,), (0, 1)), "measure expects 1 clbit operand, got 2"),
            (Instruction("h", (0,), (0,)), "h expects 0 clbit operands, got 1"),
            (Instruction("barrier", (0,), (0,)), "barrier expects 0 clbit operands, got 1"),
        ],
        ids=["no-clbit", "no-qubit", "two-qubits", "two-clbits", "gate-clbit", "barrier-clbit"],
    )
    def test_append_checks_operand_counts_first(self, instr, message):
        c = Circuit(2, 2)
        with pytest.raises(ValueError) as err:
            c.append(instr)
        assert str(err.value) == message and c.instructions == []

    # Each refused ``add`` on a 3-qubit circuit, with its exception class and
    # exact message, whether or not the cache can key the call. ``measured``
    # qubits are measured first; the ordered check then names a measured
    # qubit before a later operand out of range, and the reverse.
    REFUSED_ADDS = {
        "unknown-gate": ((), ("rz", 0), ValueError, "unknown gate 'rz'"),
        "wrong-arity": ((), ("h", 0, 1), ValueError, "h expects 1 qubits, got 2"),
        "repeated": ((), ("cx", 1, 1), ValueError, "repeated qubit operand in (1, 1)"),
        "out-of-range": ((), ("h", 3), ValueError, "qubit 3 out of range for register of 3"),
        "negative": ((), ("cx", 0, -1), ValueError, "qubit -1 out of range for register of 3"),
        "measured-then-out-of-range": (
            (0,), ("cx", 0, 9), ValueError, "qubit 0 was already measured"
        ),
        "out-of-range-then-measured": (
            (0,), ("cx", 9, 0), ValueError, "qubit 9 out of range for register of 3"
        ),
        "unknown-gate-on-measured": ((0,), ("rz", 0), ValueError, "unknown gate 'rz'"),
        "unhashable-operand": ((), ("h", [0]), TypeError, "unhashable type: 'list'"),
        "unhashable-gate": ((), (["h"], 0), TypeError, "unhashable type: 'list'"),
        "unhashable-operand-wrong-arity": (
            (), ("cx", [0]), ValueError, "cx expects 2 qubits, got 1"
        ),
        "unhashable-operand-unknown-gate": ((), ("rz", [0]), ValueError, "unknown gate 'rz'"),
    }

    @pytest.mark.parametrize("case", sorted(REFUSED_ADDS))
    def test_refused_add_keeps_its_error(self, case):
        measured, args, cls, message = self.REFUSED_ADDS[case]
        c = Circuit(3, 3)
        for q in measured:
            c.measure(q, q)
        before = list(c.instructions)
        for _ in range(2):  # a refusal is not cached: the second call checks again
            with pytest.raises(cls) as err:
                c.add(*args)
            assert type(err.value) is cls and str(err.value) == message
        assert c.instructions == before

    @pytest.mark.parametrize(
        "bad",
        [True, False, np.True_, 1.0, np.float64(0.0), "0", None],
        ids=["True", "False", "np.True_", "float", "np.float64", "str", "None"],
    )
    def test_refuses_operands_that_are_not_integers(self, bad):
        message = f"qubit operand {bad!r} is not an integer"
        Circuit(3).add("h", 1).add("cx", 0, 1)  # an equal int's cached entry lets none through
        calls = [
            lambda c: c.add("h", bad),
            lambda c: c.add("cx", 2, bad),
            lambda c: c.measure(bad, 0),
            lambda c: c.barrier(2, bad),
            lambda c: c.append(Instruction("h", (bad,))),
            lambda c: c.append(Instruction("cx", (2, bad))),
            lambda c: c.append(Instruction("measure", (bad,), (0,))),
            lambda c: c.append(Instruction("barrier", (2, bad))),
        ]
        for call in calls:
            c = Circuit(3, 1)
            with pytest.raises(ValueError) as err:
                call(c)
            assert str(err.value) == message and c.instructions == []
        with pytest.raises(ValueError, match=f"clbit operand {re.escape(repr(bad))} is not"):
            Circuit(3, 1).measure(0, bad)

    def test_instructions_are_shared(self):
        a = Circuit(5).add("cx", 1, 0).add("h", 2)
        b = Circuit(5).add("h", 2).add("cx", 1, 0)
        assert a.instructions[0] is b.instructions[1] and a.instructions[1] is b.instructions[0]
        back = parse(serialize(a))
        assert all(x is y for x, y in zip(back.instructions, a.instructions))
        # the register size is part of the key, though the instruction does not hold it
        assert Circuit(3).add("h", 2).instructions[0] == a.instructions[1]
        with pytest.raises(ValueError, match="qubit 2 out of range for register of 2"):
            Circuit(2).add("h", 2)

    def test_instruction_cache_is_bounded(self):
        assert gates._gate.cache_info().maxsize == 4096

    @pytest.mark.parametrize("first", [2, np.int64(2)])
    def test_operand_keeps_its_integer_type(self, first):
        Circuit(5).add("h", first)
        c = Circuit(5).add("h", np.int64(2)).add("cx", np.int64(2), 4)
        assert [type(q) for i in c.instructions for q in i.qubits] == [np.int64, np.int64, int]
        assert serialize(c).endswith("h q[2];\ncx q[2], q[4];\n")
        assert type(Circuit(5).add("h", 2).instructions[0].qubits[0]) is int


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


def random_gate_circuit(rng, n, n_gates, singles_only=False, operand=int):
    """``n_gates`` gates and some barriers on ``n`` qubits; CNOTs on random
    ordered pairs, so both orientations of a pair occur."""
    singles = sorted(gates.SINGLE_QUBIT_GATES)
    c = Circuit(n)
    for _ in range(n_gates):
        if rng.random() < 0.1:
            c.barrier()
        if n > 1 and not singles_only and rng.random() < 0.4:
            a, b = rng.permutation(n)[:2]
            c.add("cx", operand(a), operand(b))
        else:
            c.add(singles[rng.integers(len(singles))], operand(rng.integers(n)))
    return c


class TestFusedUnitary:
    """``circuit_unitary`` applies fused blocks; the gate-by-gate product is its oracle."""

    @pytest.mark.parametrize(
        "kind, operand",
        [("mixed", int), ("singles-only", int), ("int64-operands", np.int64)],
    )
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_gate_by_gate_product(self, n, kind, operand):
        rng = np.random.default_rng([n, len(kind)])
        for n_gates in range(0, 31, 3):
            c = random_gate_circuit(rng, n, n_gates, kind == "singles-only", operand)
            assert np.max(np.abs(circuit_unitary(c) - gate_by_gate_unitary(c))) <= 1e-13

    def test_both_cnot_orientations(self):
        for a, b in [(0, 1), (1, 0)]:
            c = Circuit(2).add("h", 0).add("t", 1).add("cx", a, b).add("s", b)
            assert np.max(np.abs(circuit_unitary(c) - gate_by_gate_unitary(c))) <= 1e-13

    def test_cold_and_warm_cache_agree(self):
        rng = np.random.default_rng(11)
        for n in range(1, 7):
            c = random_gate_circuit(rng, n, 25)
            gates._block_unitary.cache_clear()
            cold = circuit_unitary(c)
            assert np.array_equal(cold, circuit_unitary(c))

    @pytest.mark.parametrize("n", [2, 5])
    def test_one_full_width_product_per_block(self, n, monkeypatch):
        c = random_gate_circuit(np.random.default_rng(n), n, 30)
        n_blocks = len(list(gates._fused_blocks(c.unitary_gates())))
        assert n_blocks < len(c.gate_instructions())
        full = (2,) * n + (2**n,)
        calls = []

        def counting(tensor, u, qubits):
            calls.append(tensor.shape)
            return _apply_tensor(tensor, u, qubits)

        monkeypatch.setattr(gates, "_apply_tensor", counting)
        gates._block_unitary.cache_clear()
        circuit_unitary(c)  # cold: a block is built from 4 x 4 products, not by the kernel
        assert calls == [full] * n_blocks
        calls.clear()
        circuit_unitary(c)  # warm
        assert calls == [full] * n_blocks

    def test_block_cache_is_bounded_and_read_only(self):
        assert gates._block_unitary.cache_info().maxsize == 1024
        block = (("h", (0,)), ("t", (1,)), ("cx", (1, 0)))
        u = gates._block_unitary(block)
        assert not u.flags.writeable
        with pytest.raises(ValueError):
            u[0, 0] = 0
        assert gates._block_unitary(block) is u


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
        # nothing cached in the fast run is reused: unitary blocks are rebuilt from
        # their 4 x 4 factors (noisy blocks are built on every call)
        gates._block_unitary.cache_clear()
        reference = run_all()
        assert len(fast) == len(reference) == 19
        for got, want in zip(fast, reference):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 2])
    def test_idle_qubits_move_results_within_the_documented_bound(self, n):
        # BLAS rounds a column by the column count, and an idle qubit adds columns
        rng, model = np.random.default_rng(n), ibmqx4_model()
        for _ in range(50):
            c, wide = random_gate_circuit(rng, n, 20), Circuit(n + 1)
            for instr in c.instructions:
                wide.append(instr)
            rho = simulate_noisy(wide, model).matrix.reshape(2**n, 2, 2**n, 2)
            assert np.abs(simulate_noisy(c, model).matrix - rho[:, 0, :, 0]).max() <= 1e-15
            psi = apply_circuit(wide, basis_state(n + 1, 0)).amplitudes.reshape(2**n, 2)
            assert np.abs(apply_circuit(c, basis_state(n, 0)).amplitudes - psi[:, 0]).max() <= 1e-15

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
