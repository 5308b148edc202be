import itertools
import json
import re
import sys
import warnings

import numpy as np
import pytest

from qrouter import noise
from qrouter.gates import (
    GATE_ARITY,
    GATE_MATRICES,
    ROUTER_EXPERIMENTS,
    Circuit,
    apply_circuit,
    embed_gate,
    named_router_circuit,
)
from qrouter.noise import (
    IBMQX4_QUBITS,
    NoiseModel,
    QubitParams,
    amplitude_damping,
    apply_channel,
    depolarizing,
    ibmqx4_model,
    noise_model_from_json,
    phase_damping,
    readout_flip,
    simulate_noisy,
)
from qrouter.qasm import IBMQX4_COUPLING, UnroutableCnotError, apply_layout, transpile
from qrouter.qstate import (
    DensityMatrix,
    StateVector,
    basis_state,
    negativity,
    partial_trace,
    to_density,
)
from qrouter.tomography import fidelity


def zero_model(**kw):
    base = dict(p1=0.0, p2=0.0, p_readout=0.0, dur_1q_ns=0.0, dur_2q_ns=0.0)
    base.update(kw)
    return ibmqx4_model(**base)


def bell_rho():
    return to_density(StateVector(2, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)))


class TestDeviceTable:
    def test_five_qubits(self):
        assert len(IBMQX4_QUBITS) == 5

    def test_q0_row(self):
        q0 = IBMQX4_QUBITS[0]
        assert (q0.t1_us, q0.t2_us) == (35.2, 38.1)

    def test_q4_row(self):
        q4 = IBMQX4_QUBITS[4]
        assert (q4.t1_us, q4.t2_us) == (49.5, 19.2)

    def test_physicality(self):
        for q in IBMQX4_QUBITS:
            assert 0 < q.t2_us <= 2 * q.t1_us

    def test_rejects_nonpositive_t1(self):
        with pytest.raises(ValueError):
            QubitParams(t1_us=0.0, t2_us=1.0)

    @pytest.mark.parametrize("t1, t2", [(np.nan, 1.0), (1.0, np.nan)])
    def test_rejects_nan_times(self, t1, t2):
        with pytest.raises(ValueError, match="T1 and T2 must be positive"):
            QubitParams(t1_us=t1, t2_us=t2)

    def test_unphysical_t2_is_clamped_with_one_warning_from_the_calling_line(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = sys._getframe().f_lineno + 1
            row = QubitParams(10.0, 30.0)
            at_bound = QubitParams(10.0, 20.0)  # kept, and no warning
        assert row.t2_us == 20.0 and row == at_bound
        assert [str(w.message) for w in caught] == [
            "T2 = 30.0 exceeds 2*T1 = 20.0; clamping dephasing rate to 0"
        ]
        assert caught[0].category is UserWarning
        assert (caught[0].filename, caught[0].lineno) == (__file__, line)


class TestNoiseModel:
    def test_defaults_match_error_orders(self):
        m = ibmqx4_model()
        assert m.p1 == 1e-3 and m.p2 == 1e-2 and m.p_readout == 0.02
        assert m.dur_1q_ns == 100.0 and m.dur_2q_ns == 400.0

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            NoiseModel(qubits=IBMQX4_QUBITS, p1=1.5)

    @pytest.mark.parametrize("field", ["dur_1q_ns", "dur_2q_ns"])
    def test_rejects_nan_duration(self, field):
        with pytest.raises(ValueError, match="gate durations must be nonnegative"):
            NoiseModel(qubits=IBMQX4_QUBITS, **{field: np.nan})

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("where", ["t1_us", "t2_us", "p1", "dur_1q_ns"])
    def test_json_rejects_non_finite_numbers(self, text, where):
        # Python's json reads these literals, which RFC 8259 JSON does not have
        doc = {"qubits": [{"t1_us": 10.0, "t2_us": 12.0}]}
        (doc["qubits"][0] if where.startswith("t") else doc)[where] = float(text)
        with pytest.raises(noise.DeviceFileError, match=f"'{where}' is not finite"):
            noise_model_from_json(json.dumps(doc))

    def test_json_overrides(self):
        m = noise_model_from_json(
            '{"qubits": [{"t1_us": 10, "t2_us": 12, "qubit_freq_ghz": 5.2}],'
            ' "p2": 0.005, "dur_2q_ns": 300}'
        )
        assert m.qubits[0].t1_us == 10
        assert m.p2 == 0.005 and m.dur_2q_ns == 300
        assert m.p1 == 1e-3  # untouched default


def channel_completeness(ch):
    total = sum(k.conj().T @ k for k in ch)
    return np.max(np.abs(total - np.eye(ch.shape[1])))


def dense_channel(rho, ch, qubits):
    """Reference: sum of K rho K^dagger with each K lifted to a dense 2^n x 2^n matrix."""
    out = np.zeros_like(rho.matrix)
    for k in ch:
        full = embed_gate(k, qubits, rho.n_qubits)
        out += full @ rho.matrix @ full.conj().T
    return out


def random_density(rng, n):
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    m = a @ a.conj().T
    return DensityMatrix(n, m / np.trace(m))


def random_channel(rng, n_qubits, n_ops=3):
    # the blocks of an isometry V (V^dagger V = I) form a complete Kraus set
    d = 2**n_qubits
    a = rng.normal(size=(n_ops * d, d)) + 1j * rng.normal(size=(n_ops * d, d))
    v, _ = np.linalg.qr(a)
    return noise._kraus(v.reshape(n_ops, d, d))


class TestAmplitudeDamping:
    def test_zero_duration_identity(self):
        ch = amplitude_damping(0.0, 35.2)
        rho = bell_rho()
        out = apply_channel(rho, ch, (0,))
        assert np.allclose(out.matrix, rho.matrix)

    def test_long_time_relaxes_to_ground(self):
        ch = amplitude_damping(1e9, 35.2)
        out = apply_channel(to_density(basis_state(1, 1)), ch, (0,))
        assert np.allclose(out.matrix, [[1, 0], [0, 0]], atol=1e-6)

    def test_q0_one_lifetime(self):
        # t = T1 exactly: excited population decays by e^-1
        ch = amplitude_damping(35.2 * 1000.0, IBMQX4_QUBITS[0].t1_us)
        out = apply_channel(to_density(basis_state(1, 1)), ch, (0,))
        gamma = 1.0 - np.exp(-1.0)
        assert abs(out.matrix[1, 1].real - (1 - gamma)) < 1e-12

    def test_rejects_nonpositive_t1(self):
        with pytest.raises(ValueError):
            amplitude_damping(10.0, 0.0)

    @pytest.mark.parametrize(
        "args, message",
        [((np.nan, 35.2), "duration must be nonnegative"), ((10.0, np.nan), "T1 must be positive")],
        ids=["duration", "t1"],
    )
    def test_rejects_nan(self, args, message):
        with pytest.raises(ValueError, match=message):
            amplitude_damping(*args)


class TestPhaseDamping:
    def test_zero_duration_identity(self):
        ch = phase_damping(0.0, 35.2, 38.1)
        out = apply_channel(to_density(StateVector(1, [1, 1] / np.sqrt(2))), ch, (0,))
        assert abs(out.matrix[0, 1] - 0.5) < 1e-12

    def test_t2_equals_2t1_is_identity(self):
        ch = phase_damping(500.0, 20.0, 40.0)
        out = apply_channel(to_density(StateVector(1, [1, 1] / np.sqrt(2))), ch, (0,))
        assert abs(out.matrix[0, 1] - 0.5) < 1e-12

    def test_q4_decay_factor(self):
        t1, t2 = IBMQX4_QUBITS[4].t1_us, IBMQX4_QUBITS[4].t2_us
        t_us = 19.2
        ch = phase_damping(t_us * 1000.0, t1, t2)
        out = apply_channel(to_density(StateVector(1, [1, 1] / np.sqrt(2))), ch, (0,))
        rate = 1.0 / t2 - 1.0 / (2.0 * t1)
        assert abs(out.matrix[0, 1].real - 0.5 * np.exp(-t_us * rate)) < 1e-12

    @pytest.mark.parametrize(
        "args, message",
        [
            ((np.nan, 35.2, 38.1), "duration must be nonnegative"),
            ((100.0, np.nan, 38.1), "T1 and T2 must be positive"),
            ((100.0, 35.2, np.nan), "T1 and T2 must be positive"),
        ],
        ids=["duration", "t1", "t2"],
    )
    def test_rejects_nan(self, args, message):
        with pytest.raises(ValueError, match=message):
            phase_damping(*args)

    def test_unphysical_t2_clamps_with_warning(self):
        with pytest.warns(UserWarning):
            ch = phase_damping(100.0, 10.0, 30.0)
        assert channel_completeness(ch) < 1e-9


class TestDepolarizing:
    def test_p_zero_identity(self):
        rho = bell_rho()
        out = apply_channel(rho, depolarizing(0.0, 2), (0, 1))
        assert np.allclose(out.matrix, rho.matrix)

    def test_p_one_fully_mixes(self):
        out = apply_channel(to_density(basis_state(1, 1)), depolarizing(1.0, 1), (0,))
        assert np.allclose(out.matrix, np.eye(2) / 2)

    def test_small_p_on_ground_state(self):
        out = apply_channel(to_density(basis_state(1, 0)), depolarizing(0.01, 1), (0,))
        assert np.allclose(np.diag(out.matrix).real, [0.995, 0.005])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            depolarizing(1.2, 1)
        with pytest.raises(ValueError):
            depolarizing(0.1, 3)

    def test_bell_negativity_monotone_in_p(self):
        values = []
        for p in np.linspace(0.0, 0.6, 7):
            out = apply_channel(bell_rho(), depolarizing(float(p), 1), (0,))
            values.append(negativity(out, [0], [1]))
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestKrausChannel:
    """A channel is a checked (k, d, d) stack of Kraus operators; ``apply_channel``
    checks the operators it is handed."""

    def test_rejects_no_operators(self):
        with pytest.raises(ValueError, match="at least one Kraus operator"):
            apply_channel(to_density(basis_state(1, 0)), [], (0,))

    def test_rejects_incomplete_set(self):
        with pytest.raises(ValueError):
            apply_channel(to_density(basis_state(1, 0)), [np.diag([0.5, 0.5])], (0,))

    def test_rejects_nan_operator(self):
        with pytest.raises(ValueError, match="sum K\\^dag K = I"):
            apply_channel(to_density(basis_state(1, 0)), [np.full((2, 2), np.nan)], (0,))

    @pytest.mark.parametrize(
        "ops",
        [GATE_MATRICES["h"], np.eye(2), np.ones((1, 2, 1)), np.ones((1, 2, 2, 2)),
         np.ones((1, 0, 0))],
        ids=["bare-unitary", "bare-identity", "not-square", "4-d", "0x0"],
    )
    def test_rejects_what_is_not_a_stack_of_square_matrices(self, ops):
        """A bare matrix is not read as a list of 1-D operators: the refusal names the shape."""
        message = re.escape(f"(k, d, d) stack of matrices, not {ops.shape}")
        with pytest.raises(ValueError, match=message):
            apply_channel(to_density(basis_state(1, 0)), ops, (0,))

    @pytest.mark.parametrize(
        "ch",
        [
            amplitude_damping(123.0, 35.2),
            phase_damping(400.0, 49.5, 19.2),
            depolarizing(0.01, 1),
            depolarizing(0.01, 2),
        ],
    )
    def test_trace_preservation(self, ch):
        assert channel_completeness(ch) < 1e-9

    @pytest.mark.parametrize("qubits", [(0,), (2,), (0, 2), (2, 0), (2, 1)])
    def test_apply_channel_matches_dense_reference(self, qubits):
        rng = np.random.default_rng(sum(q << (2 * i) for i, q in enumerate(qubits)))
        rho = random_density(rng, 3)
        ch = random_channel(rng, len(qubits))
        out = apply_channel(rho, ch, qubits)
        assert np.max(np.abs(out.matrix - dense_channel(rho, ch, qubits))) <= 1e-12

    def test_apply_channel_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_channel(bell_rho(), depolarizing(0.1, 2), (0,))

    def test_full_damping_moves_excitation(self):
        rho = to_density(basis_state(2, 0b11))
        out = apply_channel(rho, amplitude_damping(1e9, 1.0), (1,))
        assert np.allclose(out.matrix, to_density(basis_state(2, 0b10)).matrix, atol=1e-6)


class TestReadoutFlip:
    def test_p_zero_unchanged(self):
        d = np.array([0.25, 0.25, 0.25, 0.25])
        assert np.allclose(readout_flip(d, 0.0), d)

    def test_deterministic_zero(self):
        out = readout_flip([1.0, 0.0], 0.02)
        assert np.allclose(out, [0.98, 0.02])

    def test_half_is_uniform(self):
        out = readout_flip([0.9, 0.1], 0.5)
        assert np.allclose(out, [0.5, 0.5])

    def test_rejects_invalid_distribution(self):
        with pytest.raises(ValueError):
            readout_flip([0.5, 0.2], 0.1)

    @pytest.mark.parametrize(
        "probs",
        [[np.nan, 1.0], [1.0, np.nan], [np.inf, 0.0], [-np.inf, 1.0], [[0.5, 0.5], [np.nan, 1.0]]],
        ids=["nan", "nan-second", "inf", "minus-inf", "nan-row"],
    )
    @pytest.mark.parametrize("p_readout", [0.0, 0.1])
    def test_rejects_non_finite_entries(self, probs, p_readout):
        with pytest.raises(ValueError, match="not a probability distribution"):
            readout_flip(probs, p_readout)

    @pytest.mark.parametrize("p_readout", [1.5, -0.1])
    def test_rejects_probability_outside_unit_interval(self, p_readout):
        with pytest.raises(ValueError, match=f"probability {p_readout} outside"):
            readout_flip([0.5, 0.5], p_readout)

    @pytest.mark.parametrize("probs", [[], np.zeros((3, 0)), [0.2, 0.3, 0.5]])
    def test_rejects_length_not_a_power_of_two(self, probs):
        for p_readout in (0.0, 0.02):
            with pytest.raises(ValueError, match="power of 2"):
                readout_flip(probs, p_readout)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_batched_equals_row_by_row(self, n):
        rng = np.random.default_rng(70 + n)
        stack = rng.random((2, 5, 2**n)) * (rng.random((2, 5, 2**n)) < 0.7)
        stack[..., 0] += 0.1
        stack /= stack.sum(axis=-1, keepdims=True)
        tol = 4**n * np.finfo(float).eps
        for p_readout in (0.0, 0.02, 0.5):
            out = readout_flip(stack, p_readout)
            assert out.shape == stack.shape
            for row, got in zip(stack.reshape(-1, 2**n), out.reshape(-1, 2**n)):
                assert np.max(np.abs(got - readout_flip(row, p_readout))) <= tol
        with pytest.raises(ValueError, match="probability distribution"):
            readout_flip(np.stack([stack[0, 0], 2 * stack[0, 0]]), 0.02)


class TestSimulateNoisy:
    def test_zero_noise_matches_pure_simulation(self):
        for name in ["router-superposition", "router-control0", "router-control1"]:
            c = named_router_circuit(name)
            rho = simulate_noisy(c, zero_model())
            ideal = to_density(apply_circuit(c, basis_state(3, 0)))
            assert np.max(np.abs(rho.matrix - ideal.matrix)) < 1e-9

    def test_default_model_fidelity_band(self):
        c = named_router_circuit("router-superposition")
        rho = simulate_noisy(c, ibmqx4_model())
        ideal = to_density(apply_circuit(c, basis_state(3, 0)))
        assert 0.9 < fidelity(rho, ideal) < 1.0

    def test_single_x_depolarizing_closed_form(self):
        c = Circuit(1).add("x", 0)
        rho = simulate_noisy(c, zero_model(p1=1e-3))
        # F = sqrt(<1|rho|1>) with <1|rho|1> = 1 - p/2
        f = fidelity(rho, to_density(basis_state(1, 1)))
        assert abs(f - np.sqrt(1 - 1e-3 / 2)) < 5e-4

    def test_monotone_in_noise_scale(self):
        c = named_router_circuit("router-control1")
        ideal = to_density(apply_circuit(c, basis_state(3, 0)))
        fids = []
        for factor in (0.0, 1.0, 2.0, 4.0):
            m = ibmqx4_model(
                p1=1e-3 * factor,
                p2=1e-2 * factor,
                dur_1q_ns=100.0 * factor,
                dur_2q_ns=400.0 * factor,
            )
            fids.append(fidelity(simulate_noisy(c, m), ideal))
        assert all(a >= b - 1e-9 for a, b in zip(fids, fids[1:]))

    def test_output_is_valid_density_matrix(self):
        rho = simulate_noisy(named_router_circuit("router-control0"), ibmqx4_model())
        assert isinstance(rho, DensityMatrix)  # constructor enforces invariants

    def test_rejects_measure(self):
        c = Circuit(1, 1)
        c.measure(0, 0)
        with pytest.raises(ValueError):
            simulate_noisy(c, ibmqx4_model())

    def test_rejects_too_many_qubits(self):
        message = "model calibrates 5 qubits, circuit needs 6"
        with pytest.raises(ValueError, match=message):
            simulate_noisy(Circuit(6).add("h", 5), ibmqx4_model())
        # the check is on the circuit's width, not on the qubits simulated
        for keep in (None, [0]):
            with pytest.raises(ValueError, match=message):
                simulate_noisy(Circuit(6).add("h", 0), ibmqx4_model(), keep)

    @pytest.mark.parametrize(
        "keep, message",
        [
            ([0, 0], "repeated qubit operand in [0, 0]"),
            ([], "keep set must be nonempty"),
            ([5], "qubit 5 out of range for register of 5"),
            ([-1], "qubit -1 out of range for register of 5"),
            ([2, 0, 2], "repeated qubit operand in [2, 0, 2]"),
        ],
        ids=["repeat", "empty", "past-register", "negative", "repeat-of-three"],
    )
    def test_keep_checked_as_partial_trace_checks_it(self, keep, message):
        c = transpile(
            apply_layout(named_router_circuit("router-control1"), (2, 0, 1), 5),
            IBMQX4_COUPLING,
        )
        with pytest.raises(ValueError) as expected:
            partial_trace(to_density(basis_state(5, 0)), keep)
        with pytest.raises(ValueError) as got:
            simulate_noisy(c, ibmqx4_model(), keep)
        assert str(got.value) == str(expected.value)
        assert str(got.value) == message


def per_kraus_reference(c, model):
    """The pinned noise order, one validated ``dense_channel`` (sum of K rho K^dagger
    over dense lifted Kraus operators) per stage."""

    def stage(rho, ch, qubits):
        return DensityMatrix(rho.n_qubits, dense_channel(rho, ch, qubits))

    rho = to_density(basis_state(c.n_qubits, 0))
    for instr in c.gate_instructions():
        qubits = instr.qubits
        two = GATE_ARITY[instr.name] == 2
        dur = model.dur_2q_ns if two else model.dur_1q_ns
        rho = stage(rho, [GATE_MATRICES[instr.name]], qubits)
        rho = stage(rho, depolarizing(model.p2 if two else model.p1, len(qubits)), qubits)
        for q in qubits:
            params = model.qubits[q]
            rho = stage(rho, amplitude_damping(dur, params.t1_us), (q,))
            rho = stage(rho, phase_damping(dur, params.t1_us, params.t2_us), (q,))
    return rho


def random_circuit(rng, n, n_gates):
    c = Circuit(n)
    for _ in range(n_gates):
        if rng.random() < 0.4:
            a, b = rng.choice(n, 2, replace=False)
            c.add("cx", int(a), int(b))
        else:
            c.add(str(rng.choice(["h", "x", "s", "sdg", "t", "tdg"])), int(rng.integers(n)))
        if rng.random() < 0.05:
            c.barrier()
    return c


def equivalence_circuits():
    for name in ROUTER_EXPERIMENTS:
        c = named_router_circuit(name)
        yield f"{name}-3q", c
        yield f"{name}-5q", transpile(apply_layout(c, (2, 0, 1), 5), IBMQX4_COUPLING)
    rng = np.random.default_rng(2024)
    for i in range(10):
        yield f"random-4q-{i}", random_circuit(rng, 4, 25)


SECOND_MODEL = NoiseModel(
    qubits=(
        QubitParams(20.0, 31.0),
        QubitParams(61.0, 24.5),
        QubitParams(15.5, 29.0),
        QubitParams(82.0, 101.0),
        QubitParams(33.0, 12.0),
    ),
    p1=4e-3,
    p2=3e-2,
    dur_1q_ns=55.0,
    dur_2q_ns=650.0,
)


class TestFusedSimulator:
    @pytest.mark.parametrize("model", [ibmqx4_model(), SECOND_MODEL], ids=["ibmqx4", "second"])
    def test_matches_per_kraus_reference(self, model):
        for label, c in equivalence_circuits():
            fused = simulate_noisy(c, model).matrix
            reference = per_kraus_reference(c, model).matrix
            assert np.max(np.abs(fused - reference)) <= 1e-12, label

    def test_unphysical_t2_still_warns(self):
        # where the row is made; neither simulation warns again
        with pytest.warns(UserWarning, match="clamping dephasing rate"):
            model = NoiseModel(qubits=(QubitParams(10.0, 30.0), QubitParams(35.2, 38.1)))
        c = Circuit(2).add("h", 0).add("cx", 0, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = simulate_noisy(c, model)
            reference = per_kraus_reference(c, model)
        assert np.max(np.abs(rho.matrix - reference.matrix)) <= 1e-12

    def test_unphysical_t2_warns_once_per_row_not_per_call(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = NoiseModel(qubits=(QubitParams(10.0, 30.0), QubitParams(35.2, 38.1)))
            assert len(caught) == 1
            c = Circuit(2).add("h", 0).add("cx", 0, 1)
            runs = [simulate_noisy(c, model).matrix for _ in range(2)]
            # a trailing block on the clamped qubit, also when that qubit is traced out
            c.add("t", 0)
            rho = simulate_noisy(c, model, keep=[1])
            simulate_noisy(Circuit(2).add("x", 1), model, keep=[0, 1])
        assert len(caught) == 1
        assert np.array_equal(*runs) and rho.n_qubits == 1

    def test_one_clamping_warning_per_row_from_the_line_that_makes_it(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = sys._getframe().f_lineno + 1
            rows = (QubitParams(10.0, 30.0), QubitParams(35.2, 38.1), QubitParams(20.0, 41.0))
            model = NoiseModel(qubits=rows)
            # six gates in three blocks (two CNOTs and a trailing one) touch the clamped qubit 0
            c = Circuit(3).add("h", 0).add("t", 0).add("cx", 0, 1).add("x", 0).add("cx", 1, 0)
            c.add("s", 0).add("cx", 2, 1)
            for _ in range(2):
                simulate_noisy(c, model)
                per_kraus_reference(c, model)
        assert [str(w.message) for w in caught] == [
            "T2 = 30.0 exceeds 2*T1 = 20.0; clamping dephasing rate to 0",
            "T2 = 41.0 exceeds 2*T1 = 40.0; clamping dephasing rate to 0",
        ]
        for w in caught:
            assert w.category is UserWarning and (w.filename, w.lineno) == (__file__, line)

    def test_unphysical_row_simulates_as_the_row_at_the_bound(self):
        rng = np.random.default_rng(34)
        bound = NoiseModel(qubits=(QubitParams(10.0, 20.0), *IBMQX4_QUBITS[1:4]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the clamping warning is pinned above
            clamped = NoiseModel(qubits=(QubitParams(10.0, 30.0), *IBMQX4_QUBITS[1:4]))
            for _ in range(5):
                c = random_circuit(rng, 4, 20)
                assert np.array_equal(simulate_noisy(c, clamped).matrix,
                                      simulate_noisy(c, bound).matrix)

    def test_models_share_no_superoperators(self):
        models = [ibmqx4_model(), SECOND_MODEL, ibmqx4_model(p1=2e-3), ibmqx4_model()]
        circuits = list(equivalence_circuits())[:6]
        for model in models + models[::-1]:
            for label, c in circuits:
                fused = simulate_noisy(c, model).matrix
                reference = per_kraus_reference(c, model).matrix
                assert np.max(np.abs(fused - reference)) <= 1e-12, label

    def test_one_contraction_per_block_and_one_validation(self, monkeypatch):
        c = transpile(
            apply_layout(named_router_circuit("router-superposition"), (2, 0, 1), 5),
            IBMQX4_COUPLING,
        )
        c.barrier()
        c.add("t", 2).add("h", 0).add("s", 2)  # two trailing blocks: (t, s) on 2, h on 0
        model = ibmqx4_model()
        keep = (2, 0, 1)
        contractions = []
        built = []
        apply_superop = noise._apply_superop

        def counting_apply(t, sop, qubits):  # only rho's contractions go through it
            contractions.append(qubits)
            return apply_superop(t, sop, qubits)

        def counting_density(*args, **kwargs):
            built.append(args)
            return DensityMatrix(*args, **kwargs)

        monkeypatch.setattr(noise, "_apply_superop", counting_apply)
        monkeypatch.setattr(noise, "DensityMatrix", counting_density)
        rho = simulate_noisy(c, model, keep)
        # a CNOT takes in the 1-qubit gates pending on its qubits; the rest are
        # one block per qubit, in the order their first gate came. The circuit
        # touches qubits 0-2 only, so they are the simulated register.
        blocks, pending = [], {}
        for instr in c.gate_instructions():
            if len(instr.qubits) == 2:
                for q in instr.qubits:
                    pending.pop(q, None)
                blocks.append(instr.qubits)
            else:
                pending.setdefault(instr.qubits[0], None)
        blocks += [(q,) for q in pending]
        assert blocks[-2:] == [(2,), (0,)]
        assert sorted({q for i in c.gate_instructions() for q in i.qubits}) == [0, 1, 2]
        assert contractions == blocks
        assert len(contractions) < len(c.gate_instructions())
        assert len(built) == 1
        assert built[0][0] == 3 and rho.n_qubits == 3


class TestKeep:
    """``simulate_noisy(c, m, keep)`` simulates only the touched and kept qubits
    and equals ``partial_trace(simulate_noisy(c, m), keep)``, bit for bit
    wherever the simulated register is wider than a block."""

    @pytest.mark.parametrize("model", [ibmqx4_model(), SECOND_MODEL], ids=["ibmqx4", "second"])
    def test_keep_equals_partial_trace_of_every_router_layout(self, model):
        runs = 0
        for name in ROUTER_EXPERIMENTS:
            for layout in itertools.permutations(range(5), 3):
                try:
                    c = transpile(
                        apply_layout(named_router_circuit(name), layout, 5), IBMQX4_COUPLING
                    )
                except UnroutableCnotError:
                    continue
                rho = simulate_noisy(c, model, keep=layout)
                assert rho.n_qubits == 3
                reference = partial_trace(simulate_noisy(c, model), layout)
                assert np.array_equal(rho.matrix, reference.matrix), (name, layout)
                runs += 1
        assert runs == 36  # 12 layouts of ibmqx4 keep every router CNOT on an edge

    def test_keep_equals_partial_trace_of_random_circuits(self):
        rng = np.random.default_rng(1414)
        kept_idle = traced_touched = exact = 0
        for i in range(30):
            model = (ibmqx4_model(), SECOND_MODEL)[i % 2]
            k = int(rng.integers(2, 6))
            c = random_circuit(rng, k, int(rng.integers(1, 30)))
            c = apply_layout(c, [int(q) for q in rng.permutation(5)[:k]], 5)
            keep = [int(q) for q in rng.permutation(5)[: rng.integers(1, 6)]]
            touched = {q for i in c.gate_instructions() for q in i.qubits}
            kept_idle += bool(set(keep) - touched)
            traced_touched += bool(touched - set(keep))
            rho = simulate_noisy(c, model, keep)
            reference = partial_trace(simulate_noisy(c, model), keep)
            if len(touched | set(keep)) > 2:
                assert np.array_equal(rho.matrix, reference.matrix), keep
                exact += 1
            else:
                # a register no wider than a block is a matrix-vector product,
                # which BLAS sums in another order than a matrix-matrix product
                tol = 16 * np.finfo(float).eps
                assert np.max(np.abs(rho.matrix - reference.matrix)) <= tol, keep
        assert kept_idle >= 5 and traced_touched >= 5 and exact >= 25

    def test_idle_qubit_is_never_formed(self, monkeypatch):
        shapes = []
        apply_superop = noise._apply_superop

        def recording_apply(t, sop, qubits):
            shapes.append(t.shape)
            return apply_superop(t, sop, qubits)

        c = Circuit(5).add("h", 3).add("cx", 3, 1)
        monkeypatch.setattr(noise, "_apply_superop", recording_apply)
        rho = simulate_noisy(c, ibmqx4_model(), keep=[1])
        assert shapes == [(2,) * 4] and rho.n_qubits == 1
