import json
import math
import sys

import numpy as np
import pytest

from qrouter.qstate import (
    DensityMatrix,
    StateVector,
    _read_complex,
    basis_state,
    density_from_json,
    density_to_json,
    equal_up_to_global_phase,
    negativity,
    partial_trace,
    permute_qubits,
    tensor_product,
    to_density,
    von_neumann_entropy,
)

from ._analytic import C8, PLUS, PSI_S, S8, psi_f_amplitudes


def bell():
    return StateVector(2, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


class TestBasisState:
    def test_single_qubit_zero(self):
        assert np.allclose(basis_state(1, 0).amplitudes, [1, 0])

    def test_three_qubit_zero(self):
        amps = basis_state(3, 0).amplitudes
        assert amps[0] == 1 and np.allclose(amps[1:], 0)

    def test_index_three_of_two_qubits(self):
        assert np.allclose(basis_state(2, 3).amplitudes, [0, 0, 0, 1])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            basis_state(2, 4)


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(1, [1, 1])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            StateVector(1, [np.nan, 0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            StateVector(2, [1, 0])


class TestTensorProduct:
    def test_basis_case(self):
        psi = tensor_product(basis_state(1, 0), basis_state(1, 1))
        assert np.allclose(psi.amplitudes, basis_state(2, 1).amplitudes)

    def test_plus_zero(self):
        psi = tensor_product(StateVector(1, PLUS), basis_state(1, 0))
        assert np.allclose(psi.amplitudes, [1 / np.sqrt(2), 0, 1 / np.sqrt(2), 0])

    def test_router_input_amplitude(self):
        # closed-form product of the three preparation states
        psi_c = StateVector(1, np.array([1, -np.exp(1j * np.pi / 4)]) / np.sqrt(2))
        psi = tensor_product(tensor_product(psi_c, StateVector(1, PSI_S)), StateVector(1, PLUS))
        assert psi.n_qubits == 3
        assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-12
        assert abs(psi.amplitudes[0] - C8 / 2) < 1e-12


class TestToDensity:
    def test_zero(self):
        rho = to_density(basis_state(1, 0))
        assert np.allclose(rho.matrix, [[1, 0], [0, 0]])

    def test_plus(self):
        rho = to_density(StateVector(1, PLUS))
        assert np.allclose(rho.matrix, 0.5 * np.ones((2, 2)))

    def test_signal_state(self):
        rho = to_density(StateVector(1, PSI_S))
        expected = np.array([[C8**2, C8 * S8], [C8 * S8, S8**2]])
        assert np.allclose(rho.matrix, expected)
        assert abs(C8 * S8 - np.sin(np.pi / 4) / 2) < 1e-12

    def test_purity_one(self):
        rho = to_density(StateVector(3, psi_f_amplitudes()))
        assert abs(np.trace(rho.matrix @ rho.matrix).real - 1) < 1e-9


class TestDensityMatrix:
    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, [[1, 1], [0, 0]])

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, [[1, 0], [0, 1]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, [[1.5, 0], [0, -0.5]])

    @pytest.mark.parametrize("matrix", [np.eye(4) / 4, np.full(2, 0.5), [[0.5, 0, 0], [0, 0.5, 0]]])
    def test_rejects_wrong_shape(self, matrix):
        with pytest.raises(ValueError, match="expected 2x2 matrix"):
            DensityMatrix(1, matrix)

    def test_rejects_nan_entry(self):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            DensityMatrix(1, [[1, np.nan], [np.nan, 0]])

    def test_json_round_trip(self):
        rho = to_density(StateVector(3, psi_f_amplitudes()))
        again = density_from_json(density_to_json(rho))
        assert np.allclose(again.matrix, rho.matrix)
        assert again.n_qubits == 3

    @pytest.mark.parametrize(
        "data",
        [
            [1, 2],
            None,
            {"n_qubits": 1},
            {"entries": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
            {"n_qubits": "1", "entries": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
            {"n_qubits": 1.0, "entries": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
            {"n_qubits": True, "entries": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
            {"n_qubits": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
            {"n_qubits": 10**12, "entries": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
            {"n_qubits": -1, "entries": [[[1, 0]]]},
            {"n_qubits": 1, "entries": [[[1, 0], [0, 0]], [[0, 0]]]},
            {"n_qubits": 1, "entries": [[1, 0], [0, 0]]},
            {"n_qubits": 1, "entries": [[[1, 0], [0, 0]], [[0, 0], [0]]]},
            {"n_qubits": 1, "entries": [[["1", 0], [0, 0]], [[0, 0], [0, 0]]]},
            {"n_qubits": 1, "entries": [[[None, 0], [0, 0]], [[0, 0], [0, 0]]]},
            {"n_qubits": 1, "entries": [[[10**400, 0], [0, 0]], [[0, 0], [0, 0]]]},
            {"n_qubits": 1, "entries": [[[0.5, 0], [0, 0]], [[0, 0], [0.2, 0]]]},
        ],
    )
    def test_json_malformed_raises_value_error(self, data):
        with pytest.raises(ValueError):
            density_from_json(data)


def loop_read_complex(pairs, what, error):
    """Reference reader: each pair's type and each number checked one at a time."""

    def number(x):
        if isinstance(x, float):
            return math.isfinite(x)
        return isinstance(x, int) and not isinstance(x, bool) and abs(x) <= sys.float_info.max

    if not isinstance(pairs, list) or not all(
        isinstance(z, list) and len(z) == 2 and all(map(number, z)) for z in pairs
    ):
        raise error(f"{what} must be a list of [re, im] number pairs")
    return np.array([complex(re, im) for re, im in pairs], dtype=complex)


class ReadError(Exception):
    pass


READ_COMPLEX_CASES = {
    "floats": [[0.5, -0.0], [5e-324, 1e16], [1e-7, 0.1 + 0.2]],
    "ints": [[1, 0], [0, -3]],
    "mixed": [[1, 0.5], [0.25, 2]],
    "empty": [],
    "big-int": [[2**1023, 0]],
    "past-float-range": [[0.5, 0.5], [10**400, 0]],
    "nan": [[0.5, 0.5], [0.5, float("nan")]],
    "inf": [[float("inf"), 0.5]],
    "-inf-with-int": [[1, float("-inf")]],
    "bool": [[0.5, True]],
    "bool-only": [[False, True]],
    "string": [[0.5, "0.5"]],
    "none": [[None, 0.5]],
    "short-pair": [[0.5, 0.5], [0.5]],
    "long-pair": [[0.5, 0.5, 0.5]],
    "tuple-pair": [(0.5, 0.5)],
    "dict-pair": [{"re": 0.5, "im": 0.5}],
    "string-pair": ["ab"],
    "nested": [[[0.5], [0.5]]],
    "not-a-list": {"0": [0.5, 0.5]},
    "scalar": 0.5,
    "null": None,
}


class TestReadComplex:
    """The one-pass reader refuses, names and converts what the per-number reader did."""

    @pytest.mark.parametrize("case", sorted(READ_COMPLEX_CASES))
    def test_equals_per_number_reader(self, case):
        pairs = READ_COMPLEX_CASES[case]
        try:
            want = loop_read_complex(pairs, "report 'x'", ReadError)
        except ReadError as err:
            with pytest.raises(ReadError) as got:
                _read_complex(pairs, "report 'x'", ReadError)
            assert str(got.value) == str(err) == "report 'x' must be a list of [re, im] number pairs"
            return
        got = _read_complex(pairs, "report 'x'", ReadError)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_json_round_trip_is_exact(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = DensityMatrix._trusted(3, m)  # any complex matrix: only the numbers travel
        entries = json.loads(json.dumps(density_to_json(rho)))["entries"]
        pairs = [z for row in entries for z in row]
        assert _read_complex(pairs, "x", ValueError).tobytes() == m.tobytes()


def brute_partial_trace(m, n, keep):
    """Index-loop oracle, independent of the einsum implementation.

    Bits are read in ``keep`` order, so new qubit i is old qubit ``keep[i]``.
    """
    traced = [q for q in range(n) if q not in keep]
    k = len(keep)
    out = np.zeros((2**k, 2**k), dtype=complex)
    for i in range(2**n):
        for j in range(2**n):
            ib = format(i, f"0{n}b")
            jb = format(j, f"0{n}b")
            if any(ib[q] != jb[q] for q in traced):
                continue
            r = int("".join(ib[q] for q in keep), 2)
            c = int("".join(jb[q] for q in keep), 2)
            out[r, c] += m[i, j]
    return out


class TestPartialTrace:
    def test_product_basis(self):
        rho = to_density(basis_state(2, 0))
        red = partial_trace(rho, [0])
        assert np.allclose(red.matrix, [[1, 0], [0, 0]])

    def test_bell_marginals(self):
        rho = to_density(bell())
        for keep in ([0], [1]):
            red = partial_trace(rho, keep)
            assert np.allclose(red.matrix, np.eye(2) / 2)

    def test_router_control_marginal_eigenvalues(self):
        rho = to_density(StateVector(3, psi_f_amplitudes()))
        red = partial_trace(rho, [0])
        oracle = brute_partial_trace(rho.matrix, 3, [0])
        assert np.allclose(red.matrix, oracle, atol=1e-12)
        lam = np.sort(np.linalg.eigvalsh(red.matrix))
        expected = np.sort([(1 - C8**2) / 2, (1 + C8**2) / 2])
        assert np.allclose(lam, expected, atol=1e-9)

    def test_matches_brute_force_on_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            amps = rng.normal(size=8) + 1j * rng.normal(size=8)
            rho = to_density(StateVector(3, amps / np.linalg.norm(amps)))
            for keep in ([0], [1], [2], [0, 2], [1, 2]):
                assert np.allclose(
                    partial_trace(rho, keep).matrix,
                    brute_partial_trace(rho.matrix, 3, keep),
                    atol=1e-12,
                )

    @pytest.mark.parametrize("keep", [[2, 0], [1, 0, 2], [2, 1]])
    def test_unsorted_keep_permutes(self, keep):
        rng = np.random.default_rng(5)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        rho = to_density(StateVector(3, amps / np.linalg.norm(amps)))
        red = partial_trace(rho, keep).matrix
        assert np.allclose(red, brute_partial_trace(rho.matrix, 3, keep), atol=1e-12)
        rank = {q: i for i, q in enumerate(sorted(keep))}
        sorted_then_permuted = permute_qubits(
            partial_trace(rho, sorted(keep)), [rank[q] for q in keep]
        )
        assert np.array_equal(red, sorted_then_permuted.matrix)

    def test_sequential_equals_joint(self):
        rng = np.random.default_rng(3)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        rho = to_density(StateVector(3, amps / np.linalg.norm(amps)))
        joint = partial_trace(rho, [1])
        step = partial_trace(partial_trace(rho, [1, 2]), [0])
        assert np.max(np.abs(joint.matrix - step.matrix)) <= 1e-9

    def test_rejects_empty_keep(self):
        with pytest.raises(ValueError):
            partial_trace(to_density(bell()), [])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            partial_trace(to_density(bell()), [5])


class TestTrustedResults:
    """``to_density`` and ``partial_trace`` do not run ``DensityMatrix``'s checks;
    what they return passes them all the same."""

    @staticmethod
    def random_states(rng, n):
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        yield to_density(StateVector(n, amps / np.linalg.norm(amps)))
        a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        m = a @ a.conj().T
        yield DensityMatrix(n, m / np.trace(m))

    @staticmethod
    def assert_checked(rho):
        again = DensityMatrix(rho.n_qubits, rho.matrix)
        assert np.array_equal(again.matrix, rho.matrix)
        assert not rho.matrix.flags.writeable

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
    def test_to_density_passes_validation(self, n):
        rng = np.random.default_rng(70 + n)
        for _ in range(5):
            amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            self.assert_checked(to_density(StateVector(n, amps / np.linalg.norm(amps))))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_partial_trace_passes_validation(self, n):
        rng = np.random.default_rng(80 + n)
        for _ in range(3):
            for rho in self.random_states(rng, n):
                for k in range(1, n + 1):
                    keep = [int(q) for q in rng.permutation(n)[:k]]
                    self.assert_checked(partial_trace(rho, keep))
                    self.assert_checked(partial_trace(rho, sorted(keep)))

    def test_to_density_still_checks_the_trace(self):
        psi = StateVector(1, [1 + 0.9e-9, 0])  # within StateVector's 1e-9 norm tolerance
        with pytest.raises(ValueError, match=r"trace is 1\.0000000018"):
            to_density(psi)


class TestPermuteQubits:
    def test_reorders_basis_state(self):
        rho = to_density(basis_state(3, 0b100))
        out = permute_qubits(rho, [1, 2, 0])
        assert np.allclose(out.matrix, to_density(basis_state(3, 0b001)).matrix)

    def test_identity(self):
        rho = to_density(bell())
        assert np.allclose(permute_qubits(rho, [0, 1]).matrix, rho.matrix)


class TestEntropy:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(to_density(bell())) <= 1e-9

    def test_maximally_mixed_one_bit(self):
        assert abs(von_neumann_entropy(DensityMatrix(1, np.eye(2) / 2)) - 1.0) < 1e-12

    def test_router_control_entropy(self):
        red = partial_trace(to_density(StateVector(3, psi_f_amplitudes())), [0])
        lam = np.array([(1 - C8**2) / 2, (1 + C8**2) / 2])
        expected = float(-np.sum(lam * np.log2(lam)))
        assert abs(von_neumann_entropy(red) - expected) < 1e-9


def brute_negativity(m, n, part_a):
    """Direct partial-transpose oracle over matrix elements."""
    pt = np.zeros_like(m)
    for i in range(2**n):
        for j in range(2**n):
            ib = list(format(i, f"0{n}b"))
            jb = list(format(j, f"0{n}b"))
            for q in part_a:
                ib[q], jb[q] = jb[q], ib[q]
            pt[int("".join(ib), 2), int("".join(jb), 2)] = m[i, j]
    lam = np.linalg.eigvalsh(pt)
    return float(np.abs(lam[lam < 0]).sum())


class TestNegativity:
    def test_product_state_zero(self):
        psi = tensor_product(
            tensor_product(basis_state(1, 0), StateVector(1, PSI_S)), StateVector(1, PLUS)
        )
        assert negativity(to_density(psi), [0], [1, 2]) <= 1e-9

    def test_bell_half(self):
        assert abs(negativity(to_density(bell()), [0], [1]) - 0.5) < 1e-9

    def test_router_state_entangled(self):
        rho = to_density(StateVector(3, psi_f_amplitudes()))
        val = negativity(rho, [0], [1, 2])
        assert val > 0
        assert abs(val - brute_negativity(rho.matrix, 3, [0])) < 1e-10

    def test_rejects_bad_partition(self):
        rho = to_density(bell())
        with pytest.raises(ValueError):
            negativity(rho, [0], [0, 1])
        with pytest.raises(ValueError):
            negativity(rho, [0], [])


class TestGlobalPhase:
    def test_pure_phase(self):
        a = basis_state(1, 0)
        b = StateVector(1, np.exp(1j * np.pi / 8) * np.array([1, 0]))
        assert equal_up_to_global_phase(a, b, 1e-9)

    def test_orthogonal(self):
        assert not equal_up_to_global_phase(basis_state(1, 0), basis_state(1, 1), 1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            equal_up_to_global_phase(basis_state(1, 0), basis_state(2, 0))
