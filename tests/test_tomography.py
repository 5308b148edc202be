import dataclasses
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest

from qrouter import tomography
from qrouter.gates import apply_circuit, named_router_circuit
from qrouter.noise import ibmqx4_model, readout_flip, simulate_noisy
from qrouter.qstate import _PAULI_BASIS, DensityMatrix, StateVector, basis_state, to_density
from qrouter.tomography import (
    TomographyDataset,
    _estimator_tables,
    _grid,
    _observables,
    _rotation_stack,
    _setting_letters,
    _setting_probs,
    collect_dataset,
    expectation,
    expectation_values,
    fidelity,
    linear_inversion,
    observables_for,
    project_to_physical,
    reconstruct,
    sample_counts,
    settings_for,
)

from ._analytic import (
    PLUS,
    PSI_S,
    basis_probs,
    counts_dataset,
    depolarizing,
    exact_expectations,
    loop_estimator_tables,
    loop_expectation,
    loop_inversion,
    multinomial_counts,
    setting_rotation,
    water_filling,
)


EPS = np.finfo(float).eps


def router_states():
    for name in ["router-superposition", "router-control0", "router-control1"]:
        yield name, to_density(
            apply_circuit(named_router_circuit(name), basis_state(3, 0))
        )


class TestSettings:
    def test_one_qubit(self):
        assert settings_for(1) == ["X", "Y", "Z"]

    def test_two_qubit_order(self):
        s = settings_for(2)
        assert len(s) == 9 and s[0] == "XX" and s[-1] == "ZZ"

    def test_three_qubit_covers_all_observables(self):
        settings = settings_for(3)
        assert len(settings) == 27
        obs = observables_for(3)
        assert len(obs) == 63
        for p in obs:
            assert any(
                all(s == l for s, l in zip(setting, p) if l != "I")
                for setting in settings
            )

    def test_rejects_zero_qubits(self):
        with pytest.raises(ValueError):
            settings_for(0)
        with pytest.raises(ValueError, match="need at least one qubit"):
            observables_for(0)

    def test_grid_built_once_and_returned_fresh(self):
        for n in (1, 3):
            assert settings_for(n) == ["".join(p) for p in itertools.product("XYZ", repeat=n)]
        _grid.cache_clear()
        first = settings_for(3)
        first.append("ZZZ")  # a caller's list is its own
        assert settings_for(3) == first[:-1] and settings_for(3) is not settings_for(3)
        assert (_grid.cache_info().misses, _grid.cache_info().hits) == (1, 3)
        rho = to_density(basis_state(3, 0))
        assert collect_dataset(rho, 10, 0).settings == first[:-1]
        assert _grid.cache_info().misses == 1
        for n in (0, -1):
            for _ in range(2):  # a refusal is not cached
                with pytest.raises(ValueError, match="need at least one qubit"):
                    settings_for(n)


class TestSampleCounts:
    def test_ground_state_z(self):
        counts = sample_counts(to_density(basis_state(1, 0)), "Z", 500, 1)
        assert counts == {"0": 500}

    def test_plus_state_x(self):
        counts = sample_counts(to_density(StateVector(1, PLUS)), "X", 500, 1)
        assert counts == {"0": 500}

    def test_minus_i_state_y(self):
        psi = StateVector(1, np.array([1, -1j]) / np.sqrt(2))
        counts = sample_counts(to_density(psi), "Y", 500, 1)
        assert counts == {"1": 500}

    def test_binomial_statistics(self):
        counts = sample_counts(to_density(basis_state(1, 0)), "X", 8192, 99)
        frac = counts.get("0", 0) / 8192
        sigma = 0.5 / np.sqrt(8192)
        assert abs(frac - 0.5) < 4 * sigma

    def test_deterministic_for_fixed_seed(self):
        rho = to_density(StateVector(1, PSI_S))
        a = sample_counts(rho, "Z", 1000, 123, 0.01)
        b = sample_counts(rho, "Z", 1000, 123, 0.01)
        assert a == b

    def test_counts_sum_to_shots(self):
        rho = to_density(apply_circuit(named_router_circuit("router-superposition"), basis_state(3, 0)))
        counts = sample_counts(rho, "XYZ", 777, 5)
        assert sum(counts.values()) == 777

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            sample_counts(to_density(basis_state(1, 0)), "Z", 0, 1)


class TestDataset:
    def test_collection_order_independent(self):
        # setting i's counts depend on (seed, i, its distribution) alone
        rho = random_state(np.random.default_rng(5), 2)
        settings = settings_for(2)
        ds = collect_dataset(rho, 500, 7, settings=settings).to_json()["settings"]
        for i, s in enumerate(settings):
            assert ds[s] == multinomial_counts(basis_probs(rho, s), 500, 7, i)
        for j in range(len(settings)):
            changed = list(settings)
            changed[j] = "II"  # another distribution at index j
            other = collect_dataset(rho, 500, 7, settings=changed).to_json()["settings"]
            assert other["II"] == multinomial_counts(basis_probs(rho, "II"), 500, 7, j)
            assert all(other[s] == ds[s] for s in settings if s != settings[j])
            head = collect_dataset(rho, 500, 7, settings=settings[: j + 1])
            assert head.to_json()["settings"] == {s: ds[s] for s in settings[: j + 1]}

    def test_json_round_trip(self):
        ds = collect_dataset(to_density(basis_state(1, 0)), 100, 3, p_readout=0.02)
        again = TomographyDataset.from_json(ds.to_json())
        assert again.to_json() == ds.to_json()
        assert again.settings == ds.settings and np.array_equal(again.counts, ds.counts)

    @pytest.mark.parametrize("shots", [True, 100.0, 100.5, np.float64(100)], ids=repr)
    def test_shots_must_be_integers(self, shots):
        rho = to_density(basis_state(1, 0))
        message = re.escape(f"shots must be positive and an integer, not {shots!r}")
        with pytest.raises(ValueError, match=message):
            collect_dataset(rho, shots, 0)
        counts = np.array([[int(shots), 0]], dtype=np.int64)  # rows that sum to the shots
        with pytest.raises(ValueError, match=message):
            TomographyDataset(1, shots, 0, ["Z"], counts)

    def test_numpy_integer_shots_and_seed_are_stored_as_ints(self):
        rho = to_density(basis_state(1, 0))
        ds = collect_dataset(rho, np.int64(100), np.int64(3))
        assert type(ds.shots) is int and type(ds.seed) is int
        again = TomographyDataset.from_json(json.loads(json.dumps(ds.to_json())))
        assert again.to_json() == ds.to_json() == collect_dataset(rho, 100, 3).to_json()

    @pytest.mark.parametrize(
        "n, shots, seed, error",
        [
            (1, np.int64(100), 3, None),
            (1, 100, np.int64(3), None),
            (np.int64(1), 100, np.uint64(2**63), None),
            (1, 100, True, "seed must be a non-negative integer"),
            (1, 100, 1.5, "seed must be a non-negative integer"),
            (1, 100, None, "seed must be a non-negative integer"),
            (1, 100, -1, "seed must be a non-negative integer"),
            (True, 100, 3, "'n_qubits' True is not in 1..6"),
            (0, 100, 3, "'n_qubits' 0 is not in 1..6"),
            (7, 100, 3, "'n_qubits' 7 is not in 1..6"),
        ],
        ids=repr,
    )
    def test_constructed_datasets_round_trip_or_are_refused(self, n, shots, seed, error):
        # what the constructor accepts, to_json writes as from_json reads it back
        counts = np.array([[int(shots), 0]], dtype=np.int64)
        if error is not None:
            with pytest.raises(ValueError, match=re.escape(error)):
                TomographyDataset(n, shots, seed, ["Z"], counts)
            return
        ds = TomographyDataset(n, shots, seed, ["Z"], counts)
        assert (type(ds.n_qubits), type(ds.shots), type(ds.seed)) == (int, int, int)
        again = TomographyDataset.from_json(json.loads(json.dumps(ds.to_json())))
        assert (again.n_qubits, again.shots, again.seed) == (n, shots, seed)
        assert again.to_json() == ds.to_json()

    def test_sampler_refuses_a_width_the_reader_refuses(self):
        # a 7-qubit counts file would be refused by from_json, so none is sampled
        rho = to_density(basis_state(7, 0))
        with pytest.raises(ValueError, match=re.escape("'n_qubits' 7 is not in 1..6")):
            collect_dataset(rho, 10, 0, settings=["ZZZZZZZ"])

    def test_json_schema_keys(self):
        data = collect_dataset(to_density(basis_state(1, 0)), 100, 3).to_json()
        assert set(data) >= {"shots", "seed", "settings", "rng"}
        assert data["rng"] == "numpy-philox-counter-multinomial"

    def test_file_without_rng_loads_as_legacy(self):
        data = collect_dataset(to_density(basis_state(1, 0)), 100, 3).to_json()
        del data["rng"]
        assert TomographyDataset.from_json(data).rng_name == "numpy-pcg64"

    def test_v2_counts_file_keeps_its_name_and_reconstructs(self):
        # a counts file that names contract v2 loads under that name and estimates from its counts
        rho = to_density(apply_circuit(named_router_circuit("router-control0"), basis_state(3, 0)))
        data = collect_dataset(rho, 2048, 9).to_json()
        data["rng"] = "numpy-pcg64-seedseq-multinomial"
        again = TomographyDataset.from_json(json.loads(json.dumps(data)))
        assert again.rng_name == "numpy-pcg64-seedseq-multinomial"
        assert again.to_json() == data
        assert np.array_equal(reconstruct(again).matrix, reconstruct(collect_dataset(rho, 2048, 9)).matrix)

    def test_rejects_duplicate_settings(self):
        # the counts file keys by setting, so a second draw of one would be lost
        rho = to_density(basis_state(2, 0))
        with pytest.raises(ValueError, match="measurement settings must be distinct"):
            collect_dataset(rho, 10, 0, settings=["ZZ", "XX", "ZZ"])
        counts = np.array([[10, 0, 0, 0]] * 2, dtype=np.int64)
        with pytest.raises(ValueError, match="measurement settings must be distinct"):
            TomographyDataset(2, 10, 0, ["ZZ", "ZZ"], counts)

    @pytest.mark.parametrize(
        "n, shots, settings, counts, message",
        [
            (1, 100, ["Z"], np.array([[60.9, 40.9]]), r"int64 array of shape \(1, 2\)"),
            (1, 100, ["Z"], [[60, 40]], "int64 array"),
            (1, 100, ["Z"], np.array([[50, 50, 0, 0]], dtype=np.int64), "int64 array"),
            (1, 100, ["Z"], np.array([[-1, 101]], dtype=np.int64), "must be nonnegative"),
            (
                # five counts of 2^62: an int64 row sum wraps round to exactly 2^62
                3, 2**62, ["ZZZ"], np.array([[2**62] * 5 + [0] * 3], dtype=np.int64),
                "setting 'ZZZ' holds 23058430092136939520 counts",
            ),
            (1, 0, ["Z"], np.zeros((1, 2), dtype=np.int64), "shots must be positive"),
            (1, 100, [], np.zeros((0, 2), dtype=np.int64), "at least one measurement setting"),
        ],
        ids=["float", "list", "shape", "negative", "int64-wrap", "zero-shots", "no-settings"],
    )
    def test_constructor_checks_the_counts_array(self, n, shots, settings, counts, message):
        with pytest.raises(ValueError, match=message):
            TomographyDataset(n, shots, 0, settings, counts)


def counts_file(outcomes=None, **fields):
    """A one-qubit counts file with the one setting 'X'."""
    settings = {"X": outcomes or {"0": 50, "1": 50}}
    return {"n_qubits": 1, "shots": 100, "seed": 0, "settings": settings, **fields}


class TestCountsFileBoundary:
    """``from_json`` rejects what a counts file can hold but a dataset cannot,
    with ``ValueError``, before any estimate is made."""

    @pytest.mark.parametrize(
        "doc, message",
        [
            (counts_file({"0": 60.9, "1": 40.9}), "outcome count 60.9 is not an integer"),
            (counts_file({"0": "50", "1": 50}), "outcome count '50' is not an integer"),
            (counts_file({"0": True, "1": 99}), "outcome count True is not an integer"),
            (counts_file({"0": None, "1": 100}), "outcome count None is not an integer"),
            (counts_file({"0": -1, "1": 101}), "outcome counts must be nonnegative"),
            (counts_file({"0": 2**63}), f"outcome count {2**63} is not an integer"),
            (
                counts_file(n_qubits=2, settings={"ZZ": {"0": 100}}),
                "outcome '0' is not a 2-bit string",
            ),
            ({k: v for k, v in counts_file().items() if k != "settings"}, "'settings' must map"),
            (counts_file(settings=[["X", {"0": 100}]]), "'settings' must map"),
            (counts_file(settings={"X": [100]}), "'settings' must map"),
            (counts_file(shots="100"), "'shots' must be an integer"),
            ([counts_file()], "one JSON object"),
            # checked before a (settings, 2^n) counts array is allocated
            (counts_file(n_qubits=40), r"'n_qubits' 40 is not in 1\.\.6"),
            (counts_file(n_qubits=7), r"'n_qubits' 7 is not in 1\.\.6"),
            (counts_file(n_qubits=0), r"'n_qubits' 0 is not in 1\.\.6"),
            (counts_file(settings={}), "need at least one measurement setting"),
            (counts_file(rng=[5]), r"'rng' \[5\] names no sampling contract"),
            (counts_file(rng="numpy-mt19937"), "'rng' 'numpy-mt19937' names no sampling contract"),
            (counts_file(rng=None), "'rng' None names no sampling contract"),
        ],
        ids=[
            "float", "string", "bool", "null", "negative", "2^63", "short-label", "no-settings", "settings-list", "outcomes-list", "string-shots",
            "not-an-object", "40-qubits", "7-qubits", "0-qubits", "empty-settings",
            "rng-list", "rng-unnamed", "rng-null",
        ],
    )
    def test_rejects_malformed_file(self, doc, message):
        with pytest.raises(ValueError, match=message):
            TomographyDataset.from_json(doc)
        with pytest.raises(ValueError, match=message):
            TomographyDataset.from_json(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize(
        "rng",
        ["numpy-philox-counter-multinomial", "numpy-pcg64-seedseq-multinomial", "numpy-pcg64"],
    )
    def test_loads_each_named_sampling_contract(self, rng):
        doc = counts_file(rng=rng)
        for data in (doc, json.loads(json.dumps(doc))):
            ds = TomographyDataset.from_json(data)
            assert ds.rng_name == rng
            assert ds.to_json() == doc


class TestExpectation:
    def test_all_zero_counts_give_plus_one(self):
        ds = counts_dataset(1, 100, {"Z": {"0": 100}})
        assert expectation(ds, "Z") == 1.0

    def test_uniform_counts_give_zero(self):
        ds = counts_dataset(1, 100, {"Z": {"0": 50, "1": 50}})
        assert expectation(ds, "Z") == 0.0

    def test_signal_state_z_expectation(self):
        # Born statistics of the prepared signal state: <Z> = cos(pi/4)
        rho = to_density(StateVector(1, PSI_S))
        ds = collect_dataset(rho, 8192, 11)
        est = expectation(ds, "Z")
        assert abs(est - np.cos(np.pi / 4)) < 4 / np.sqrt(8192)

    def test_averages_over_compatible_settings(self):
        ds = counts_dataset(2, 100, {"ZX": {"00": 100}, "ZZ": {"00": 50, "01": 50}})
        # ZI is compatible with both settings; both give +1 on qubit 0
        assert expectation(ds, "ZI") == 1.0
        # IZ only via ZZ: half parity-even, half parity-odd
        assert expectation(ds, "IZ") == 0.0

    def test_no_compatible_setting(self):
        ds = counts_dataset(1, 10, {"Z": {"0": 10}})
        with pytest.raises(ValueError):
            expectation(ds, "X")

    def test_identity_is_exactly_one_through_the_estimator(self):
        ds = counts_dataset(2, 10, {"XZ": {"00": 3, "11": 7}})
        assert expectation(ds, "II") == 1.0
        assert expectation_values(ds, ["II", "XZ"]) == {"II": 1.0, "XZ": 1.0}

    @pytest.mark.parametrize("pauli", ["Z", "ZZZ", "ZA", 7])
    def test_malformed_pauli_is_a_value_error(self, pauli):
        ds = counts_dataset(2, 10, {"ZZ": {"00": 10}})
        with pytest.raises(ValueError, match="is not 2 letters of IXYZ"):
            expectation(ds, pauli)

    def test_bounded(self):
        ds = collect_dataset(to_density(StateVector(1, PSI_S)), 300, 2)
        for p in observables_for(1):
            assert -1.0 <= expectation(ds, p) <= 1.0


def random_state(rng, n):
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    m = a @ a.conj().T
    return DensityMatrix(n, m / np.trace(m))


def estimator_datasets():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3):
        for i in range(3):
            rho = random_state(rng, n)
            yield f"grid-{n}q-{i}", collect_dataset(rho, 1000 + i, i, p_readout=0.02 * i)
            yield f"literal-{n}q-{i}", collect_dataset(
                rho, 1000 + i, 10 + i, settings=observables_for(n)
            )
    noisy = simulate_noisy(named_router_circuit("router-superposition"), ibmqx4_model())
    yield "grid-router", collect_dataset(noisy, 8192, 5)
    yield "literal-router", collect_dataset(noisy, 8192, 5, settings=observables_for(3))


class TestArrayEstimator:
    """The array estimator against the loop reference within 4^n ulps of 1, and
    the sampler against the reference sampler exactly."""

    @pytest.mark.parametrize(
        "ds", [pytest.param(ds, id=label) for label, ds in estimator_datasets()]
    )
    def test_every_observable_equal_to_loop(self, ds):
        tol = 4**ds.n_qubits * EPS
        loop = {p: loop_expectation(ds, p) for p in observables_for(ds.n_qubits)}
        est = expectation_values(ds)
        assert list(est) == list(loop)
        assert all(abs(est[p] - v) <= tol for p, v in loop.items())
        assert all(abs(expectation(ds, p) - v) <= tol for p, v in loop.items())
        rec = reconstruct(ds)
        ref = project_to_physical(linear_inversion(est, ds.n_qubits))
        assert np.array_equal(rec.matrix, ref.matrix)

    def test_no_compatible_setting_unchanged(self):
        ds = counts_dataset(2, 10, {"ZX": {"00": 10}, "IZ": {"01": 4, "11": 6}})
        for pauli in ("XI", "YZ", "IY"):
            message = f"no measurement setting compatible with '{pauli}'"
            with pytest.raises(ValueError, match=message):
                loop_expectation(ds, pauli)
            with pytest.raises(ValueError, match=message):
                expectation(ds, pauli)
        with pytest.raises(ValueError, match="no measurement setting compatible"):
            reconstruct(ds)
        assert expectation(ds, "IZ") == loop_expectation(ds, "IZ") == -1.0
        assert expectation(ds, "ZI") == loop_expectation(ds, "ZI") == 1.0

    def test_rejects_malformed_dataset(self):
        with pytest.raises(ValueError):
            counts_dataset(2, 10, {"Z": {"00": 10}})
        with pytest.raises(ValueError):
            counts_dataset(2, 10, {"ZZ": {"0": 10}})

    @pytest.mark.parametrize(
        "n, shots, settings, message",
        [
            (
                3, 1, {s: {"000": 2**62} for s in settings_for(3)},
                "setting 'XXX' holds 4611686018427387904 counts, but the dataset has 1 shots",
            ),
            (
                1, 100, {"X": {"0": 10}, "Y": {"0": 100}, "Z": {"1": 100}},
                "setting 'X' holds 10 counts, but the dataset has 100 shots",
            ),
            (
                1, 100, {"Z": {"0": 50, "1": 50}, "X": {"0": 50, "1": 51}},
                "setting 'X' holds 101 counts",
            ),
            (
                # five counts of 2^62: an int64 row sum wraps round to exactly 2^62
                3, 2**62, {"ZZZ": {f"{i:03b}": 2**62 for i in range(5)}},
                "setting 'ZZZ' holds 23058430092136939520 counts",
            ),
            (1, 100, {"Z": {"0": -1, "1": 101}}, "outcome counts must be nonnegative"),
        ],
        ids=["over-shots", "under-shots", "second-setting", "int64-wrap", "negative"],
    )
    def test_rejects_counts_not_summing_to_shots(self, n, shots, settings, message):
        with pytest.raises(ValueError, match=message):
            counts_dataset(n, shots, settings)

    def test_accepts_counts_summing_to_the_int64_limit(self):
        # the row's float sum rounds up to 2^63 here, yet the dataset is valid
        plus = DensityMatrix(1, np.full((2, 2), 0.5, dtype=complex))
        ds = collect_dataset(plus, 2**63 - 1, 0, settings=["Z"])
        assert float(sum(ds.to_json()["settings"]["Z"].values())) == 2.0**63
        assert abs(expectation_values(ds, ["Z"])["Z"]) < 1e-6

    @pytest.mark.parametrize(
        "probs",
        [
            [1.0, 0.0],
            [0.0, 1.0],
            [0.3, 0.0, 0.7, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.1, 0.0, 0.2, 0.0, 0.3, 0.0, 0.4, 0.0],
            [0.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.4],
        ],
    )
    def test_counts_with_zero_probability_outcomes(self, probs):
        n = int(np.log2(len(probs)))
        rho = DensityMatrix(n, np.diag(probs).astype(complex))
        for seed in range(5):
            got = sample_counts(rho, "Z" * n, 997, seed)
            assert got == multinomial_counts(basis_probs(rho, "Z" * n), 997, seed, 0)
            assert all(probs[int(k, 2)] > 0 for k in got)

    def test_counts_on_random_distributions(self):
        rng = np.random.default_rng(8)
        for trial in range(30):
            n = 1 + trial % 3
            probs = rng.random(2**n) * (rng.random(2**n) < 0.6)
            probs[rng.integers(2**n)] += 0.1
            rho = DensityMatrix(n, np.diag(probs / probs.sum()).astype(complex))
            p_readout = 0.02 if trial % 2 else 0.0
            for setting in ("Z" * n, settings_for(n)[trial % 3**n]):
                ref_probs = readout_flip(basis_probs(rho, setting), p_readout)
                got = sample_counts(rho, setting, 4096, trial, p_readout)
                assert got == multinomial_counts(ref_probs, 4096, trial, 0)


class TestOnePassSampler:
    """``collect_dataset`` against the per-setting reference: the
    kron-then-einsum probabilities within 4^n ulps of 1, and exactly the
    counts of one multinomial draw from Philox counter block ``[0, 0, i, 0]``
    under the key of ``SeedSequence(seed)``."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["mixed", "basis"])
    def test_counts_equal_reference(self, n, kind):
        if kind == "mixed":
            rho = random_state(np.random.default_rng(40 + n), n)
        else:  # zero-probability outcomes in every setting with a Z letter
            rho = to_density(basis_state(n, 2**n - 2))
        for settings in (settings_for(n), observables_for(n)):
            for p_readout in (0.0, 0.02):
                for shots in (1, 997, 8192):
                    seed = 1000 * n + shots
                    ds = collect_dataset(rho, shots, seed, p_readout, settings)
                    labelled = ds.to_json()["settings"]
                    assert ds.settings == list(labelled) == settings
                    for i, s in enumerate(settings):
                        ref = readout_flip(basis_probs(rho, s), p_readout)
                        assert labelled[s] == multinomial_counts(ref, shots, seed, i)
                        assert all(ref[int(k, 2)] > 0 for k in labelled[s])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_probabilities_equal_reference(self, n):
        rng = np.random.default_rng(60 + n)
        settings = observables_for(n) if n <= 3 else settings_for(n)
        for _ in range(8 if n <= 3 else 2):
            rho = random_state(rng, n)
            for p_readout in (0.0, 0.02):
                probs = _setting_probs(rho, settings, p_readout)
                assert probs.shape == (len(settings), 2**n)
                for row, s in zip(probs, settings):
                    ref = readout_flip(basis_probs(rho, s), p_readout)
                    assert np.max(np.abs(row - ref)) <= 4**n * EPS, s

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["grid", "literal"])
    def test_per_basis_rows_are_the_per_setting_rows(self, n, kind):
        # reference: each setting contracted with its own rotation; the exact
        # zeros of the pure router states decide their draws
        settings = settings_for(n) if kind == "grid" else observables_for(n)
        r = np.array([setting_rotation(s) for s in settings])
        rng = np.random.default_rng(80 + n)
        states = [random_state(rng, n) for _ in range(4)]
        states += [rho for _, rho in router_states()] if n == 3 else []
        for rho in states:
            ref = np.einsum("sij,jk,sik->si", r, rho.matrix, r.conj()).real
            ref = np.clip(ref, 0.0, None)
            ref /= ref.sum(axis=1, keepdims=True)
            for p_readout in (0.0, 0.02):
                want = readout_flip(ref, p_readout) if p_readout else ref
                assert _setting_probs(rho, settings, p_readout).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_literal_settings_share_the_grid_bases(self, n, monkeypatch):
        # the 4^n - 1 literal settings are measured in the 3^n grid bases, so
        # the rotation stack stays 3^n rows; the all-I setting is measured in Z
        stacked = []
        stack = tomography._rotation_stack
        monkeypatch.setattr(
            tomography, "_rotation_stack", lambda rows: stacked.append(rows) or stack(rows)
        )
        for settings in (observables_for(n), settings_for(n), ["I" * n]):
            _setting_probs(random_state(np.random.default_rng(n), n), settings, 0.0)
        as_strings = [["".join("IXYZ"[i] for i in row) for row in rows] for rows in stacked]
        assert as_strings == [settings_for(n), settings_for(n), ["Z" * n]]

    def test_no_settings_by_shots_matrix(self):
        rho = random_state(np.random.default_rng(3), 3)
        settings = observables_for(3)
        collect_dataset(rho, 8192, 0, settings=settings)
        tracemalloc.start()
        try:
            collect_dataset(rho, 8192, 1, settings=settings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a 63 x 8192 float64 draw matrix alone would be 4.1 MB
        assert peak < 1_000_000

    @pytest.mark.parametrize("setting", ["QZ", "xz", "Z I", "XYZ", "X"])
    def test_rejects_bad_setting(self, setting):
        rho = to_density(basis_state(2, 0))
        with pytest.raises(ValueError, match="setting"):
            sample_counts(rho, setting, 10, 0)
        with pytest.raises(ValueError, match="setting"):
            collect_dataset(rho, 10, 0, settings=["ZZ", setting])

    def test_rejects_total_shots_past_int64(self):
        # estimation sums int64 counts over the settings; past 2^63 - 1 the sum wraps
        rho = to_density(basis_state(3, 0))
        limit = 2**63 - 1
        for shots, settings in [
            (limit // 27 + 1, None),
            (limit // 63 + 1, observables_for(3)),
            (2**63, None),
        ]:
            with pytest.raises(ValueError, match="exceed 2\\^63 - 1"):
                collect_dataset(rho, shots, 0, settings=settings)
        handed = {s: {"000": 1} for s in settings_for(3)}
        with pytest.raises(ValueError, match="exceed 2\\^63 - 1"):
            counts_dataset(3, limit // 27 + 1, handed)

    def test_rejects_empty_settings(self):
        with pytest.raises(ValueError, match="at least one measurement setting"):
            collect_dataset(to_density(basis_state(1, 0)), 10, 0, settings=[])

    @pytest.mark.parametrize(
        "seed", [-1, -(2**40), 1.5, "3", True, False, np.True_, np.float64(3.0)]
    )
    def test_rejects_bad_seed(self, seed):
        rho = to_density(basis_state(1, 0))
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            collect_dataset(rho, 10, seed)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            sample_counts(rho, "Z", 10, seed)


class TestStreamContract:
    """Sampling contract v3: setting i of master seed s is one multinomial draw
    from counter block [0, 0, i, 0] of the Philox keyed by ``SeedSequence(s)``.
    Distinct rows over seeds and settings are checked by
    ``TestSamplerStatistics::test_every_seed_and_setting_has_its_own_stream``,
    independence of the other settings by
    ``TestDataset::test_collection_order_independent``."""

    @pytest.mark.parametrize("seed", [2**63, 2**64 + 1])
    def test_master_seeds_past_int64(self, seed):
        rho = DensityMatrix(3, np.eye(8, dtype=complex) / 8)
        ds = collect_dataset(rho, 1000, seed)
        labelled = ds.to_json()["settings"]
        for i, s in enumerate(ds.settings):
            assert labelled[s] == multinomial_counts(basis_probs(rho, s), 1000, seed, i)
        assert len({tuple(row) for row in ds.counts.tolist()}) == 27
        assert TomographyDataset.from_json(json.loads(json.dumps(ds.to_json()))).seed == seed

    @pytest.mark.parametrize("seed", [np.int64(3), np.uint64(2**63)])
    def test_numpy_integer_seed_is_written_as_an_int(self, seed):
        rho = to_density(basis_state(1, 0))
        ds = collect_dataset(rho, 100, seed)
        assert type(ds.seed) is int and ds.seed == seed
        again = TomographyDataset.from_json(json.loads(json.dumps(ds.to_json())))
        assert again.to_json() == collect_dataset(rho, 100, int(seed)).to_json()


class TestEstimatorTables:
    """The per-shape tables behind ``observables_for`` and ``expectation_values``
    are bounded, read-only, and never change what a caller sees."""

    def test_observables_for_returns_a_fresh_list(self):
        first = observables_for(2)
        first.append("ZZZ")
        first[0] = "XX"
        again = observables_for(2)
        assert again is not first
        assert again[0] == "IX" and len(again) == 15

    def test_tables_are_read_only(self):
        ds = collect_dataset(to_density(basis_state(2, 0)), 100, 0)
        expectation_values(ds)
        for table in _estimator_tables(2, tuple(ds.settings), _observables(2)):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0

    def test_caches_are_bounded(self):
        assert _observables.cache_info().maxsize == 8
        assert _estimator_tables.cache_info().maxsize == 4
        rho = to_density(basis_state(2, 0))
        for j in range(1, 9):
            expectation_values(collect_dataset(rho, 10, 0, settings=settings_for(2)[:j]), ["IX"])
        assert _estimator_tables.cache_info().currsize == 4

    @pytest.mark.parametrize(
        "paulis", [[["X"]], [("X",)], [1], ["Q"], ["XX"], [None], [b"X"]],
        ids=["list", "tuple", "int", "letter", "length", "none", "bytes"],
    )
    def test_malformed_paulis_raise_value_error(self, paulis):
        ds = collect_dataset(to_density(basis_state(1, 0)), 10, 0)
        for _ in range(2):
            with pytest.raises(ValueError, match="is not 1 letters of IXYZ"):
                expectation_values(ds, paulis)

    def test_no_compatible_setting_raises_on_every_call(self):
        ds = counts_dataset(1, 10, {"Z": {"0": 10}})
        for _ in range(3):
            with pytest.raises(ValueError, match="no measurement setting compatible with 'X'"):
                expectation_values(ds, ["Z", "X"])
        assert expectation_values(ds, ["Z"]) == {"Z": 1.0}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tables_equal_loop_reference(self, n):
        obs = observables_for(n)
        grid, literal = settings_for(n), obs
        partial = obs[::5] + [obs[-1]]
        # the last list, reversed and thinned, leaves some paulis unmeasured when n = 1
        for settings in (grid, literal, literal[::-2]):
            for paulis in (obs, partial):
                settings, paulis = tuple(settings), tuple(paulis)
                ref = loop_estimator_tables(n, settings, paulis)
                if not ref[2].all():
                    with pytest.raises(ValueError, match="no measurement setting compatible"):
                        _estimator_tables(n, settings, paulis)
                    continue
                got = _estimator_tables(n, settings, paulis)
                for table, want in zip(got, ref):
                    assert table.shape == want.shape and np.array_equal(table, want)
                assert got[1].dtype == bool

    def test_mask_built_without_a_settings_by_paulis_by_qubits_array(self):
        # 1023 literal settings x 1023 observables: the returned mask is 1 MiB,
        # an (S, P, n) boolean temporary 5 MiB
        settings = tuple(observables_for(5))
        _setting_letters(5, settings)  # a dataset constructor has checked them
        _estimator_tables.cache_clear()
        tracemalloc.start()
        try:
            signs, compatible, k = _estimator_tables(5, settings, _observables(5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert compatible.shape == (1023, 1023)
        assert peak < 5 * compatible.nbytes
        ref = loop_estimator_tables(5, settings[::31], _observables(5))
        assert np.array_equal(signs, ref[0]) and np.array_equal(compatible[::31], ref[1])
        assert np.array_equal(k, compatible.sum(axis=0)) and k.min() >= 1

    def test_values_equal_with_and_without_the_cache(self):
        for _, ds in estimator_datasets():
            _estimator_tables.cache_clear()
            cold = expectation_values(ds)
            warm = expectation_values(ds)
            assert list(cold.items()) == list(warm.items())
            assert expectation_values(ds, observables_for(ds.n_qubits)) == cold


class TestSettingsTable:
    """The settings check and the rotation stack: formed once for each state
    that has no Born distributions for its settings list, since the state keeps
    them, and never by a dataset ``collect_dataset`` builds."""

    @pytest.mark.parametrize(
        "settings", [settings_for(3), observables_for(3)], ids=["grid", "literal"]
    )
    def test_stack_equals_kron_reference_bit_for_bit(self, settings):
        r = _rotation_stack(_setting_letters(3, settings))
        ref = np.array([setting_rotation(s) for s in settings])
        assert r.shape == ref.shape == (len(settings), 8, 8)
        assert r.dtype == ref.dtype and r.tobytes() == ref.tobytes()

    def test_tables_are_read_only(self):
        table = _setting_letters(2, tuple(observables_for(2)))
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0

    def test_one_state_reaches_the_tables_once(self, monkeypatch):
        checked, stacked = [], []
        check, stack = tomography._setting_letters, tomography._rotation_stack
        monkeypatch.setattr(
            tomography, "_setting_letters", lambda n, s: checked.append(s) or check(n, s)
        )
        monkeypatch.setattr(
            tomography, "_rotation_stack", lambda rows: stacked.append(rows) or stack(rows)
        )
        settings = ["XYZ", "ZZI", "IIX", "XYI"]  # XYZ and XYI share a basis
        # the later seeds find the state's kept distributions
        rho = to_density(basis_state(3, 0))
        for seed in range(3):
            collect_dataset(rho, 100, seed, settings=settings)
        # checked once, and one stack, of the list's three distinct bases
        assert checked == [settings] and len(stacked) == 1
        bases = {"".join("IXYZ"[i] for i in row) for row in stacked[0]}
        assert len(stacked[0]) == 3 and bases == {"XYZ", "ZZZ", "ZZX"}
        # a fresh state per seed computes its Born distributions, so checks and
        # stacks once each; the datasets, built from checked parts, check nothing
        for seed in range(3):
            collect_dataset(to_density(basis_state(3, 0)), 100, seed, settings=settings)
        assert (len(checked), len(stacked)) == (4, 4)

    @pytest.mark.parametrize(
        "settings, message",
        [
            ([], "need at least one measurement setting"),
            (["ZZ", "XX", "ZZ"], "measurement settings must be distinct"),
            (["ZQ"], "setting 'ZQ' is not 2 letters of IXYZ"),
            (["ZZZ"], "setting 'ZZZ' is not 2 letters of IXYZ"),
            ([b"ZZ"], "setting b'ZZ' is not 2 letters of IXYZ"),
            ([["Z", "Z"]], r"setting \['Z', 'Z'\] is not 2 letters of IXYZ"),
        ],
        ids=["empty", "duplicate", "letter", "length", "bytes", "unhashable"],
    )
    def test_malformed_settings_raise_on_every_call(self, settings, message):
        rho = to_density(basis_state(2, 0))
        counts = np.full((len(settings), 4), 0, dtype=np.int64)
        counts[:, 0] = 10
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                collect_dataset(rho, 10, 0, settings=settings)
            with pytest.raises(ValueError, match=message):
                TomographyDataset(2, 10, 0, settings, counts)
            collect_dataset(rho, 10, 0)  # the grid's distributions, kept with rho from here


class TestKeptDistributions:
    """A state keeps the Born distributions of its last (settings, p_readout)
    key; sampling it again gives the counts a fresh copy of it gives."""

    @pytest.mark.parametrize("p_readout", [0.0, 0.02])
    @pytest.mark.parametrize("kind", ["grid", "literal"])
    def test_kept_datasets_equal_a_fresh_state(self, kind, p_readout):
        settings = None if kind == "grid" else observables_for(3)
        states = [rho for _, rho in router_states()] + [random_state(np.random.default_rng(9), 3)]
        for rho in states:
            for seed in range(3):
                fresh = DensityMatrix(3, rho.matrix)
                assert fresh._probs is None
                got, want = (collect_dataset(s, 997, seed, p_readout, settings) for s in (rho, fresh))
                assert np.array_equal(got.counts, want.counts)

    def test_kept_array_is_read_only(self):
        rho = random_state(np.random.default_rng(10), 2)
        probs = _setting_probs(rho, settings_for(2), 0.0)
        assert _setting_probs(rho, settings_for(2), 0.0) is probs
        assert not probs.flags.writeable
        with pytest.raises(ValueError):
            probs[0, 0] = 1.0

    def test_another_key_recomputes_and_replaces(self):
        rho = random_state(np.random.default_rng(11), 2)
        first = _setting_probs(rho, settings_for(2), 0.0)
        keys = [
            (settings_for(2), 0.02),
            (observables_for(2), 0.02),
            (settings_for(2)[:4], 0.02),
            (settings_for(2), 0.0),
        ]
        for settings, p_readout in keys:
            probs = _setting_probs(rho, settings, p_readout)
            assert rho._probs[0] == (tuple(settings), p_readout) and rho._probs[1] is probs
            want = _setting_probs(DensityMatrix(2, rho.matrix), settings, p_readout)
            assert probs.tobytes() == want.tobytes()
        assert probs is not first and probs.tobytes() == first.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sampled_datasets_pass_the_full_check(self, n):
        rho = random_state(np.random.default_rng(12 + n), n)
        for settings in (settings_for(n), observables_for(n)):
            for p_readout in (0.0, 0.02):
                for shots in (1, 997):
                    ds = collect_dataset(rho, shots, n, p_readout, settings)
                    fields = {f.name: getattr(ds, f.name) for f in dataclasses.fields(ds)}
                    again = TomographyDataset(**fields)
                    assert again.to_json() == ds.to_json()


class TestSamplerStatistics:
    """Properties of the draws themselves, independent of how they are derived."""

    def test_every_seed_and_setting_has_its_own_stream(self):
        # every grid setting of the maximally mixed state has the same uniform
        # distribution, so equal counts would mean a shared stream
        rho = DensityMatrix(3, np.eye(8, dtype=complex) / 8)
        seen = set()
        for seed in range(100):
            for counts in collect_dataset(rho, 1000, seed).to_json()["settings"].values():
                seen.add(tuple(sorted(counts.items())))
        assert len(seen) == 100 * 27

    def test_mean_counts_within_five_sigma(self):
        _, rho = next(router_states())  # router-superposition
        settings = settings_for(3)
        shots, seeds = 8192, 400
        probs = np.array([basis_probs(rho, s) for s in settings])
        total = np.zeros(probs.shape)
        for seed in range(seeds):
            total += collect_dataset(rho, shots, seed).counts
        mean = total / seeds
        sigma = np.sqrt(shots * probs * (1 - probs) / seeds)
        assert np.all(np.abs(mean - shots * probs) <= 5 * sigma + 1e-9)

    def test_counts_sum_to_shots_on_possible_outcomes(self):
        for _, rho in router_states():
            for settings in (settings_for(3), observables_for(3)):
                probs = {s: basis_probs(rho, s) for s in settings}
                for seed in range(20):
                    ds = collect_dataset(rho, 997, seed, settings=settings)
                    for s, counts in ds.to_json()["settings"].items():
                        assert sum(counts.values()) == 997
                        assert all(probs[s][int(k, 2)] > 0 for k in counts), s


class TestLinearInversion:
    def test_zero_state(self):
        m = linear_inversion({"X": 0.0, "Y": 0.0, "Z": 1.0}, 1)
        assert np.allclose(m, [[1, 0], [0, 0]])

    def test_maximally_mixed(self):
        m = linear_inversion({"X": 0.0, "Y": 0.0, "Z": 0.0}, 1)
        assert np.allclose(m, np.eye(2) / 2)

    def test_exact_router_state(self):
        for _, rho in router_states():
            m = linear_inversion(exact_expectations(rho), 3)
            assert np.max(np.abs(m - rho.matrix)) < 1e-9

    def test_missing_expectation(self):
        with pytest.raises(ValueError, match="missing expectation for 'Z'"):
            linear_inversion({"X": 0.0, "Y": 0.0}, 1)

    def test_matches_per_pauli_loop(self):
        rng = np.random.default_rng(17)
        for trial in range(30):
            n = 1 + trial % 5
            exps = dict(zip(observables_for(n), rng.uniform(-1, 1, 4**n - 1)))
            m = linear_inversion(exps, n)
            assert np.max(np.abs(m - loop_inversion(exps, n))) <= 1e-12


    def test_no_pauli_stack(self):
        n = 5
        exps = dict(zip(observables_for(n), np.random.default_rng(4).uniform(-1, 1, 4**n - 1)))
        linear_inversion(exps, n)
        tracemalloc.start()
        try:
            linear_inversion(exps, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (1023, 32, 32) complex stack of Pauli matrices alone would be 16.8 MB
        assert peak < 1_000_000


class TestProjection:
    def test_physical_input_unchanged(self):
        rho = to_density(StateVector(1, PSI_S))
        out = project_to_physical(rho.matrix)
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-9

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)], ids=repr)
    @pytest.mark.parametrize("where", [(0, 1), (1, 1)], ids=["off-diagonal", "diagonal"])
    def test_rejects_non_finite_entries(self, bad, where):
        m = np.eye(2, dtype=complex) / 2
        m[where] = bad
        m[where[::-1]] = np.conj(bad)
        with pytest.raises(ValueError, match="input entries must be finite"):
            project_to_physical(m)

    def test_hand_computed_truncation(self):
        out = project_to_physical(np.diag([1.1, -0.1]).astype(complex))
        assert np.allclose(out.matrix, np.diag([1.0, 0.0]))

    def test_water_filling_redistribution(self):
        # hand-executed: zero -0.1, add -0.05 to each remaining nonzero value
        out = project_to_physical(np.diag([0.7, 0.4, -0.1, 0.0]).astype(complex))
        lam = np.sort(np.linalg.eigvalsh(out.matrix))[::-1]
        assert np.allclose(lam, [0.65, 0.35, 0.0, 0.0])

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize(
        "kind", ["random", "zero-eigenvalues", "several-negative", "trace-off"]
    )
    def test_matches_water_filling(self, n, kind):
        rng = np.random.default_rng(50 + n)
        dim = 2**n
        for _ in range(40):
            if kind == "random":
                # a state plus trace-free Hermitian noise, as shot noise leaves it
                rho = random_state(rng, n).matrix
                h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                h = (h + h.conj().T) / 2
                m = rho + rng.uniform(0, 0.3) * (h - np.trace(h) / dim * np.eye(dim)) / dim
            else:
                lam = rng.uniform(0, 1, dim)
                if kind == "zero-eigenvalues":
                    idx = rng.permutation(dim)
                    lam[idx[: dim // 2]] = 0.0
                    lam[idx[dim // 2 : -1]] *= -0.2  # and negative ones from n = 2 on
                else:
                    lam[rng.permutation(dim)[: max(1, dim - 2)]] *= -0.2
                lam /= lam.sum()
                if kind == "trace-off":
                    lam *= 1 + rng.uniform(-1e-7, 1e-7)
                g = rng.normal(size=(2, dim, dim))
                q, _ = np.linalg.qr(g[0] + 1j * g[1])
                # exact zeros survive only in the eigenbasis
                m = np.diag(lam) if rng.random() < 0.5 else (q * lam) @ q.conj().T
            m = m.astype(complex)
            out = project_to_physical(m).matrix
            assert np.max(np.abs(out - water_filling(m))) <= 1e-12
            DensityMatrix(n, out)  # the trusted result passes the full check

    def test_pipeline_output_is_physical(self):
        rho = to_density(apply_circuit(named_router_circuit("router-superposition"), basis_state(3, 0)))
        rec = reconstruct(collect_dataset(rho, 512, 21))
        assert isinstance(rec, DensityMatrix)
        assert abs(np.trace(rec.matrix).real - 1.0) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            project_to_physical(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            project_to_physical(np.eye(2, dtype=complex))


class TestReconstruct:
    def test_exact_pipeline_reproduces_input(self):
        rng = np.random.default_rng(13)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        rho = to_density(StateVector(3, amps / np.linalg.norm(amps)))
        m = linear_inversion(exact_expectations(rho), 3)
        out = project_to_physical(m)
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-9

    def test_statistical_consistency(self):
        # shot noise only, paper-scale budget; large-seed-majority check is
        # exercised in the acceptance suite, a small slice here
        for name, rho in router_states():
            ok = 0
            for seed in range(10):
                rec = reconstruct(collect_dataset(rho, 8192, seed))
                ok += fidelity(rec, rho) > 0.98
            assert ok >= 9, name

    @pytest.mark.parametrize("name, rho", list(router_states()))
    def test_largest_grid_budget_reconstructs(self, name, rho):
        # the most shots the 27-setting grid takes without its int64 sums wrapping
        rec = reconstruct(collect_dataset(rho, (2**63 - 1) // 27, 0))
        assert fidelity(rec, rho) >= 0.98

    def test_literal_mode_reconstruction(self):
        rho = to_density(StateVector(1, PSI_S))
        ds = collect_dataset(rho, 8192, 4, settings=observables_for(1))
        rec = reconstruct(ds)
        assert fidelity(rec, rho) > 0.98


class TestFidelity:
    def test_self_fidelity(self):
        for _, rho in router_states():
            assert abs(fidelity(rho, rho) - 1.0) < 1e-9

    def test_orthogonal_states(self):
        a = to_density(basis_state(1, 0))
        b = to_density(basis_state(1, 1))
        assert fidelity(a, b) < 1e-9

    def test_mixed_vs_pure_closed_form(self):
        # Tr sqrt(sqrt(rho) sigma sqrt(rho)) = sqrt(<0|I/2|0>) = 1/sqrt(2)
        mixed = DensityMatrix(1, np.eye(2) / 2)
        assert abs(fidelity(mixed, to_density(basis_state(1, 0))) - 1 / np.sqrt(2)) < 1e-9

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = a @ a.conj().T
        rho = DensityMatrix(2, a / np.trace(a))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = b @ b.conj().T
        sigma = DensityMatrix(2, b / np.trace(b))
        assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) < 1e-9

    def test_unitary_invariance(self):
        from qrouter.gates import circuit_unitary, fredkin_circuit

        u = circuit_unitary(fredkin_circuit(0, 1, 2))
        items = list(router_states())
        rho, sigma = items[0][1], items[1][1]
        rho_u = DensityMatrix(3, u @ rho.matrix @ u.conj().T)
        sigma_u = DensityMatrix(3, u @ sigma.matrix @ u.conj().T)
        assert abs(fidelity(rho, sigma) - fidelity(rho_u, sigma_u)) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(to_density(basis_state(1, 0)), to_density(basis_state(2, 0)))

    def test_square_root_is_computed_once_and_kept_with_the_state(self):
        rng = np.random.default_rng(8)
        rho = random_state(rng, 3)
        name, sigma = next(router_states())
        psi = apply_circuit(named_router_circuit(name), basis_state(3, 0)).amplitudes
        assert rho._sqrt is None and sigma._sqrt is None
        first = fidelity(rho, sigma)
        root = rho._sqrt
        assert not root.flags.writeable
        assert np.max(np.abs(root @ root - rho.matrix)) <= 1e-12
        assert fidelity(rho, sigma) == first and rho._sqrt is root
        # states with no root kept give the same number, as does the pure closed form
        assert fidelity(DensityMatrix(3, rho.matrix), DensityMatrix(3, sigma.matrix)) == first
        # the root of a pure sigma carries the root of its rounding-level eigenvalues, ~1e-8
        assert abs(first - np.sqrt(np.vdot(psi, rho.matrix @ psi).real)) <= 1e-7


class TestPauliMatrix:
    """The one Pauli table, ``_PAULI_BASIS``, and a Pauli string built from its rows."""

    def test_single_letters(self):
        basis = [np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], np.diag([1, -1])]
        assert np.array_equal(_PAULI_BASIS, np.array(basis, dtype=complex))

    def test_qubit_zero_is_leftmost(self):
        # depolarizing's stack is every Pauli string in IXYZ order, I...I first, so row
        # 4 * 3 + 0 is "ZI"; at p = 1 every row has weight 1/16
        zi = depolarizing(1.0, 2)[12] * 4
        assert np.allclose(zi, np.diag([1, 1, -1, -1]))
