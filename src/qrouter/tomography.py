"""Shot-based Pauli tomography and the fidelity metric.

A measurement setting is one local basis choice per qubit (X, Y or Z; 3^n
settings cover every non-identity Pauli observable by marginalizing the
positions one replaces with I). For a literal one-circuit-per-observable run,
settings may also carry I letters: those qubits are measured in Z and their
bits ignored by every estimator that targets the setting's observable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gates import GATE_MATRICES, _kron_rows
from .noise import readout_flip
from .qstate import _PAULI_BASIS, _PAULI_LETTERS, DensityMatrix, InputError, _is_int

# the rotation stack of the 3^6 measured bases, which ``_setting_probs`` forms for
# each state it has no distributions for: 3^6 * 4^6 complex = 48 MB, twice that
# with its conjugate
MAX_TOMOGRAPHY_QUBITS = 6

# rotation into the Z basis for each setting letter, one row per basis letter; I measures Z
_TO_Z = {"X": GATE_MATRICES["h"], "Y": GATE_MATRICES["h"] @ GATE_MATRICES["sdg"]}  # sdg, then h
_ROTATIONS = np.array([_TO_Z.get(letter, np.eye(2, dtype=complex)) for letter in _PAULI_LETTERS])
# a letter becomes the character whose code is its basis row, one byte when encoded
_ROW_CHARS = str.maketrans({letter: chr(i) for i, letter in enumerate(_PAULI_LETTERS)})


def settings_for(n: int) -> list[str]:
    """All 3^n local-basis settings in lexicographic order (X < Y < Z)."""
    return list(_grid(n))


@lru_cache(maxsize=8)
def _grid(n: int) -> tuple[str, ...]:
    """``settings_for`` as a shared tuple."""
    if n < 1:
        raise ValueError("need at least one qubit")
    return tuple("".join(p) for p in itertools.product("XYZ", repeat=n))


def observables_for(n: int) -> list[str]:
    """All 4^n - 1 non-identity Pauli strings, in IXYZ-lexicographic order."""
    return list(_observables(n))


@lru_cache(maxsize=8)
def _observables(n: int) -> tuple[str, ...]:
    """``observables_for`` as a shared tuple; a product over IXYZ whose first
    string is the all-I one, which is dropped."""
    if n < 1:
        raise ValueError("need at least one qubit")
    return tuple("".join(p) for p in itertools.product(_PAULI_LETTERS, repeat=n))[1:]


def _letters(strings, n: int, what: str) -> np.ndarray:
    """The ``_PAULI_BASIS`` row of each letter of n-letter Pauli strings, as a
    read-only (len, n) array; any other entry raises ``ValueError``."""
    for x in strings:
        if not isinstance(x, str) or len(x) != n or not set(x) <= set(_PAULI_LETTERS):
            raise ValueError(f"{what} {x!r} is not {n} letters of {_PAULI_LETTERS}")
    rows = "".join(strings).translate(_ROW_CHARS).encode()
    return np.frombuffer(rows, dtype=np.uint8).reshape(len(strings), n)


def _setting_letters(n: int, settings: list[str] | tuple[str, ...]) -> np.ndarray:
    """Each setting's ``_letters`` rows (read-only, (S, n)), once the settings
    are checked: at least one, each n letters of IXYZ, all distinct. A failed
    check raises ``ValueError``."""
    if not settings:
        raise ValueError("need at least one measurement setting")
    letters = _letters(settings, n, "setting")
    if len(set(settings)) != len(settings):
        raise ValueError("measurement settings must be distinct")
    return letters


def _rotation_stack(letters: np.ndarray) -> np.ndarray:
    """(S, 2^n, 2^n) basis rotations of checked (S, n) letter rows: row s is
    the kron of row s's single-qubit rotations."""
    return _kron_rows(_ROTATIONS, letters)


def _setting_probs(rho: DensityMatrix, settings: list[str], p_readout: float) -> np.ndarray:
    """Outcome distribution of each setting as an (S, 2^n) array, rows in order.

    The settings' checked letter rows (``_setting_letters``) are measured with
    I as Z, and one ``np.unique`` over each measured row's base-4 code finds
    the B <= 3^n distinct bases. Their Born probabilities come from one
    batched contraction, are clipped at 0 and normalised per row, and are
    gathered into one row per setting; the stack then passes through
    ``readout_flip`` when ``p_readout`` is nonzero. Each row is contracted and
    normalised alone, so a setting's distribution is bit for bit the one its
    own rotation gives. The three-operand ``einsum`` keeps the exact zeros of
    basis outcomes that a pure state never gives, and those zeros decide its
    multinomial draws.

    The read-only result is kept with ``rho`` under its (settings, p_readout)
    key; a call with an equal key, as in a seed sweep, returns it unchecked.
    """
    key = (tuple(settings), p_readout)
    if rho._probs is not None and rho._probs[0] == key:
        return rho._probs[1]
    n = rho.n_qubits
    letters = _setting_letters(n, settings)
    measured = np.where(letters == 0, 3, letters)  # basis row 0 is I, row 3 Z
    codes = measured @ 4 ** np.arange(n - 1, -1, -1)
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    r = _rotation_stack(measured[first])
    probs = np.einsum("sij,jk,sik->si", r, rho.matrix, r.conj()).real
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum(axis=1, keepdims=True)
    probs = probs[inverse]
    probs = readout_flip(probs, p_readout) if p_readout else probs
    probs.setflags(write=False)
    rho._probs = (key, probs)
    return probs


def sample_counts(
    rho: DensityMatrix,
    setting: str,
    shots: int,
    seed: int,
    p_readout: float = 0.0,
) -> dict[str, int]:
    """Draw outcome counts for one setting; deterministic for a fixed seed.

    Outcome keys are bitstrings with qubit 0 first. This is ``collect_dataset``
    on the one setting, so its counts are setting index 0 of master ``seed``:
    one multinomial draw over the (readout-corrupted) Born distribution.
    """
    return collect_dataset(rho, shots, seed, p_readout, [setting]).to_json()["settings"][setting]


# the sampling contracts ``TomographyDataset`` describes, newest first
_RNG_NAMES = ("numpy-philox-counter-multinomial", "numpy-pcg64-seedseq-multinomial", "numpy-pcg64")


@dataclass(eq=False)
class TomographyDataset:
    """Outcome counts of each measurement setting at a fixed shot budget.

    ``counts[i, j]`` is how often setting ``settings[i]`` gave outcome j, whose
    n-bit string (qubit 0 first) is the binary expansion of j: an int64 array of
    shape (S, 2^n). Construction checks every dataset once: an integer n in
    1..MAX_TOMOGRAPHY_QUBITS, distinct n-letter IXYZ settings, integer shots x
    settings within int64, a non-negative integer seed, and nonnegative counts
    whose every row sums exactly to ``shots``. n, shots and seed are stored as
    ``int``, the only numbers ``from_json`` reads back in their place. ``collect_dataset``
    checks its width, settings, shots and seed on the way in and draws rows that sum
    to ``shots``, so it builds its dataset with ``_trusted`` instead. Label
    dicts exist only in the counts file, written by ``to_json`` and read, with
    each label and count checked, by ``from_json``.

    ``seed`` is the master seed: ``collect_dataset`` keys one Philox
    counter-based generator from ``SeedSequence(seed)`` and draws setting
    index i from the block of 2^128 counters that starts at ``[0, 0, i, 0]``,
    so a setting's counts depend on (seed, index, distribution) alone, never
    on how the other settings were sampled, and distinct (seed, index) pairs
    get disjoint streams. ``rng_name`` names that derivation so counts files
    are reproducible bit-for-bit. Files of the earlier contracts load with
    their own name and estimate alike: ``"numpy-pcg64-seedseq-multinomial"``
    drew setting i from ``default_rng(SeedSequence([seed, i]))``, and a file
    without a name predates both (``seed ^ i`` streams and sorted uniform
    draws) and loads as ``"numpy-pcg64"``. ``from_json`` refuses any other
    ``rng``.
    """

    n_qubits: int
    shots: int
    seed: int
    settings: list[str]
    counts: np.ndarray
    rng_name: str = "numpy-philox-counter-multinomial"

    def __post_init__(self):
        n, shots, settings, counts = self.n_qubits, self.shots, self.settings, self.counts
        _check_width(n)
        _setting_letters(n, settings)
        _check_shots(shots, len(settings))
        _check_seed(self.seed)
        # from_json reads back only ints, so a NumPy integer is stored as one
        self.n_qubits, self.shots, self.seed = int(n), int(shots), int(self.seed)
        shape = (len(settings), 2**n)
        if not isinstance(counts, np.ndarray) or counts.dtype != np.int64 or counts.shape != shape:
            raise ValueError(f"counts must be an int64 array of shape {shape}")
        if counts.min(initial=0) < 0:
            raise ValueError("outcome counts must be nonnegative")
        # partial sums of nonnegative int64 counts turn negative at the first wrap
        sums = counts.cumsum(axis=1)
        bad = np.flatnonzero((sums.min(axis=1, initial=0) < 0) | (sums[:, -1] != shots))
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"setting {settings[i]!r} holds {sum(counts[i].tolist())} counts, "
                f"but the dataset has {shots} shots"
            )

    def to_json(self) -> dict:
        labels = [format(j, f"0{self.n_qubits}b") for j in range(2**self.n_qubits)]
        return {
            "n_qubits": self.n_qubits,
            "shots": self.shots,
            "seed": self.seed,
            "rng": self.rng_name,
            "settings": {
                s: {label: c for label, c in zip(labels, row) if c}
                for s, row in zip(self.settings, self.counts.tolist())
            },
        }

    @classmethod
    def from_json(cls, data) -> "TomographyDataset":
        """Inverse of ``to_json``; a malformed file raises ``InputError``."""
        if not isinstance(data, dict):
            raise InputError("a counts file holds one JSON object")
        header = {}
        for key in ("n_qubits", "shots", "seed"):
            value = data.get(key)
            if not _is_int(value):
                raise InputError(f"counts file {key!r} must be an integer, not {value!r}")
            header[key] = value
        rng_name = data.get("rng", "numpy-pcg64")
        if rng_name not in _RNG_NAMES:
            raise InputError(f"counts file 'rng' {rng_name!r} names no sampling contract")
        table = data.get("settings")
        if not isinstance(table, dict) or not all(isinstance(o, dict) for o in table.values()):
            raise InputError("counts file 'settings' must map each setting to its outcome counts")
        n = header["n_qubits"]
        _check_width(n)
        counts = np.zeros((len(table), 2**n), dtype=np.int64)
        for row, outcomes in zip(counts, table.values()):
            for label, c in outcomes.items():
                if not isinstance(label, str) or len(label) != n or not set(label) <= {"0", "1"}:
                    raise InputError(f"outcome {label!r} is not a {n}-bit string")
                # a negative count that fits is refused by the constructor
                if not _is_int(c) or not -(2**63) <= c < 2**63:
                    raise InputError(f"outcome count {c!r} is not an integer in int64 range")
                row[int(label, 2)] = c
        return cls(**header, settings=list(table), counts=counts, rng_name=rng_name)

    @classmethod
    def _trusted(cls, n, shots, seed, settings, counts) -> "TomographyDataset":
        """A dataset of the current ``rng_name`` whose parts were checked where
        they were made, so ``__post_init__`` is skipped; never for outside input."""
        ds = cls.__new__(cls)
        ds.__dict__.update(n_qubits=n, shots=shots, seed=seed, settings=settings, counts=counts)
        return ds


def _check_shots(shots, n_settings: int) -> None:
    """Shots are a positive integer (never a bool), and since estimation sums
    int64 counts over the settings, their total must fit in one."""
    if not _is_int(shots) or shots < 1:
        raise ValueError(f"shots must be positive and an integer, not {shots!r}")
    if int(shots) * n_settings > np.iinfo(np.int64).max:
        raise ValueError(f"{shots} shots x {n_settings} settings exceed 2^63 - 1 in total")


def _check_width(n) -> None:
    """A dataset has 1..MAX_TOMOGRAPHY_QUBITS qubits, the widths ``from_json`` reads back."""
    if not _is_int(n) or not 1 <= n <= MAX_TOMOGRAPHY_QUBITS:
        raise ValueError(f"'n_qubits' {n!r} is not in 1..{MAX_TOMOGRAPHY_QUBITS}")


def _check_seed(seed) -> None:
    """A master seed is a non-negative integer, never a bool, as ``from_json``
    reads one back."""
    if not _is_int(seed) or seed < 0:
        raise ValueError("seed must be a non-negative integer")


def collect_dataset(
    rho: DensityMatrix,
    shots: int,
    seed: int,
    p_readout: float = 0.0,
    settings: list[str] | None = None,
) -> TomographyDataset:
    """Sample every setting (default: the 3^n grid) into one dataset.

    The rotations of the B <= 3^n distinct measured bases form one
    (B, 2^n, 2^n) stack, and the Born probabilities with optional readout
    flips one (S, 2^n) array, a row per setting.
    Setting i's counts are then one ``multinomial(shots, probs[i])`` draw:
    the exact distribution of ``shots`` i.i.d. shots, at a cost that does not
    grow with ``shots``. All draws share one ``Generator`` over one Philox
    keyed from ``SeedSequence(seed)`` (Salmon et al., SC'11); before draw i
    the bit generator is reset to counter ``[0, 0, i, 0]`` with an empty
    buffer, which is what a fresh ``Philox(key, counter=[0, 0, i, 0])``
    starts from, without building one per setting.
    """
    n = rho.n_qubits
    _check_width(n)
    settings = list(_grid(n) if settings is None else settings)
    _check_shots(shots, len(settings))
    _check_seed(seed)
    # from_json reads back only int shots and seed, so a NumPy integer is stored as one
    shots, seed = int(shots), int(seed)
    probs = _setting_probs(rho, settings, p_readout)
    bits = np.random.Philox(np.random.SeedSequence(seed))
    rng = np.random.Generator(bits)
    # taken before any draw, so its buffer is empty; only counter word 2 changes
    state = bits.state
    counter = state["state"]["counter"]
    counts = np.empty(probs.shape, dtype=np.int64)
    for i, row in enumerate(probs):
        counter[2] = i
        bits.state = state
        counts[i] = rng.multinomial(shots, row)
    # the settings passed _setting_probs's check, and every multinomial row sums to shots
    return TomographyDataset._trusted(n, shots, seed, settings, counts)


def expectation_values(
    dataset: TomographyDataset, paulis: list[str] | None = None
) -> dict[str, float]:
    """Estimate <P> for each of ``paulis`` (default: every non-identity observable).

    One integer counts matrix (settings x 2^n) times a +-1 parity matrix gives
    every (setting, observable) total; masked to the compatible settings and
    summed, each total is divided by (compatible settings x shots), so every
    estimate is the mean over the settings that measure its observable. The
    parity matrix, the mask and the per-observable setting counts depend on
    the shape alone (n, settings, paulis) and are built once per shape.
    """
    n = dataset.n_qubits
    if paulis is None:
        paulis = _observables(n)
    else:
        paulis = tuple(paulis)
        # checked before the cache hashes them, so a malformed entry raises ValueError
        _letters(paulis, n, "pauli")
    signs, compatible, k = _estimator_tables(n, tuple(dataset.settings), paulis)
    values = ((dataset.counts @ signs) * compatible).sum(axis=0) / (k * dataset.shots)
    return dict(zip(paulis, values.tolist()))


@lru_cache(maxsize=4)
def _estimator_tables(
    n: int, settings: tuple[str, ...], paulis: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (signs, compatible, k) of ``expectation_values`` for checked
    settings and paulis. A pauli no setting measures raises ``ValueError``,
    which the cache does not keep, so every call for that shape raises it.
    A one-command process builds its tables once and never hits; a process
    that estimates many datasets of one shape does, as ``seed-sweep`` on every
    op and ``device-run`` on every op after its first."""
    rows = _setting_letters(n, settings)
    obs = _letters(paulis, n, "pauli")
    support = obs != 0  # basis row 0 is I
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    signs = 1 - 2 * ((bits @ support.T) % 2)
    # a setting measures a pauli when it has the pauli's letter on every qubit of its
    # support; ANDed one qubit at a time, so no (S, P, n) array is formed
    compatible = np.ones((len(settings), len(paulis)), dtype=bool)
    match = np.empty_like(compatible)
    for q in range(n):
        np.equal(rows[:, q, None], obs[:, q], out=match)
        match |= ~support[:, q]
        compatible &= match
    k = compatible.sum(axis=0)
    if not k.all():
        pauli = paulis[int(np.argmin(k))]
        raise ValueError(f"no measurement setting compatible with {pauli!r}")
    for table in (signs, compatible, k):
        table.setflags(write=False)
    return signs, compatible, k


def expectation(dataset: TomographyDataset, pauli: str) -> float:
    """Estimate <P> from counts, averaged over every compatible setting."""
    return expectation_values(dataset, [pauli])[pauli]


def linear_inversion(expectations: dict[str, float], n: int) -> np.ndarray:
    """rho_hat = 2^-n (I + sum_P <P> P); Hermitian and unit-trace, possibly non-PSD.

    With <I...I> = 1 put first, the expectations in ``observables_for`` order
    are a (4,)*n coefficient tensor indexed by each qubit's IXYZ letter. Its
    axes are contracted with the (4, 2, 2) single-qubit Pauli basis one at a
    time, qubit 0 first, which leaves the axes (i0, j0, ..., i(n-1), j(n-1));
    one transpose orders them as the matrix's row and column bits. No
    (4^n - 1, 2^n, 2^n) stack of Pauli matrices is built.
    """
    try:
        t = np.array([1.0, *map(expectations.__getitem__, _observables(n))], dtype=float)
    except KeyError as err:
        raise ValueError(f"missing expectation for {err.args[0]!r}") from None
    basis = _PAULI_BASIS.reshape(4, 4)
    for _ in range(n):
        t = t.reshape(4, -1).T @ basis
    axes = [*range(0, 2 * n, 2), *range(1, 2 * n, 2)]
    return t.reshape((2,) * (2 * n)).transpose(axes).reshape(2**n, 2**n) / 2**n


def project_to_physical(m: np.ndarray) -> DensityMatrix:
    """Closest density matrix to a near-physical Hermitian estimate.

    The closed form of Smolin, Gambetta and Smith (arXiv:1106.5458): with the
    eigenvalues sorted in descending order, the largest k with
    lambda_k > (lambda_1 + ... + lambda_k - t) / k, t the eigenvalue total,
    fixes one shift; every eigenvalue moves down by it and is clipped at 0,
    which spreads the negative mass equally over the surviving eigenvalues.
    A PSD input passes through unchanged up to the final normalisation.

    The output is symmetrised, normalised and built from that clipped
    spectrum, so it is returned as a trusted state; NaN and inf, which can
    pass the comparisons below, are refused first.
    """
    m = np.asarray(m, dtype=complex)
    if not np.isfinite(m).all():
        raise ValueError("input entries must be finite")
    if np.max(np.abs(m - m.conj().T)) > 1e-6:
        raise ValueError("input is not approximately Hermitian")
    tr = np.trace(m).real
    if abs(tr - 1.0) > 1e-6:
        raise ValueError(f"input trace {tr} is not approximately 1")
    herm = (m + m.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(herm)
    csum = np.cumsum(vals[::-1])
    shifts = (csum - csum[-1]) / np.arange(1, len(vals) + 1)
    shift = shifts[np.flatnonzero(vals[::-1] > shifts)[-1]]
    vals = np.clip(vals - shift, 0.0, None)
    vals /= vals.sum()
    out = (vecs * vals) @ vecs.conj().T
    n = int(np.log2(m.shape[0]))
    return DensityMatrix._trusted(n, (out + out.conj().T) / 2.0)


def reconstruct(dataset: TomographyDataset) -> DensityMatrix:
    """Full pipeline: expectations -> linear inversion -> physicality projection."""
    exps = expectation_values(dataset)
    return project_to_physical(linear_inversion(exps, dataset.n_qubits))


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(rho) sigma sqrt(rho)).

    For a pure sigma this is sqrt(<psi|rho|psi>). The square-root (rather
    than squared-overlap) convention is what brackets the reference device
    fidelities at the modeled noise levels; both conventions agree at 0 and 1
    and are monotonically related, so every metric ordering is unchanged.
    """
    if rho.dim != sigma.dim:
        raise ValueError("states have different dimensions")
    # nuclear norm of sqrt(rho) sqrt(sigma); better conditioned than
    # eigendecomposing the sandwiched product when either state is pure
    sv = np.linalg.svd(_sqrtm(rho) @ _sqrtm(sigma), compute_uv=False)
    return float(min(1.0, sv.sum()))


def _sqrtm(rho: DensityMatrix) -> np.ndarray:
    """The PSD square root of ``rho``, computed on first use and kept with the state."""
    if rho._sqrt is None:
        w, v = np.linalg.eigh(rho.matrix)
        root = (v * np.sqrt(np.clip(w.real, 0.0, None))) @ v.conj().T
        root.setflags(write=False)
        rho._sqrt = root
    return rho._sqrt
