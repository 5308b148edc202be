"""Shot-based Pauli tomography and the fidelity metric.

A measurement setting is one local basis choice per qubit (X, Y or Z; 3^n
settings cover every non-identity Pauli observable by marginalizing the
positions one replaces with I). For a literal one-circuit-per-observable run,
settings may also carry I letters: those qubits are measured in Z and their
bits ignored by every estimator that targets the setting's observable.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .gates import GATE_MATRICES
from .noise import readout_flip
from .qstate import DensityMatrix, pauli_matrix

_ROTATIONS = {
    "X": GATE_MATRICES["h"],
    "Y": GATE_MATRICES["h"] @ GATE_MATRICES["sdg"],  # circuit order: sdg, then h
    "Z": np.eye(2, dtype=complex),
    "I": np.eye(2, dtype=complex),
}


def settings_for(n: int) -> list[str]:
    """All 3^n local-basis settings in lexicographic order (X < Y < Z)."""
    if n < 1:
        raise ValueError("need at least one qubit")
    return ["".join(p) for p in itertools.product("XYZ", repeat=n)]


def observables_for(n: int) -> list[str]:
    """All 4^n - 1 non-identity Pauli strings."""
    if n < 1:
        raise ValueError("need at least one qubit")
    return [
        "".join(p)
        for p in itertools.product("IXYZ", repeat=n)
        if any(l != "I" for l in p)
    ]


def _basis_probs(rho: DensityMatrix, setting: str) -> np.ndarray:
    r = _ROTATIONS[setting[0]]
    for letter in setting[1:]:
        # np.kron(r, b) (the same products), without np.kron's per-call overhead
        b = _ROTATIONS[letter]
        r = (r[:, None, :, None] * b[None, :, None, :]).reshape(2 * len(r), 2 * len(r))
    probs = np.real(np.einsum("ij,jk,ik->i", r, rho.matrix, r.conj()))
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def sample_counts(
    rho: DensityMatrix,
    setting: str,
    shots: int,
    seed: int,
    p_readout: float = 0.0,
) -> dict[str, int]:
    """Draw outcome counts for one setting; deterministic for a fixed seed.

    Outcome keys are bitstrings with qubit 0 first. Sampling is
    inverse-transform over the (readout-corrupted) Born distribution.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    if len(setting) != rho.n_qubits:
        raise ValueError(f"setting {setting!r} does not match {rho.n_qubits} qubits")
    probs = _basis_probs(rho, setting)
    if p_readout:
        probs = readout_flip(probs, p_readout)
    rng = np.random.default_rng(seed)
    edges = np.cumsum(probs)
    edges[-1] = 1.0
    # outcome i takes the draws in [edges[i-1], edges[i]): count draws below each edge
    below = np.searchsorted(np.sort(rng.random(shots)), edges, side="left")
    counts = np.diff(below, prepend=0)
    n = rho.n_qubits
    return {
        format(i, f"0{n}b"): int(c) for i, c in enumerate(counts) if c > 0
    }


@dataclass
class TomographyDataset:
    """Counts per measurement setting at a fixed shot budget.

    ``seed`` is the master seed; setting index i sampled with seed ^ i, so
    collection order (or parallelism) cannot change the data. RNG identity is
    recorded so counts files are reproducible bit-for-bit.
    """

    n_qubits: int
    shots: int
    seed: int
    counts: dict[str, dict[str, int]]
    rng_name: str = "numpy-pcg64"

    def to_json(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "shots": self.shots,
            "seed": self.seed,
            "rng": self.rng_name,
            "settings": self.counts,
        }

    @classmethod
    def from_json(cls, data) -> "TomographyDataset":
        if isinstance(data, str):
            data = json.loads(data)
        return cls(
            n_qubits=int(data["n_qubits"]),
            shots=int(data["shots"]),
            seed=int(data["seed"]),
            counts={s: dict(c) for s, c in data["settings"].items()},
            rng_name=data.get("rng", "numpy-pcg64"),
        )


def collect_dataset(
    rho: DensityMatrix,
    shots: int,
    seed: int,
    p_readout: float = 0.0,
    settings: list[str] | None = None,
) -> TomographyDataset:
    """Sample every setting (default: the 3^n grid) into one dataset."""
    if settings is None:
        settings = settings_for(rho.n_qubits)
    counts = {
        s: sample_counts(rho, s, shots, seed ^ i, p_readout)
        for i, s in enumerate(settings)
    }
    return TomographyDataset(rho.n_qubits, shots, seed, counts)


def _letters(strings, n: int, alphabet: str, what: str) -> np.ndarray:
    """Byte codes of equal-length strings over ``alphabet`` as a (len, n) array."""
    for x in strings:
        if len(x) != n or not set(x) <= set(alphabet):
            raise ValueError(f"{what} {x!r} is not {n} letters of {alphabet}")
    return np.frombuffer("".join(strings).encode(), dtype=np.uint8).reshape(len(strings), n)


def expectation_values(
    dataset: TomographyDataset, paulis: list[str] | None = None
) -> dict[str, float]:
    """Estimate <P> for each of ``paulis`` (default: every non-identity observable).

    One integer counts matrix (settings x 2^n) times a +-1 parity matrix gives
    every (setting, observable) total; each estimate is the mean over the
    observable's compatible settings in dataset order.
    """
    n = dataset.n_qubits
    if paulis is None:
        paulis = observables_for(n)
    obs = _letters(paulis, n, "IXYZ", "pauli")
    settings = _letters(list(dataset.counts), n, "IXYZ", "setting")
    index = {format(i, f"0{n}b"): i for i in range(2**n)}
    counts = np.zeros((len(settings), 2**n), dtype=np.int64)
    for row, outcomes in zip(counts, dataset.counts.values()):
        for outcome, c in outcomes.items():
            if outcome not in index:
                raise ValueError(f"outcome {outcome!r} is not a {n}-bit string")
            row[index[outcome]] = c
    support = obs != ord("I")
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    signs = 1 - 2 * ((bits @ support.T) % 2)
    values = (counts @ signs) / dataset.shots
    compatible = np.all((settings[:, None, :] == obs[None, :, :]) | ~support[None], axis=2)
    out = {}
    for j, pauli in enumerate(paulis):
        if not compatible[:, j].any():
            raise ValueError(f"no measurement setting compatible with {pauli!r}")
        out[pauli] = float(np.mean(values[compatible[:, j], j]))
    return out


def expectation(dataset: TomographyDataset, pauli: str) -> float:
    """Estimate <P> from counts, averaged over every compatible setting."""
    if len(pauli) != dataset.n_qubits:
        raise ValueError(f"pauli {pauli!r} does not match {dataset.n_qubits} qubits")
    if set(pauli) <= {"I"}:
        return 1.0
    return expectation_values(dataset, [pauli])[pauli]


def linear_inversion(expectations: dict[str, float], n: int) -> np.ndarray:
    """rho_hat = 2^-n sum_P <P> P; Hermitian and unit-trace, possibly non-PSD."""
    dim = 2**n
    m = np.eye(dim, dtype=complex)  # the implicit all-I term, <I...I> = 1
    for pauli in observables_for(n):
        if pauli not in expectations:
            raise ValueError(f"missing expectation for {pauli!r}")
        m = m + expectations[pauli] * pauli_matrix(pauli)
    return m / dim


def project_to_physical(m: np.ndarray) -> DensityMatrix:
    """Water-filling projection of a near-physical Hermitian estimate.

    Repeatedly zeroes the most-negative eigenvalue and spreads its weight
    equally over the remaining nonzero eigenvalues; a PSD input passes
    through unchanged.
    """
    m = np.asarray(m, dtype=complex)
    if np.max(np.abs(m - m.conj().T)) > 1e-6:
        raise ValueError("input is not approximately Hermitian")
    tr = np.trace(m).real
    if abs(tr - 1.0) > 1e-6:
        raise ValueError(f"input trace {tr} is not approximately 1")
    herm = (m + m.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(herm)
    vals = vals.real.copy()
    zeroed = np.zeros(vals.shape, dtype=bool)
    while vals.min() < 0:
        i = int(np.argmin(vals))
        deficit = vals[i]
        vals[i] = 0.0
        zeroed[i] = True
        alive = ~zeroed & (vals != 0)
        if not alive.any():
            # deficit with nothing left to absorb it; trace fixes below
            break
        vals[alive] += deficit / alive.sum()
    vals = np.clip(vals, 0.0, None)
    vals /= vals.sum()
    out = (vecs * vals) @ vecs.conj().T
    n = int(np.log2(m.shape[0]))
    return DensityMatrix(n, (out + out.conj().T) / 2.0)


def reconstruct(dataset: TomographyDataset) -> DensityMatrix:
    """Full pipeline: expectations -> linear inversion -> physicality projection."""
    exps = expectation_values(dataset)
    return project_to_physical(linear_inversion(exps, dataset.n_qubits))


def exact_expectations(rho: DensityMatrix) -> dict[str, float]:
    """Noise-free <P> = Tr(P rho) for every non-identity observable."""
    return {
        p: float(np.real(np.trace(pauli_matrix(p) @ rho.matrix)))
        for p in observables_for(rho.n_qubits)
    }


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(rho) sigma sqrt(rho)).

    For a pure sigma this is sqrt(<psi|rho|psi>). The square-root (rather
    than squared-overlap) convention is what brackets the reference device
    fidelities at the modeled noise levels; both conventions agree at 0 and 1
    and are monotonically related, so every metric ordering is unchanged.
    """
    if rho.dim != sigma.dim:
        raise ValueError("states have different dimensions")

    def sqrtm(m):
        w, v = np.linalg.eigh(m)
        return (v * np.sqrt(np.clip(w.real, 0.0, None))) @ v.conj().T

    # nuclear norm of sqrt(rho) sqrt(sigma); better conditioned than
    # eigendecomposing the sandwiched product when either state is pure
    sv = np.linalg.svd(sqrtm(rho.matrix) @ sqrtm(sigma.matrix), compute_uv=False)
    return float(min(1.0, sv.sum()))
