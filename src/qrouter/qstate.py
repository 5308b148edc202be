"""Pure states, density operators, and the entanglement metrics built on them.

Convention used everywhere in this package: qubit 0 is the most significant
bit of a basis-state index, so basis index 0b110 on three qubits reads
|q0 q1 q2> = |110>.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

ATOL = 1e-9
PSD_SLACK = 1e-7

_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1, -1]).astype(complex),
}


@lru_cache(maxsize=None)
def pauli_matrix(pauli: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis, qubit 0 leftmost."""
    m = _PAULI_1Q[pauli[0]]
    for letter in pauli[1:]:
        m = np.kron(m, _PAULI_1Q[letter])
    m.setflags(write=False)
    return m


class StateVector:
    """Normalized pure state of ``n_qubits`` qubits."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.shape[0] != 2**n_qubits:
            raise ValueError(
                f"expected {2**n_qubits} amplitudes for {n_qubits} qubits, got {amps.shape[0]}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > ATOL:
            raise ValueError(f"state is not normalized: |psi| = {norm}")
        self.n_qubits = n_qubits
        self.amplitudes = amps
        self.amplitudes.setflags(write=False)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def __repr__(self):
        return f"StateVector(n_qubits={self.n_qubits}, amplitudes={self.amplitudes!r})"


class DensityMatrix:
    """Hermitian, unit-trace, PSD operator on ``n_qubits`` qubits.

    PSD is enforced only up to a small negative slack so that
    shot-noise-projected reconstructions sit exactly at the boundary.
    """

    __slots__ = ("n_qubits", "matrix")

    def __init__(self, n_qubits: int, matrix):
        m = np.asarray(matrix, dtype=complex)
        dim = 2**n_qubits
        if m.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        if np.max(np.abs(m - m.conj().T)) > ATOL:
            raise ValueError("matrix is not Hermitian")
        tr = np.trace(m).real
        if abs(tr - 1.0) > ATOL:
            raise ValueError(f"trace is {tr}, expected 1")
        lo = float(np.linalg.eigvalsh(m)[0])
        if lo < -PSD_SLACK:
            raise ValueError(f"matrix is not PSD: min eigenvalue {lo}")
        self.n_qubits = n_qubits
        self.matrix = m
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def __repr__(self):
        return f"DensityMatrix(n_qubits={self.n_qubits})"


def basis_state(n_qubits: int, index: int) -> StateVector:
    """Computational basis state |index> on ``n_qubits`` qubits."""
    if not 0 <= index < 2**n_qubits:
        raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(n_qubits, amps)


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Combined state |a>|b>; a's qubits become the more significant ones."""
    return StateVector(a.n_qubits + b.n_qubits, np.kron(a.amplitudes, b.amplitudes))


def to_density(psi: StateVector) -> DensityMatrix:
    """Outer product |psi><psi|."""
    return DensityMatrix(psi.n_qubits, np.outer(psi.amplitudes, psi.amplitudes.conj()))


def _check_qubit_subset(qubits, n: int, what: str):
    qs = sorted(set(qubits))
    if len(qs) != len(list(qubits)):
        raise ValueError(f"{what} contains repeated qubit indices")
    if not qs:
        raise ValueError(f"{what} must be nonempty")
    if qs[0] < 0 or qs[-1] >= n:
        raise ValueError(f"{what} references qubits outside 0..{n - 1}")
    return qs


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the ``keep`` qubits (retained in ascending index order)."""
    n = rho.n_qubits
    keep = _check_qubit_subset(keep, n, "keep set")
    traced = [q for q in range(n) if q not in keep]
    t = rho.matrix.reshape((2,) * (2 * n))
    # contract each traced qubit's row axis with its column axis
    row = list(range(n))
    col = list(range(n, 2 * n))
    out = []
    subs = list(range(2 * n))
    for q in traced:
        subs[col[q]] = subs[row[q]]
    for q in keep:
        out.append(subs[row[q]])
    for q in keep:
        out.append(subs[col[q]])
    reduced = np.einsum(t, subs, out)
    k = len(keep)
    return DensityMatrix(k, reduced.reshape(2**k, 2**k))


def permute_qubits(rho: DensityMatrix, order) -> DensityMatrix:
    """Relabel qubits so that new qubit i is old qubit ``order[i]``."""
    n = rho.n_qubits
    order = list(order)
    if sorted(order) != list(range(n)):
        raise ValueError(f"order must be a permutation of 0..{n - 1}")
    t = rho.matrix.reshape((2,) * (2 * n))
    axes = order + [n + q for q in order]
    return DensityMatrix(n, t.transpose(axes).reshape(rho.dim, rho.dim))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -sum(lam * log2 lam) in bits, with 0*log0 = 0."""
    lam = np.linalg.eigvalsh(rho.matrix)
    lam = np.clip(lam.real, 0.0, None)
    nz = lam[lam > 0]
    return float(-np.sum(nz * np.log2(nz)))


def negativity(rho: DensityMatrix, part_a, part_b) -> float:
    """Sum of |negative eigenvalues| of the partial transpose over ``part_a``.

    ``part_a`` and ``part_b`` must partition the qubits disjointly; 0 for any
    state that is a product across the cut.
    """
    n = rho.n_qubits
    a = _check_qubit_subset(part_a, n, "part_a")
    b = _check_qubit_subset(part_b, n, "part_b")
    if set(a) & set(b) or len(a) + len(b) != n:
        raise ValueError("partition must cover all qubits disjointly")
    t = rho.matrix.reshape((2,) * (2 * n))
    axes = list(range(2 * n))
    for q in a:
        axes[q], axes[n + q] = axes[n + q], axes[q]
    pt = t.transpose(axes).reshape(rho.dim, rho.dim)
    lam = np.linalg.eigvalsh(pt)
    return float(np.abs(lam[lam < 0]).sum())


def equal_up_to_global_phase(a: StateVector, b: StateVector, tol: float = ATOL) -> bool:
    """True iff a equals b after multiplying by some unit-modulus scalar."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("states have different qubit counts")
    return abs(np.vdot(a.amplitudes, b.amplitudes)) >= 1.0 - tol


def density_to_json(rho: DensityMatrix) -> dict:
    """Row-major ``{"n_qubits": k, "entries": [[[re, im], ...], ...]}``."""
    entries = [[[z.real, z.imag] for z in row] for row in rho.matrix]
    return {"n_qubits": rho.n_qubits, "entries": entries}


def density_from_json(data: dict) -> DensityMatrix:
    n = int(data["n_qubits"])
    m = np.array(
        [[complex(re, im) for re, im in row] for row in data["entries"]], dtype=complex
    )
    return DensityMatrix(n, m)
