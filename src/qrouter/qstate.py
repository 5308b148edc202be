"""Pure states, density operators, and the entanglement metrics built on them.

Convention used everywhere in this package: qubit 0 is the most significant
bit of a basis-state index, so basis index 0b110 on three qubits reads
|q0 q1 q2> = |110>.

States are validated where they enter from outside the program's own
arithmetic: every ``StateVector``, every ``DensityMatrix`` read from a file
(``density_from_json``) and the noisy simulator's result pass the full check
(finite, Hermitian, unit trace, PSD up to a small slack, the last one an
eigensolve). Three results are trusted instead, because they keep the
invariants of a state that was already checked or build them in: the outer
product of a checked ``StateVector`` (``to_density``, which still checks the
trace, since a norm within 1e-9 of 1 allows a trace 2e-9 from it), the
partial trace of a checked ``DensityMatrix``, and the tomography projection,
whose output is symmetrised, normalised and built from the spectrum it
clipped at 0, so the PSD check's eigensolve would only repeat its own. A
state's square root, which ``fidelity`` needs, and its last Born
distributions, which tomography samples, are computed once and kept with it.
"""

from __future__ import annotations

import math
import sys

import numpy as np

ATOL = 1e-9
PSD_SLACK = 1e-7

# The one Pauli letter order: letter _PAULI_LETTERS[i] is the matrix _PAULI_BASIS[i],
# and a Pauli string, a measurement setting or a table row indexes the basis this way.
_PAULI_LETTERS = "IXYZ"
_PAULI_BASIS = np.array(
    [np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], np.diag([1, -1])], dtype=complex
)
_PAULI_BASIS.setflags(write=False)


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

    __slots__ = ("n_qubits", "matrix", "_sqrt", "_probs")

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
        self._set(n_qubits, m)

    def _set(self, n_qubits: int, m: np.ndarray) -> None:
        self.n_qubits = n_qubits
        self.matrix = m
        self.matrix.setflags(write=False)
        self._sqrt = None  # the PSD square root, filled by ``tomography.fidelity``
        self._probs = None  # (key, Born distributions), filled by ``tomography._setting_probs``

    @classmethod
    def _trusted(cls, n_qubits: int, m: np.ndarray) -> "DensityMatrix":
        """A state built from a checked one by an operation that keeps every
        invariant, so ``__init__``'s checks are skipped; never for outside input."""
        rho = cls.__new__(cls)
        rho._set(n_qubits, m)
        return rho

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
    """Outer product |psi><psi|.

    Hermitian and PSD by construction; only the trace, |psi|^2, is checked,
    because ``StateVector`` lets the norm be up to 1e-9 off.
    """
    m = np.outer(psi.amplitudes, psi.amplitudes.conj())
    tr = np.trace(m).real
    if abs(tr - 1.0) > ATOL:
        raise ValueError(f"trace is {tr}, expected 1")
    return DensityMatrix._trusted(psi.n_qubits, m)


def _check_qubits(qubits, n_qubits: int, measured=()) -> None:
    """The one rule of the qubits an operation names: gate operands, keep sets, cut
    sides, layouts. Refuse, in this order: a repeat, then per qubit a non-integer
    (``_is_int``), one outside the register, and one in ``measured``."""
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"repeated qubit operand in {qubits}")
    for q in qubits:
        if not _is_int(q):
            raise ValueError(f"qubit operand {q!r} is not an integer")
        if not 0 <= q < n_qubits:
            raise ValueError(f"qubit {q} out of range for register of {n_qubits}")
        if q in measured:
            raise ValueError(f"qubit {q} was already measured")


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the nonempty ``keep`` qubits (``_check_qubits``'s rule), in order.

    New qubit i is old qubit ``keep[i]``, so a sorted ``keep`` retains
    ascending index order and an unsorted one also permutes the qubits. A
    partial trace keeps Hermiticity, the trace and positivity, so the reduced
    state of a checked state is not checked again.
    """
    keep = list(keep)
    _check_qubits(keep, rho.n_qubits)
    if not keep:
        raise ValueError("keep set must be nonempty")
    t = rho.matrix.reshape((2,) * (2 * rho.n_qubits))
    return DensityMatrix._trusted(len(keep), _reduced_matrix(t, keep))


def _reduced_matrix(t: np.ndarray, keep: list[int]) -> np.ndarray:
    """``partial_trace``'s matrix, unvalidated, of rho held as a (2,)*2n tensor."""
    n = t.ndim // 2
    # a traced qubit's column axis shares its row axis's label, so einsum sums it
    subs = list(range(n)) + [n + q if q in keep else q for q in range(n)]
    reduced = np.einsum(t, subs, keep + [n + q for q in keep])
    return reduced.reshape(2 ** len(keep), 2 ** len(keep))


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
    nz = lam[lam > 0]
    return float(-np.sum(nz * np.log2(nz)))


def negativity(rho: DensityMatrix, part_a, part_b) -> float:
    """Sum of |negative eigenvalues| of the partial transpose over ``part_a``.

    The nonempty sides ``part_a + part_b`` pass ``_check_qubits`` and cover every
    qubit; 0 for any state that is a product across the cut.
    """
    n = rho.n_qubits
    a, b = list(part_a), list(part_b)
    _check_qubits(a + b, n)
    if not a or not b or len(a) + len(b) != n:
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


def _pairs(z: np.ndarray) -> np.ndarray:
    """The [re, im] pair of each complex entry of ``z``, along a new last axis."""
    return np.stack([z.real, z.imag], -1)


# The one rule for integers: an int or NumPy integer, never a bool. A number read
# from a file is one or a float, and where a float is meant (``_is_number``) a
# finite one, within float range. Python's json reads NaN and Infinity; RFC 8259 has neither.
def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_number(x) -> bool:
    if isinstance(x, float):
        return math.isfinite(x)
    return _is_int(x) and abs(x) <= sys.float_info.max


def _read_number(obj: dict, key: str, where: str, error) -> float:
    """``obj[key]`` as a finite float; a missing key or a non-number raises ``error``,
    the caller's."""
    if key not in obj:
        raise error(f"{where} has no {key!r}")
    value = obj[key]
    if not _is_number(value):
        problem = "is not finite" if isinstance(value, float) else "is not a number"
        raise error(f"{where} {key!r} {problem}: {value!r}")
    return float(value)


def _read_complex(pairs, what: str, error) -> np.ndarray:
    """A list of [re, im] number pairs as a complex array; anything else raises ``error``.
    Every number passes ``_is_number``, then all become one float array viewed as complex."""
    if isinstance(pairs, list) and all(
        isinstance(z, list) and len(z) == 2 and all(map(_is_number, z)) for z in pairs
    ):
        return np.array(pairs, dtype=float).reshape(-1, 2).view(complex).reshape(-1)
    raise error(f"{what} must be a list of [re, im] number pairs")


def density_from_json(data) -> DensityMatrix:
    """A checked state from row-major ``{"n_qubits": k, "entries": rows}``, each of the 2^k
    rows 2^k [re, im] number pairs; malformed structure raises ``ValueError``."""
    entries = data.get("entries") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise ValueError("density matrix must be a JSON object with an 'entries' list")
    n, dim = data.get("n_qubits"), len(entries)
    # checked against the row count before 2**n can grow without bound
    if not (_is_int(n) and 0 <= n < dim.bit_length() and dim == 2**n):
        raise ValueError(f"density matrix 'n_qubits' {n!r} does not match {dim} rows")
    if not all(isinstance(row, list) and len(row) == dim for row in entries):
        raise ValueError("density matrix 'entries' must be rows of [re, im] number pairs")
    m = _read_complex([z for row in entries for z in row], "density matrix 'entries'", ValueError)
    return DensityMatrix(n, m.reshape(dim, dim))
