"""Closed-form reference states and reference implementations shared by the test modules."""

import itertools

import numpy as np

from qrouter.gates import GATE_MATRICES, Circuit, _kron_rows, apply_circuit, resolve_prep
from qrouter.noise import _kraus, _physical_t2
from qrouter.qstate import _PAULI_BASIS, _PAULI_LETTERS, _pairs, basis_state
from qrouter.tomography import TomographyDataset, observables_for

C8 = np.cos(np.pi / 8)
S8 = np.sin(np.pi / 8)
PSI_S = np.array([C8, S8], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


def pauli_matrix(pauli: str) -> np.ndarray:
    """Reference Pauli string: ``np.kron`` of its letters' ``_PAULI_BASIS`` rows, qubit 0
    leftmost."""
    m = _PAULI_BASIS[_PAULI_LETTERS.index(pauli[0])]
    for letter in pauli[1:]:
        m = np.kron(m, _PAULI_BASIS[_PAULI_LETTERS.index(letter)])
    return m


def density_to_json(rho):
    """Row-major ``{"n_qubits": k, "entries": [[[re, im], ...], ...]}``, the block a report
    holds and ``density_from_json`` reads."""
    return {"n_qubits": rho.n_qubits, "entries": _pairs(rho.matrix).tolist()}


def gate_matrix(kind: str) -> np.ndarray:
    """Unitary matrix of a named gate (copy; safe to mutate)."""
    try:
        return GATE_MATRICES[kind].copy()
    except KeyError:
        raise ValueError(f"unknown gate {kind!r}") from None


def prep_state(spec):
    """Single-qubit state produced by running a preparation on |0>."""
    c = Circuit(1)
    for g in resolve_prep(spec):
        c.add(g, 0)
    return apply_circuit(c, basis_state(1, 0))


def exact_expectations(rho):
    """Noise-free <P> = Tr(P rho) for every non-identity observable."""
    return {
        p: float(np.real(np.trace(pauli_matrix(p) @ rho.matrix)))
        for p in observables_for(rho.n_qubits)
    }


def psi_f_amplitudes():
    """Analytic router output (1/sqrt2)(|0>|s>|+> - e^{i pi/4}|1>|+>|s>)."""
    a = np.kron([1, 0], np.kron(PSI_S, PLUS))
    b = np.kron([0, 1], np.kron(PLUS, PSI_S))
    return (a - np.exp(1j * np.pi / 4) * b) / np.sqrt(2)


def loop_expectation(dataset, pauli):
    """Reference estimator: a parity loop over each compatible setting's outcome
    strings, then the mean over those settings in dataset order."""
    support = [i for i, letter in enumerate(pauli) if letter != "I"]
    values = []
    for setting, counts in dataset.to_json()["settings"].items():
        if not all(setting[i] == pauli[i] for i in support):
            continue
        total = 0
        for outcome, c in counts.items():
            parity = sum(int(outcome[i]) for i in support) % 2
            total += -c if parity else c
        values.append(total / dataset.shots)
    if not values:
        raise ValueError(f"no measurement setting compatible with {pauli!r}")
    return float(np.mean(values))


def loop_estimator_tables(n, settings, paulis):
    """Reference (signs, compatible, k) of the array estimator, one entry at a time:
    the parity of each outcome on each pauli's support, and for each (setting,
    pauli) whether the setting has the pauli's letter on every qubit of it."""
    signs = [
        [(-1) ** sum(bit == "1" for bit, p in zip(format(j, f"0{n}b"), pauli) if p != "I")
         for pauli in paulis]
        for j in range(2**n)
    ]
    compatible = [
        [all(p in ("I", s) for s, p in zip(setting, pauli)) for pauli in paulis]
        for setting in settings
    ]
    return np.array(signs), np.array(compatible), np.sum(compatible, axis=0)


def counts_dataset(n_qubits, shots, settings):
    """A hand-made dataset, built from counts-file fields: ``settings`` maps
    each setting to its outcome-label counts, as a counts file does."""
    return TomographyDataset.from_json(
        {"n_qubits": n_qubits, "shots": shots, "seed": 0, "settings": settings}
    )


def multinomial_counts(probs, shots, seed, index):
    """Reference sampler: setting ``index`` of master ``seed`` is one multinomial
    draw of ``shots`` from a fresh Philox with the key ``SeedSequence(seed)``
    gives, started at counter ``[0, 0, index, 0]``."""
    n = int(np.log2(len(probs)))
    key = np.random.Philox(np.random.SeedSequence(seed)).state["state"]["key"]
    rng = np.random.Generator(np.random.Philox(key=key, counter=[0, 0, index, 0]))
    counts = rng.multinomial(shots, probs)
    return {format(i, f"0{n}b"): int(c) for i, c in enumerate(counts) if c > 0}


_ROTATIONS = {
    "X": GATE_MATRICES["h"],
    "Y": GATE_MATRICES["h"] @ GATE_MATRICES["sdg"],  # circuit order: sdg, then h
    "Z": np.eye(2, dtype=complex),
    "I": np.eye(2, dtype=complex),
}


def setting_rotation(setting):
    """Reference basis rotation of one setting: ``np.kron`` of its letters' rotations,
    qubit 0 leftmost."""
    r = _ROTATIONS[setting[0]]
    for letter in setting[1:]:
        r = np.kron(r, _ROTATIONS[letter])
    return r


def basis_probs(rho, setting):
    """Reference Born probabilities of one setting: the kron of its rotations, then
    one einsum, clipped at 0 and normalised."""
    r = setting_rotation(setting)
    probs = np.real(np.einsum("ij,jk,ik->i", r, rho.matrix, r.conj()))
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def loop_inversion(expectations, n):
    """Reference linear inversion: 2^-n (I + sum_P <P> P), one matrix add per Pauli."""
    dim = 2**n
    m = np.eye(dim, dtype=complex)  # the implicit all-I term, <I...I> = 1
    for pauli in observables_for(n):
        m = m + expectations[pauli] * pauli_matrix(pauli)
    return m / dim


def water_filling(m):
    """Reference projection onto density matrices: repeatedly zero the most
    negative eigenvalue and spread its weight equally over the remaining
    nonzero ones, then normalise the trace."""
    herm = (m + m.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(herm)
    zeroed = np.zeros(vals.shape, dtype=bool)
    while vals.min() < 0:
        i = int(np.argmin(vals))
        deficit = vals[i]
        vals[i] = 0.0
        zeroed[i] = True
        alive = ~zeroed & (vals != 0)
        if not alive.any():
            break
        vals[alive] += deficit / alive.sum()
    vals = np.clip(vals, 0.0, None)
    vals /= vals.sum()
    out = (vecs * vals) @ vecs.conj().T
    return (out + out.conj().T) / 2.0


def tensordot_apply(tensor, u, qubits):
    """Reference tensor kernel: ``np.tensordot`` of ``u``'s input axes with the
    given tensor axes, then ``np.moveaxis`` of its output axes back to them."""
    k = len(qubits)
    ut = u.reshape((2,) * (2 * k))
    out = np.tensordot(ut, tensor, axes=(list(range(k, 2 * k)), list(qubits)))
    return np.moveaxis(out, range(k), qubits)


def gate_by_gate_unitary(c):
    """Reference unitary: the circuit's gates applied one at a time, each by
    ``tensordot_apply``, to the identity held as a (2,)*n + (2^n,) tensor."""
    dim = 2**c.n_qubits
    u = np.eye(dim, dtype=complex).reshape((2,) * c.n_qubits + (dim,))
    for instr in c.unitary_gates():
        u = tensordot_apply(u, GATE_MATRICES[instr.name], instr.qubits)
    return u.reshape(dim, dim)


# The Kraus stacks of the channels that ``noise._gate_superop`` writes in closed form,
# checked by ``noise._kraus``: the oracle its superoperators are tested against.


def amplitude_damping(t_ns: float, t1_us: float) -> np.ndarray:
    """Zero-temperature relaxation over ``t_ns`` with lifetime ``t1_us``."""
    if not t_ns >= 0:  # NaN fails too
        raise ValueError("duration must be nonnegative")
    if not t1_us > 0:
        raise ValueError("T1 must be positive")
    gamma = 1.0 - np.exp(-(t_ns / 1000.0) / t1_us)
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return _kraus([k0, k1])


def phase_damping(t_ns: float, t1_us: float, t2_us: float) -> np.ndarray:
    """Pure dephasing beyond what relaxation already causes.

    Dephasing rate is 1/T2 - 1/(2*T1); off-diagonals decay by exp(-t * rate).
    An unphysical T2 > 2*T1 is clamped to 2*T1 (rate 0) with a warning.
    """
    if not t_ns >= 0:  # NaN fails too
        raise ValueError("duration must be nonnegative")
    if not (t1_us > 0 and t2_us > 0):
        raise ValueError("T1 and T2 must be positive")
    rate = 1.0 / _physical_t2(t1_us, t2_us, stacklevel=2) - 1.0 / (2.0 * t1_us)
    lam = 1.0 - np.exp(-(t_ns / 1000.0) * rate)
    k0 = np.sqrt(1 - lam) * np.eye(2, dtype=complex)
    k1 = np.sqrt(lam) * np.diag([1, 0]).astype(complex)
    k2 = np.sqrt(lam) * np.diag([0, 1]).astype(complex)
    return _kraus([k0, k1, k2])


def depolarizing(p: float, n_qubits: int) -> np.ndarray:
    """rho -> (1 - p) rho + p I/2^n on ``n_qubits`` in {1, 2}, by weighted Pauli strings."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    if n_qubits not in (1, 2):
        raise ValueError("depolarizing channel supports 1 or 2 qubits")
    d4 = 4**n_qubits
    ops = _kron_rows(_PAULI_BASIS, np.array(list(itertools.product(range(4), repeat=n_qubits))))
    ops[0] *= np.sqrt(1.0 - p + p / d4)
    ops[1:] *= np.sqrt(p / d4)
    return _kraus(ops)
