"""Closed-form reference states and reference implementations shared by the test modules."""

import numpy as np

from qrouter.gates import GATE_MATRICES, Circuit, apply_circuit, resolve_prep
from qrouter.qstate import basis_state, pauli_matrix
from qrouter.tomography import TomographyDataset, observables_for

C8 = np.cos(np.pi / 8)
S8 = np.sin(np.pi / 8)
PSI_S = np.array([C8, S8], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


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
