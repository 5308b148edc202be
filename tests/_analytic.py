"""Closed-form reference states shared by the test modules."""

import numpy as np

from qrouter.gates import GATE_MATRICES

C8 = np.cos(np.pi / 8)
S8 = np.sin(np.pi / 8)
PSI_S = np.array([C8, S8], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


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
    for setting, counts in dataset.counts.items():
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


def searchsorted_counts(probs, shots, seed):
    """Reference sampler: each unsorted draw located in the cumulative edges."""
    n = int(np.log2(len(probs)))
    edges = np.cumsum(probs)
    edges[-1] = 1.0
    draws = np.random.default_rng(seed).random(shots)
    counts = np.bincount(np.searchsorted(edges, draws, side="right"), minlength=len(probs))
    return {format(i, f"0{n}b"): int(c) for i, c in enumerate(counts) if c > 0}


_ROTATIONS = {
    "X": GATE_MATRICES["h"],
    "Y": GATE_MATRICES["h"] @ GATE_MATRICES["sdg"],  # circuit order: sdg, then h
    "Z": np.eye(2, dtype=complex),
    "I": np.eye(2, dtype=complex),
}


def basis_probs(rho, setting):
    """Reference Born probabilities of one setting: the kron of its rotations, then
    one einsum, clipped at 0 and normalised."""
    r = _ROTATIONS[setting[0]]
    for letter in setting[1:]:
        b = _ROTATIONS[letter]
        r = (r[:, None, :, None] * b[None, :, None, :]).reshape(2 * len(r), 2 * len(r))
    probs = np.real(np.einsum("ij,jk,ik->i", r, rho.matrix, r.conj()))
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()
