"""Closed-form reference states and reference implementations shared by the test modules."""

import re

import numpy as np

from qrouter.gates import GATE_ARITY, GATE_MATRICES, Circuit, apply_circuit, resolve_prep
from qrouter.qasm import (
    DuplicateRegisterError,
    IndexOutOfRangeError,
    MissingHeaderError,
    QasmSyntaxError,
    UnknownGateError,
)
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


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>//[^\n]*)
      | (?P<num>[0-9]+(\.[0-9]+)?)
      | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<str>"[^"\n]*")
      | (?P<arrow>->)
      | (?P<sym>[\[\];,])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _position(src: str, off: int) -> tuple[int, int]:
    """1-based (line, col) of ``off``; end of input is column 1 of the last line."""
    line = src.count("\n", 0, off) + 1
    return line, (off - src.rfind("\n", 0, off) if off < len(src) else 1)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """``(kind, text, offset)`` tokens, closed by an ``end`` token at ``len(src)``."""
    tokens = []
    for m in _TOKEN_RE.finditer(src):
        kind = m.lastgroup
        if kind == "bad":
            raise QasmSyntaxError(f"unexpected character {m.group()!r}", *_position(src, m.start()))
        if kind != "ws" and kind != "comment":
            tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "end of input", len(src)))
    return tokens


def reference_parse(src: str) -> Circuit:
    """Reference QASM parser: one ``(kind, text, offset)`` tuple per token, then
    one ``take`` call per token; raises positioned QasmError on failure."""
    tokens = _tokenize(src)
    if tokens[0][:2] != ("id", "OPENQASM"):
        raise MissingHeaderError(
            "program must start with 'OPENQASM 2.0;'", *_position(src, tokens[0][2])
        )
    i = 1

    def take(what: str, kind: str | None = None) -> tuple[str, int]:
        """Next token's text and offset; it must be of ``kind``, else have the text ``what``."""
        nonlocal i
        k, text, off = tokens[i]
        if (k != kind) if kind else (text != what):
            raise QasmSyntaxError(f"expected {what!r}, got {text!r}", *_position(src, off))
        i += 1
        return text, off

    def bracketed(what: str) -> tuple[int, int]:
        """``[n]`` with an integer literal n: its value and offset."""
        take("[")
        text, off = take(what, "num")
        if "." in text:
            raise QasmSyntaxError(f"{what} must be an integer", *_position(src, off))
        take("]")
        try:
            return int(text), off
        except ValueError:  # past the interpreter's integer-string digit limit
            raise QasmSyntaxError(f"{what} has too many digits", *_position(src, off)) from None

    regs: dict[str, tuple[str, int]] = {}  # "qreg"/"creg" -> (name, size)

    def operand(kw: str) -> int:
        role = "quantum" if kw == "qreg" else "classical"
        name, off = take(f"{role} register operand", "id")
        if kw not in regs:
            raise QasmSyntaxError(f"no {role} register declared", *_position(src, off))
        reg, size = regs[kw]
        if name != reg:
            raise QasmSyntaxError(f"unknown register {name!r}", *_position(src, off))
        index, off = bracketed("index")
        if index >= size:
            raise IndexOutOfRangeError(
                f"index {index} out of range for {reg}[{size}]", *_position(src, off)
            )
        return index

    ver, off = take("version number", "num")
    if ver != "2.0":
        raise QasmSyntaxError(f"unsupported OPENQASM version {ver}", *_position(src, off))
    take(";")
    circuit = Circuit(0)
    while tokens[i][0] != "end":
        kind, kw, off = tokens[i]
        i += 1
        if kind != "id":
            raise QasmSyntaxError(f"expected a statement, got {kw!r}", *_position(src, off))
        if kw == "OPENQASM":
            raise QasmSyntaxError("duplicate OPENQASM header", *_position(src, off))
        if kw == "include":
            take("include filename", "str")
            take(";")
            continue
        if kw in ("qreg", "creg"):
            name, name_off = take("register name", "id")
            size, size_off = bracketed("register size")
            take(";")
            if size < 1:
                raise QasmSyntaxError("register size must be positive", *_position(src, size_off))
            if kw in regs:
                raise DuplicateRegisterError(
                    f"only one {kw} is supported", *_position(src, name_off)
                )
            regs[kw] = (name, size)
            setattr(circuit, "n_qubits" if kw == "qreg" else "n_clbits", size)
            continue
        if kw in GATE_MATRICES:
            qubits = [operand("qreg")]
            for _ in range(GATE_ARITY[kw] - 1):
                take(",")
                qubits.append(operand("qreg"))
            take(";")
            if len(set(qubits)) != len(qubits):
                raise IndexOutOfRangeError(f"repeated operand q[{qubits[0]}]", *_position(src, off))
            append, args = circuit.add, (kw, *qubits)
        elif kw == "measure":
            q = operand("qreg")
            take("->")
            append, args = circuit.measure, (q, operand("creg"))
            take(";")
        elif kw == "barrier":
            args = []
            if tokens[i][0] == "id":
                args.append(operand("qreg"))
                while tokens[i][1] == ",":
                    i += 1
                    args.append(operand("qreg"))
            take(";")
            append = circuit.barrier
        else:
            raise UnknownGateError(f"unknown gate or statement {kw!r}", *_position(src, off))
        try:
            append(*args)
        except ValueError as e:  # a qubit already measured, or a repeated barrier operand
            raise QasmSyntaxError(str(e), *_position(src, off)) from None
    return circuit
