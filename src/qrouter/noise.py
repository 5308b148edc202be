"""Density-matrix noise simulation with device-calibrated channel parameters.

Noise insertion order per gate is fixed: ideal unitary, depolarizing error on
the touched qubits, then amplitude and phase damping for the gate duration on
each touched qubit using that qubit's T1/T2. At the error magnitudes modeled
here the ordering is below any test tolerance, but it is pinned so runs are
reproducible.

The simulator folds that sequence into one superoperator per gate, the
product, in the pinned order, of K (x) K* summed over each stage's Kraus
operators (Nielsen & Chuang 8.2), and applies gates in ``gates._fused_blocks``:
each CNOT absorbs the 1-qubit gates pending on its two qubits, and the 1-qubit
gates left at the end form one block per qubit. A block is one 4^k x 4^k
superoperator (k = 1 or 2), the product of its gates' superoperators. Blocks
depend only on the model, so each is built when first used and kept in a
bounded per-model cache under its gate sequence: a one-gate block from the
gate's channels, a longer one from its gates' one-gate entries, so each gate
is built once. The T2 > 2*T1 clamping warnings raised while building a gate
are raised again on every simulation that uses a block containing it.
Only the qubits that some gate touches, or that the caller keeps, are
simulated: an untouched qubit stays |0>, so it is never formed. A block acts
on rho, held as a (2,)*2r tensor over those r qubits, with one call of the
kernel ``gates`` uses for state vectors (on the row and column axes of the
block's qubits); touched qubits that are not kept are traced out at the end,
and the result is validated as a ``DensityMatrix`` once per simulation, not
after every step.
"""

from __future__ import annotations

import functools
import itertools
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .gates import GATE_MATRICES, Circuit, _apply_tensor, _fused_blocks
from .qstate import DensityMatrix, _check_qubit_subset, _read_number, _reduced_matrix, pauli_matrix


@dataclass(frozen=True)
class QubitParams:
    """Calibration row for one physical qubit (times in microseconds)."""

    t1_us: float
    t2_us: float

    def __post_init__(self):
        if not (self.t1_us > 0 and self.t2_us > 0):  # NaN fails too
            raise ValueError("T1 and T2 must be positive")


# ibmqx4 calibration table for q[0]..q[4]: T1, T2
IBMQX4_QUBITS = (
    QubitParams(35.2, 38.1),
    QubitParams(57.5, 40.5),
    QubitParams(36.6, 54.8),
    QubitParams(43.0, 42.1),
    QubitParams(49.5, 19.2),
)


@dataclass(frozen=True)
class NoiseModel:
    """Per-gate depolarizing + per-qubit damping + readout flip parameters.

    ``qrouter run`` does not yet pass ``p_readout`` to the sampler: only
    ``simulate_noisy``'s gate and damping noise reaches its counts.
    """

    qubits: tuple[QubitParams, ...]
    p1: float = 1e-3
    p2: float = 1e-2
    p_readout: float = 0.02
    dur_1q_ns: float = 100.0
    dur_2q_ns: float = 400.0

    def __post_init__(self):
        for p in (self.p1, self.p2, self.p_readout):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p} outside [0, 1]")
        if not (self.dur_1q_ns >= 0 and self.dur_2q_ns >= 0):  # NaN fails too
            raise ValueError("gate durations must be nonnegative")


def ibmqx4_model(**overrides) -> NoiseModel:
    """The built-in ibmqx4 preset (calibration table + error-order defaults)."""
    return NoiseModel(qubits=IBMQX4_QUBITS, **overrides)


class DeviceFileError(ValueError):
    """A device file that does not have the expected structure."""


def noise_model_from_json(data) -> NoiseModel:
    """Load a device file; unspecified fields fall back to the preset defaults."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise DeviceFileError("device file must be a JSON object")
    rows = data.get("qubits")
    if not isinstance(rows, list):
        raise DeviceFileError("device file needs a 'qubits' list")
    qubits = []
    for i, row in enumerate(rows):
        where = f"device file qubits[{i}]"
        if not isinstance(row, dict):
            raise DeviceFileError(f"{where} must be an object")
        t1, t2 = (_read_number(row, key, where, DeviceFileError) for key in ("t1_us", "t2_us"))
        qubits.append(QubitParams(t1, t2))
    kwargs = {
        key: _read_number(data, key, "device file", DeviceFileError)
        for key in ("p1", "p2", "p_readout", "dur_1q_ns", "dur_2q_ns")
        if key in data
    }
    return NoiseModel(qubits=tuple(qubits), **kwargs)


class KrausChannel:
    """Trace-preserving operator-sum map: rho -> sum_i K_i rho K_i^dagger."""

    __slots__ = ("operators",)

    def __init__(self, operators):
        ops = [np.asarray(k, dtype=complex) for k in operators]
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        dim = ops[0].shape[0]
        total = sum(k.conj().T @ k for k in ops)
        if not np.max(np.abs(total - np.eye(dim))) <= 1e-9:  # NaN fails too
            raise ValueError("Kraus operators do not satisfy sum K^dag K = I")
        self.operators = ops

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


def amplitude_damping(t_ns: float, t1_us: float) -> KrausChannel:
    """Zero-temperature relaxation over ``t_ns`` with lifetime ``t1_us``."""
    if not t_ns >= 0:  # NaN fails too
        raise ValueError("duration must be nonnegative")
    if not t1_us > 0:
        raise ValueError("T1 must be positive")
    gamma = 1.0 - np.exp(-(t_ns / 1000.0) / t1_us)
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return KrausChannel([k0, k1])


def phase_damping(t_ns: float, t1_us: float, t2_us: float) -> KrausChannel:
    """Pure dephasing beyond what relaxation already causes.

    Dephasing rate is 1/T2 - 1/(2*T1); off-diagonals decay by exp(-t * rate).
    Unphysical T2 > 2*T1 rows clamp the rate at zero with a warning.
    """
    if not t_ns >= 0:  # NaN fails too
        raise ValueError("duration must be nonnegative")
    if not (t1_us > 0 and t2_us > 0):
        raise ValueError("T1 and T2 must be positive")
    rate = 1.0 / t2_us - 1.0 / (2.0 * t1_us)
    if rate < 0:
        warnings.warn(
            f"T2 = {t2_us} exceeds 2*T1 = {2 * t1_us}; clamping dephasing rate to 0",
            stacklevel=2,
        )
        rate = 0.0
    lam = 1.0 - np.exp(-(t_ns / 1000.0) * rate)
    k0 = np.sqrt(1 - lam) * np.eye(2, dtype=complex)
    k1 = np.sqrt(lam) * np.diag([1, 0]).astype(complex)
    k2 = np.sqrt(lam) * np.diag([0, 1]).astype(complex)
    return KrausChannel([k0, k1, k2])


def depolarizing(p: float, n_qubits: int) -> KrausChannel:
    """rho -> (1 - p) rho + p I/2^n on ``n_qubits`` in {1, 2}."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    if n_qubits not in (1, 2):
        raise ValueError("depolarizing channel supports 1 or 2 qubits")
    d4 = 4**n_qubits
    ops = []
    for letters in itertools.product("IXYZ", repeat=n_qubits):
        m = pauli_matrix("".join(letters))
        if all(l == "I" for l in letters):
            ops.append(np.sqrt(1.0 - p + p / d4) * m)
        else:
            ops.append(np.sqrt(p / d4) * m)
    return KrausChannel(ops)


def apply_channel(rho: DensityMatrix, ch: KrausChannel, qubits) -> DensityMatrix:
    """Apply a channel on the listed qubits of a larger register."""
    qubits = tuple(qubits)
    if ch.dim != 2 ** len(qubits):
        raise ValueError(
            f"channel acts on {ch.dim} dimensions but got {len(qubits)} qubits"
        )
    t = rho.matrix.reshape((2,) * (2 * rho.n_qubits))
    t = _apply_superop(t, _superop(ch.operators), qubits)
    return DensityMatrix(rho.n_qubits, t.reshape(rho.dim, rho.dim))


def readout_flip(probs, p_readout: float):
    """Push outcome distributions through independent per-qubit bit flips.

    ``probs`` is one distribution of length 2^n, or a stack of them along the
    last axis; the confusion matrix acts on each qubit of that axis and the
    result has the input's shape.
    """
    if not 0.0 <= p_readout <= 1.0:
        raise ValueError(f"probability {p_readout} outside [0, 1]")
    probs = np.array(probs, dtype=float, ndmin=1)
    size = probs.shape[-1]
    if size == 0 or size & (size - 1):
        raise ValueError("distribution length must be a positive power of 2")
    # negated, so that a NaN, which fails every comparison, fails the check
    if not (np.all(probs >= -1e-12) and np.all(np.abs(probs.sum(axis=-1) - 1.0) <= 1e-9)):
        raise ValueError("input is not a probability distribution")
    if p_readout == 0.0:
        return probs
    confusion = np.array([[1 - p_readout, p_readout], [p_readout, 1 - p_readout]])
    lead, n = probs.ndim - 1, size.bit_length() - 1
    t = probs.reshape(probs.shape[:-1] + (2,) * n)
    for axis in range(lead, lead + n):
        t = _apply_tensor(t, confusion, (axis,))
    return t.reshape(probs.shape)


def _superop(ops) -> np.ndarray:
    """Matrix of rho -> sum_K K rho K^dagger on row-major vec(rho): the sum of K (x) K*."""
    k = np.asarray(ops)
    d = k.shape[-1]
    terms = k[:, :, None, :, None] * k.conj()[:, None, :, None, :]
    return terms.sum(axis=0).reshape(d * d, d * d)


def _apply_superop(t: np.ndarray, sop: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """Contract ``sop`` into the row and column axes of ``qubits`` of rho held as (2,)*2n."""
    n = t.ndim // 2
    return _apply_tensor(t, sop, qubits + tuple(n + q for q in qubits))


def _damping_superop(params: QubitParams, dur: float) -> np.ndarray:
    """Amplitude then phase damping of one qubit over ``dur`` ns (4x4)."""
    ad = amplitude_damping(dur, params.t1_us)
    pd = phase_damping(dur, params.t1_us, params.t2_us)
    return _superop(pd.operators) @ _superop(ad.operators)


def _gate_superop(name: str, qubits: tuple[int, ...], model: NoiseModel) -> np.ndarray:
    """One noisy gate in the pinned order: unitary, depolarizing, then each qubit's
    damping. Indices run over (row qubits, column qubits) of ``qubits``."""
    k = len(qubits)
    dur = model.dur_2q_ns if k == 2 else model.dur_1q_ns
    damp = [_damping_superop(model.qubits[q], dur) for q in qubits]
    if k == 2:
        # damping on different qubits commutes; (r0 c0)x(r1 c1) -> (r0 r1 c0 c1)
        pair = [m.reshape(2, 2, 2, 2) for m in damp]
        damp = [np.einsum("acxz,bdyw->abcdxyzw", *pair).reshape(16, 16)]
    depol = _superop(depolarizing(model.p2 if k == 2 else model.p1, k).operators)
    return damp[0] @ depol @ _superop((GATE_MATRICES[name],))


def _block_superop(block: tuple, gate_superops) -> np.ndarray:
    """The product, in order, of a block's gate superoperators, on the qubits of
    its last gate. Indices run over (row qubits, column qubits)."""
    qubits = block[-1][1]
    k, d = len(qubits), 4 ** len(qubits)
    t = np.eye(d, dtype=complex).reshape((2,) * (2 * k) + (d,))
    for (_, gate_qubits), sop in zip(block, gate_superops):
        local = tuple(qubits.index(q) for q in gate_qubits)
        t = _apply_tensor(t, sop, local + tuple(k + i for i in local))
    return t.reshape(d, d)


def _noisy_block(model: NoiseModel, block: tuple):
    """A block's superoperator (read-only) with the clamping warnings its gates
    raise. One gate is built from its channels; a longer block is composed from
    its gates' one-gate entries of the same cache, so each gate is built once."""
    if len(block) == 1:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sop = _gate_superop(*block[0], model)
        notes = tuple(w.message for w in caught)
    else:
        entries = [_model_superops(model)((gate,)) for gate in block]
        sop = _block_superop(block, [e[0] for e in entries])
        notes = tuple(note for e in entries for note in e[1])
    sop.flags.writeable = False
    return sop, notes


_BLOCKS_PER_MODEL = 128  # the transpiled routers use 23 entries (9 blocks); one is at most 4 KB


@functools.lru_cache(maxsize=16)
def _model_superops(model: NoiseModel):
    """``_noisy_block`` of one model, built as circuits need each block (and its
    gates) and kept for the ``_BLOCKS_PER_MODEL`` entries used last."""
    return functools.lru_cache(maxsize=_BLOCKS_PER_MODEL)(functools.partial(_noisy_block, model))


def simulate_noisy(c: Circuit, model: NoiseModel, keep=None) -> DensityMatrix:
    """Density-matrix run of ``c`` from |0...0> under ``model``, reduced to ``keep``.

    As in ``partial_trace``, new qubit i is circuit qubit ``keep[i]``; the
    default keeps every qubit in order. Only the qubits that a gate touches or
    ``keep`` names are simulated: an untouched qubit gets no gate and no noise,
    so it stays |0> and is never formed. The model must calibrate at least as
    many qubits as the circuit has. Barriers are ignored; measurement belongs
    to the tomography layer.
    """
    n = c.n_qubits
    if len(model.qubits) < n:
        raise ValueError(
            f"model calibrates {len(model.qubits)} qubits, circuit needs {n}"
        )
    keep = list(range(n)) if keep is None else list(keep)
    _check_qubit_subset(keep, n, "keep set")
    blocks = list(_fused_blocks(c.unitary_gates()))
    register = sorted({q for block in blocks for q in block[-1][1]}.union(keep))
    pos = {q: i for i, q in enumerate(register)}
    r = len(register)
    rho = np.zeros((2,) * (2 * r), dtype=complex)
    rho[(0,) * (2 * r)] = 1.0

    superops = _model_superops(model)
    clamped = {}
    for block in blocks:
        sop, notes = superops(block)
        for note in notes:
            clamped[str(note)] = note
        rho = _apply_superop(rho, sop, tuple(pos[q] for q in block[-1][1]))
    for note in clamped.values():
        warnings.warn(note, stacklevel=2)
    # summed in the order partial_trace sums a validated (C-ordered) matrix
    rho = np.ascontiguousarray(rho)
    return DensityMatrix(len(keep), _reduced_matrix(rho, [pos[q] for q in keep]))
