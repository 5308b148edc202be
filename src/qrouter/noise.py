"""Density-matrix noise simulation with device-calibrated channel parameters.

Noise insertion order per gate is fixed: ideal unitary, depolarizing error on
the touched qubits, then amplitude and phase damping for the gate duration on
each touched qubit using that qubit's T1/T2. At the error magnitudes modeled
here the ordering is below any test tolerance, but it is pinned so runs are
reproducible.

The simulator folds that sequence into one 4^k x 4^k superoperator per
distinct (gate, qubits) of the circuit, built once per simulation: the
product, in the pinned order, of K (x) K* summed over each stage's Kraus
operators (Nielsen & Chuang section 8.2). It acts on rho, held as a (2,)*2n
tensor, with one call of the kernel ``gates`` uses for state vectors (on the
row and column axes of the gate's qubits); the result is validated as a
``DensityMatrix`` once per simulation, not after every step.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .gates import GATE_MATRICES, Circuit, _apply_tensor
from .qstate import DensityMatrix, pauli_matrix


@dataclass(frozen=True)
class QubitParams:
    """Calibration row for one physical qubit (times in microseconds)."""

    t1_us: float
    t2_us: float

    def __post_init__(self):
        if self.t1_us <= 0 or self.t2_us <= 0:
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
    """Per-gate depolarizing + per-qubit damping + readout flip parameters."""

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
        if self.dur_1q_ns < 0 or self.dur_2q_ns < 0:
            raise ValueError("gate durations must be nonnegative")


def ibmqx4_model(**overrides) -> NoiseModel:
    """The built-in ibmqx4 preset (calibration table + error-order defaults)."""
    return NoiseModel(qubits=IBMQX4_QUBITS, **overrides)


class DeviceFileError(ValueError):
    """A device file that does not have the expected structure."""


def _number(obj: dict, key: str, where: str) -> float:
    if key not in obj:
        raise DeviceFileError(f"{where} has no {key!r}")
    try:
        return float(obj[key])
    except (TypeError, ValueError, OverflowError):
        raise DeviceFileError(f"{where}: {key!r} is not a number: {obj[key]!r}") from None


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
        qubits.append(QubitParams(_number(row, "t1_us", where), _number(row, "t2_us", where)))
    kwargs = {
        key: _number(data, key, "device file")
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
        if np.max(np.abs(total - np.eye(dim))) > 1e-9:
            raise ValueError("Kraus operators do not satisfy sum K^dag K = I")
        self.operators = ops

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


def amplitude_damping(t_ns: float, t1_us: float) -> KrausChannel:
    """Zero-temperature relaxation over ``t_ns`` with lifetime ``t1_us``."""
    if t_ns < 0:
        raise ValueError("duration must be nonnegative")
    if t1_us <= 0:
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
    if t_ns < 0:
        raise ValueError("duration must be nonnegative")
    if t1_us <= 0 or t2_us <= 0:
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


def _sandwich(t: np.ndarray, ops, qubits: tuple[int, ...]) -> np.ndarray:
    """Sum of K rho K^dagger over ``ops`` in order, rho held as a (2,)*2n tensor."""
    cols = tuple(t.ndim // 2 + q for q in qubits)
    out = 0
    for k in ops:
        out = out + _apply_tensor(_apply_tensor(t, k, qubits), k.conj(), cols)
    return out


def apply_channel(rho: DensityMatrix, ch: KrausChannel, qubits) -> DensityMatrix:
    """Apply a channel on the listed qubits of a larger register."""
    qubits = tuple(qubits)
    if ch.dim != 2 ** len(qubits):
        raise ValueError(
            f"channel acts on {ch.dim} dimensions but got {len(qubits)} qubits"
        )
    t = _sandwich(rho.matrix.reshape((2,) * (2 * rho.n_qubits)), ch.operators, qubits)
    return DensityMatrix(rho.n_qubits, t.reshape(rho.dim, rho.dim))


def readout_flip(probs, p_readout: float):
    """Push an outcome distribution through independent per-qubit bit flips."""
    if not 0.0 <= p_readout <= 1.0:
        raise ValueError(f"probability {p_readout} outside [0, 1]")
    probs = np.asarray(probs, dtype=float).reshape(-1)
    n = int(np.log2(probs.shape[0]))
    if 2**n != probs.shape[0]:
        raise ValueError("distribution length must be a power of 2")
    if np.any(probs < -1e-12) or abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("input is not a probability distribution")
    if p_readout == 0.0:
        return probs.copy()
    confusion = np.array([[1 - p_readout, p_readout], [p_readout, 1 - p_readout]])
    t = probs.reshape((2,) * n)
    for axis in range(n):
        t = _apply_tensor(t, confusion, (axis,))
    return t.reshape(-1)


def _superop(ops) -> np.ndarray:
    """Matrix of rho -> sum_K K rho K^dagger on row-major vec(rho): the sum of K (x) K*."""
    k = np.asarray(ops)
    d = k.shape[-1]
    terms = k[:, :, None, :, None] * k.conj()[:, None, :, None, :]
    return terms.sum(axis=0).reshape(d * d, d * d)


def _damping_superop(params: QubitParams, dur: float) -> np.ndarray:
    """Amplitude then phase damping of one qubit over ``dur`` ns (4x4)."""
    ad = amplitude_damping(dur, params.t1_us)
    pd = phase_damping(dur, params.t1_us, params.t2_us)
    return _superop(pd.operators) @ _superop(ad.operators)


def _gate_superop(name: str, qubits: tuple[int, ...], model: NoiseModel, depol) -> np.ndarray:
    """One noisy gate in the pinned order: unitary, depolarizing, then each qubit's
    damping. Indices run over (row qubits, column qubits) of ``qubits``."""
    k = len(qubits)
    dur = model.dur_2q_ns if k == 2 else model.dur_1q_ns
    damp = [_damping_superop(model.qubits[q], dur) for q in qubits]
    if k == 2:
        # damping on different qubits commutes; (r0 c0)x(r1 c1) -> (r0 r1 c0 c1)
        pair = [m.reshape(2, 2, 2, 2) for m in damp]
        damp = [np.einsum("acxz,bdyw->abcdxyzw", *pair).reshape(16, 16)]
    return damp[0] @ depol[k] @ _superop((GATE_MATRICES[name],))


def simulate_noisy(c: Circuit, model: NoiseModel) -> DensityMatrix:
    """Density-matrix run of ``c`` from |0...0> under ``model``.

    The model must calibrate at least as many qubits as the circuit uses.
    Barriers are ignored; measurement belongs to the tomography layer.
    """
    n = c.n_qubits
    if len(model.qubits) < n:
        raise ValueError(
            f"model calibrates {len(model.qubits)} qubits, circuit needs {n}"
        )
    rho = np.zeros((2,) * (2 * n), dtype=complex)
    rho[(0,) * (2 * n)] = 1.0

    depol = {
        1: _superop(depolarizing(model.p1, 1).operators),
        2: _superop(depolarizing(model.p2, 2).operators),
    }
    superops: dict[tuple[str, tuple[int, ...]], np.ndarray] = {}
    for instr in c.instructions:
        if instr.name == "barrier":
            continue
        if instr.name == "measure":
            raise ValueError("simulate_noisy does not execute measurements")
        if instr.name not in GATE_MATRICES:
            raise ValueError(f"unsupported gate {instr.name!r}")
        key = (instr.name, instr.qubits)
        if key not in superops:
            superops[key] = _gate_superop(instr.name, instr.qubits, model, depol)
        axes = instr.qubits + tuple(n + q for q in instr.qubits)
        rho = _apply_tensor(rho, superops[key], axes)
    return DensityMatrix(n, rho.reshape(2**n, 2**n))
