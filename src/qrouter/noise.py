"""Density-matrix noise simulation with device-calibrated channel parameters.

Noise insertion order per gate is fixed: ideal unitary, depolarizing error on
the touched qubits, then amplitude and phase damping for the gate duration on
each touched qubit using that qubit's T1/T2. At the error magnitudes modeled
here the ordering is below any test tolerance, but it is pinned so runs are
reproducible.

Each noisy gate is one superoperator on row-major vec(rho), the product in
the pinned order of closed forms (Nielsen & Chuang 8.3): the unitary U (x) U*,
depolarizing (1 - p) I + (p/d) |vec I><vec I|, and each qubit's damping. The
Kraus stacks of those channels are the tests' oracle (``tests/_analytic.py``);
``apply_channel`` still takes a channel as a checked (k, d, d) Kraus stack
(``_kraus``). The simulator applies gates in
``gates._fused_blocks``: each CNOT absorbs the 1-qubit gates pending on its
two qubits, and the 1-qubit gates left at the end form one block per qubit. A
block is one 4^k x 4^k superoperator (k = 1 or 2), the ``gates._product`` of
its gates' superoperators, as is a gate's damping of its k qubits. Each call
builds each distinct (gate, qubits) superoperator once and composes the longer
blocks from those. Nothing is kept between calls,
neither channels nor superoperators: ``qrouter run`` keeps the simulated state
itself (``cli._seedless_states``), so a repeated run does not simulate again,
and the state keeps its Born distributions and square root.
Only the qubits that some gate touches, or that the caller keeps, are
simulated: an untouched qubit stays |0>, so it is never formed. A block acts
on rho, held as a (2,)*2r tensor over those r qubits, with one call of the
kernel ``gates`` uses for state vectors (on the row and column axes of the
block's qubits); touched qubits that are not kept are traced out at the end,
and the result is validated as a ``DensityMatrix`` once per simulation, not
after every step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .gates import GATE_MATRICES, Circuit, _apply_tensor, _fused_blocks, _product
from .qstate import DensityMatrix, InputError, _check_qubits, _read_number, _reduced_matrix


def _physical_t2(t1_us: float, t2_us: float, stacklevel: int) -> float:
    """``t2_us``, or 2*T1 with a warning (at the caller's ``stacklevel``) when it
    exceeds that bound, which no qubit can (Nielsen & Chuang 8.3)."""
    if t2_us <= 2 * t1_us:
        return t2_us
    message = f"T2 = {t2_us} exceeds 2*T1 = {2 * t1_us}; clamping dephasing rate to 0"
    warnings.warn(message, stacklevel=stacklevel + 1)
    return 2 * t1_us


@dataclass(frozen=True)
class QubitParams:
    """Calibration row for one physical qubit (times in microseconds). ``t2_us`` is
    the T2 the model uses: a T2 > 2*T1 is clamped to 2*T1, warning from the line making it."""

    t1_us: float
    t2_us: float

    def __post_init__(self):
        if not (self.t1_us > 0 and self.t2_us > 0):  # NaN fails too
            raise ValueError("T1 and T2 must be positive")
        # the dataclass __init__ stands between this method and the line that makes the row
        object.__setattr__(self, "t2_us", _physical_t2(self.t1_us, self.t2_us, stacklevel=3))


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


def noise_model_from_json(data) -> NoiseModel:
    """A decoded device file; unspecified fields fall back to the preset defaults."""
    if not isinstance(data, dict):
        raise InputError("device file must be a JSON object")
    rows = data.get("qubits")
    if not isinstance(rows, list):
        raise InputError("device file needs a 'qubits' list")
    qubits = []
    for i, row in enumerate(rows):
        where = f"device file qubits[{i}]"
        if not isinstance(row, dict):
            raise InputError(f"{where} must be an object")
        t1, t2 = (_read_number(row, key, where) for key in ("t1_us", "t2_us"))
        qubits.append(QubitParams(t1, t2))
    kwargs = {
        key: _read_number(data, key, "device file")
        for key in ("p1", "p2", "p_readout", "dur_1q_ns", "dur_2q_ns")
        if key in data
    }
    return NoiseModel(qubits=tuple(qubits), **kwargs)


def _kraus(operators) -> np.ndarray:
    """Kraus operators of a trace-preserving map rho -> sum_i K_i rho K_i^dagger,
    checked and stacked as a complex (k, d, d) array."""
    ops = np.asarray(operators, dtype=complex)
    if not len(ops):
        raise ValueError("channel needs at least one Kraus operator")
    if ops.ndim != 3 or not ops.shape[1] == ops.shape[2] > 0:
        raise ValueError(f"Kraus operators must be a (k, d, d) stack of matrices, not {ops.shape}")
    total = sum(k.conj().T @ k for k in ops)
    if not np.max(np.abs(total - np.eye(ops.shape[1]))) <= 1e-9:  # NaN fails too
        raise ValueError("Kraus operators do not satisfy sum K^dag K = I")
    return ops


def apply_channel(rho: DensityMatrix, ops, qubits) -> DensityMatrix:
    """Apply the channel of Kraus operators ``ops`` on the listed qubits of a larger register."""
    ops = _kraus(ops)
    qubits = tuple(qubits)
    _check_qubits(qubits, rho.n_qubits)
    dim = ops.shape[1]
    if dim != 2 ** len(qubits):
        raise ValueError(f"channel acts on {dim} dimensions but got {len(qubits)} qubits")
    t = rho.matrix.reshape((2,) * (2 * rho.n_qubits))
    t = _apply_superop(t, _superop(ops), qubits)
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


def _superop(k: np.ndarray) -> np.ndarray:
    """Matrix of rho -> sum_K K rho K^dagger on row-major vec(rho), for a (k, d, d)
    Kraus stack: the sum of K (x) K*."""
    d = k.shape[-1]
    terms = k[:, :, None, :, None] * k.conj()[:, None, :, None, :]
    return terms.sum(axis=0).reshape(d * d, d * d)


def _sides(qubits: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The row axes, then the column axes, of ``qubits`` of n-qubit rho held as (2,)*2n."""
    return qubits + tuple(n + q for q in qubits)


def _apply_superop(t: np.ndarray, sop: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """Contract ``sop`` into the row and column axes of ``qubits`` of rho held as (2,)*2n."""
    return _apply_tensor(t, sop, _sides(qubits, t.ndim // 2))


def _gate_superop(name: str, qubits: tuple[int, ...], model: NoiseModel) -> np.ndarray:
    """One noisy gate in closed form, in the pinned order: the unitary U (x) U*,
    depolarizing (1 - p) I + (p/d) |vec I><vec I|, then each qubit's amplitude and
    phase damping (Nielsen & Chuang 8.3). Indices run over (row qubits, column
    qubits) of ``qubits``."""
    k, d = len(qubits), 2 ** len(qubits)
    t_us = (model.dur_2q_ns if k == 2 else model.dur_1q_ns) / 1000.0
    p = model.p2 if k == 2 else model.p1
    vec_i = np.eye(d).reshape(-1)
    depol = (1.0 - p) * np.eye(d * d) + (p / d) * np.outer(vec_i, vec_i)
    damps = []  # damping on different qubits commutes
    for i, q in enumerate(qubits):
        t1, t2 = model.qubits[q].t1_us, model.qubits[q].t2_us
        gamma = 1.0 - np.exp(-t_us / t1)
        lam = 1.0 - np.exp(-t_us * (1.0 / t2 - 1.0 / (2.0 * t1)))
        c = np.sqrt(1.0 - gamma) * (1.0 - lam)
        damp = np.array([[1, 0, 0, gamma], [0, c, 0, 0], [0, 0, c, 0], [0, 0, 0, 1 - gamma]])
        damps.append((damp, _sides((i,), k)))
    u = GATE_MATRICES[name]
    return _product(damps, 2 * k) @ depol @ np.kron(u, u.conj())


def simulate_noisy(c: Circuit, model: NoiseModel, keep=None) -> DensityMatrix:
    """Density-matrix run of ``c`` from |0...0> under ``model``, reduced to ``keep``.

    As in ``partial_trace``, ``keep`` is checked and new qubit i is circuit qubit
    ``keep[i]``; the default keeps every qubit in order. Only the qubits that a
    gate touches or ``keep`` names are simulated: an untouched qubit gets no gate
    and no noise, so it stays |0> and is never formed. The model must calibrate
    at least as many qubits as the circuit has. Barriers are ignored;
    measurement belongs to the tomography layer.
    """
    n = c.n_qubits
    if len(model.qubits) < n:
        raise ValueError(
            f"model calibrates {len(model.qubits)} qubits, circuit needs {n}"
        )
    keep = list(range(n)) if keep is None else list(keep)
    _check_qubits(keep, n)
    if not keep:
        raise ValueError("keep set must be nonempty")
    blocks = list(_fused_blocks(c.unitary_gates()))
    register = sorted({q for block in blocks for q in block[-1][1]}.union(keep))
    pos = {q: i for i, q in enumerate(register)}
    r = len(register)
    rho = np.zeros((2,) * (2 * r), dtype=complex)
    rho[(0,) * (2 * r)] = 1.0

    gate_superops = {}
    for block in blocks:  # a block's superoperator acts on its last gate's qubits
        for gate in block:
            if gate not in gate_superops:
                gate_superops[gate] = _gate_superop(*gate, model)
        qubits = block[-1][1]
        k = len(qubits)
        sop = gate_superops[block[0]] if len(block) == 1 else _product(
            [(gate_superops[g], _sides(tuple(map(qubits.index, g[1])), k)) for g in block], 2 * k)
        rho = _apply_superop(rho, sop, tuple(pos[q] for q in qubits))
    # summed in the order partial_trace sums a validated (C-ordered) matrix
    rho = np.ascontiguousarray(rho)
    return DensityMatrix(len(keep), _reduced_matrix(rho, [pos[q] for q in keep]))
