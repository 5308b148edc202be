"""Gate matrices, the circuit IR, unitary simulation, and the router builders.

The gate set is fixed: H, X, S, Sdg, T, Tdg and CNOT. The controlled-swap is
expressed inside that set (CNOT-conjugated Toffoli), so every circuit built
here can run on hardware that only offers those gates.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .qstate import StateVector, _check_qubits, _is_int

_SQ2 = 1.0 / np.sqrt(2.0)

GATE_MATRICES = {
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "s": np.diag([1, 1j]).astype(complex),
    "sdg": np.diag([1, -1j]).astype(complex),
    "t": np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex),
    "tdg": np.diag([1, np.exp(-1j * np.pi / 4)]).astype(complex),
    # operand order (control, target); control is the more significant bit
    "cx": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
}

GATE_ARITY = {name: int(np.log2(m.shape[0])) for name, m in GATE_MATRICES.items()}

SINGLE_QUBIT_GATES = frozenset(g for g, k in GATE_ARITY.items() if k == 1)


class Instruction(NamedTuple):
    """One circuit element: a gate, a measurement, or a barrier."""

    name: str  # gate name, "measure", or "barrier"
    qubits: tuple[int, ...]
    clbits: tuple[int, ...] = ()


def _check_gate(n_qubits: int, gate: str, qubits: tuple, measured=()) -> None:
    """Refuse an unknown gate, then a wrong number of operands, then what
    ``_check_qubits`` refuses."""
    if gate not in GATE_MATRICES:
        raise ValueError(f"unknown gate {gate!r}")
    if len(qubits) != GATE_ARITY[gate]:
        raise ValueError(f"{gate} expects {GATE_ARITY[gate]} qubits, got {len(qubits)}")
    _check_qubits(qubits, n_qubits, measured)


@functools.lru_cache(maxsize=4096, typed=True)
def _gate(n_qubits: int, gate: str, *qubits: int) -> Instruction:
    """The checked instruction of ``gate`` on ``qubits`` in a register of
    ``n_qubits``, one object per distinct call: ``Instruction`` is immutable, so
    every circuit may hold it. The operands are separate arguments because
    ``typed=True`` keys the types of top-level arguments only, which keeps
    ``1`` and ``np.int64(1)`` apart. A failed check raises ``ValueError``,
    which the cache does not keep."""
    _check_gate(n_qubits, gate, qubits)
    return Instruction(gate, qubits)


class Circuit:
    """Ordered instruction list over a qubit/clbit register.

    Built by appending, then treated as immutable: simulators and the
    serializer never modify a circuit. Measurement is terminal; adding a gate
    on an already-measured qubit raises. ``append`` states each kind's rule
    (qubits: ``qstate._check_qubits``); ``measure`` and ``barrier`` hand it
    theirs. Each (register size, gate, operands) is checked once per process,
    by ``_gate``, and its immutable instruction is shared by every circuit.
    """

    def __init__(self, n_qubits: int, n_clbits: int = 0, name: str = ""):
        for size in (n_qubits, n_clbits):  # what ``serialize`` can write as ``qreg q[n];``
            if not _is_int(size):
                raise ValueError(f"register size {size!r} is not an integer")
        if n_qubits < 0 or n_clbits < 0:
            raise ValueError("register sizes must be nonnegative")
        self.n_qubits = n_qubits
        self.n_clbits = n_clbits
        self.name = name
        self.instructions: list[Instruction] = []
        self._measured: set[int] = set()

    def add(self, gate: str, *qubits: int) -> "Circuit":
        if self._measured:  # the ordered check names a measured qubit before a later bad one
            _check_gate(self.n_qubits, gate, qubits, self._measured)
        try:
            instr = _gate(self.n_qubits, gate, *qubits)
        except TypeError:  # an unhashable gate or operand, which the cache cannot key
            _check_gate(self.n_qubits, gate, qubits)
            raise
        self.instructions.append(instr)
        return self

    def measure(self, qubit: int, clbit: int) -> "Circuit":
        return self.append(Instruction("measure", (qubit,), (clbit,)))

    def barrier(self, *qubits: int) -> "Circuit":
        return self.append(Instruction("barrier", qubits))

    def append(self, instr: Instruction) -> "Circuit":
        """Add ``instr`` by the rule of its kind, operand counts first. A gate
        goes on to ``add``. A measurement takes one qubit not yet measured and
        one clbit index. A barrier may span measured qubits, and one that names
        no qubit spans the register. Neither a gate nor a barrier takes a clbit."""
        name, qubits, clbits = instr.name, tuple(instr.qubits), tuple(instr.clbits)
        if name == "measure":
            for kind, operands in (("qubit", qubits), ("clbit", clbits)):
                if len(operands) != 1:
                    raise ValueError(f"measure expects 1 {kind} operand, got {len(operands)}")
            _check_qubits(qubits, self.n_qubits, self._measured)
            if not _is_int(clbits[0]):
                raise ValueError(f"clbit operand {clbits[0]!r} is not an integer")
            if not 0 <= clbits[0] < self.n_clbits:
                raise ValueError(f"clbit {clbits[0]} out of range for register of {self.n_clbits}")
            self._measured.update(qubits)
        elif clbits:
            raise ValueError(f"{name} expects 0 clbit operands, got {len(clbits)}")
        elif name == "barrier":
            qubits = qubits or tuple(range(self.n_qubits))
            _check_qubits(qubits, self.n_qubits)  # a barrier may span measured qubits
        else:
            return self.add(name, *qubits)
        self.instructions.append(Instruction(name, qubits, clbits))
        return self

    def gate_instructions(self):
        return [i for i in self.instructions if i.name in GATE_MATRICES]

    def unitary_gates(self):
        """The gates in order, for a simulator: barriers are skipped, and a
        measurement or any other non-gate instruction raises ``ValueError``."""
        for instr in self.instructions:
            if instr.name in GATE_MATRICES:
                yield instr
            elif instr.name != "barrier":
                raise ValueError(f"cannot simulate {instr.name!r} as a gate")

    def __eq__(self, other):
        # structural equality; the name is metadata
        if not isinstance(other, Circuit):
            return NotImplemented
        return (
            self.n_qubits == other.n_qubits
            and self.n_clbits == other.n_clbits
            and self.instructions == other.instructions
        )

    def __repr__(self):
        return (
            f"Circuit(name={self.name!r}, n_qubits={self.n_qubits}, "
            f"n_clbits={self.n_clbits}, {len(self.instructions)} instructions)"
        )


@functools.lru_cache(maxsize=256)
def _axis_orders(ndim: int, qubits: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The permutation that puts ``qubits`` first, in order, and its inverse."""
    perm = qubits + tuple(a for a in range(ndim) if a not in qubits)
    return perm, tuple(perm.index(a) for a in range(ndim))


def _apply_tensor(tensor: np.ndarray, u: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """Contract operator ``u`` into the given axes of a (2,)*n (+ batch) tensor.

    Operator axis i acts on tensor axis ``qubits[i]``, and the result keeps the
    tensor's axis order. One transpose brings those axes to the front, one
    ``u @ t.reshape(2^k, -1)`` applies the operator and one transpose puts the
    axes back. That is the product ``np.tensordot`` forms, so results are
    bit-identical to it, without its per-call axis bookkeeping, which costs
    more than the product itself on these small tensors. The permutation pair
    is cached by (ndim, qubits): a simulator reuses a few placements for
    every gate, and working them out again on each call adds about a third
    to a call on a 5-qubit state.

    BLAS rounds a column differently at each column count (one column, when ``u``
    spans every axis, is its matrix-vector path), so a 1- or 2-qubit register and
    the same gates beside idle qubits differ in the last bit: at most 3.3e-16 in
    ``simulate_noisy`` and 3.7e-16 in ``apply_circuit`` (2000 seeded circuits).
    """
    perm, inverse = _axis_orders(tensor.ndim, qubits)
    t = tensor.transpose(perm)
    return (u @ t.reshape(u.shape[1], -1)).reshape(t.shape).transpose(inverse)


def _product(steps, n: int) -> np.ndarray:
    """The 2^n x 2^n product of ``(operator, axes)`` steps, the first applied first: each
    is contracted by ``_apply_tensor`` into the identity held as a (2,)*n + (2^n,) tensor."""
    dim = 2**n
    t = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
    for op, axes in steps:
        t = _apply_tensor(t, op, axes)
    return t.reshape(dim, dim)


def _kron_rows(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(S, 2^n, 2^n) stack of (S, n) index rows into a (m, 2, 2) ``table``: row s is
    ``np.kron`` of its entries' matrices, qubit 0 leftmost (the same products, batched)."""
    r = table[rows[:, 0]]
    for q in range(1, rows.shape[1]):
        b = table[rows[:, q]]
        d = 2 * r.shape[1]
        r = (r[:, :, None, :, None] * b[:, None, :, None, :]).reshape(-1, d, d)
    return r


def embed_gate(u: np.ndarray, qubits, n_qubits: int) -> np.ndarray:
    """Dense 2^n x 2^n lift of a k-qubit operator: the tensor kernel's reference."""
    qubits = tuple(qubits)
    _check_qubits(qubits, n_qubits)
    return _product([(u, qubits)], n_qubits)


def _fused_blocks(gates):
    """Group gates into blocks: a CNOT absorbs the 1-qubit gates pending on its
    qubits, and the gates still pending at the end form one block per qubit. A
    block is a tuple of (gate, qubits) in circuit order; it acts on the qubits
    of its last gate."""
    pending: dict[int, list] = {}
    for instr in gates:
        qubits = instr.qubits
        if len(qubits) == 1:
            pending.setdefault(qubits[0], []).append((instr.name, qubits))
        else:
            head = pending.pop(qubits[0], []) + pending.pop(qubits[1], [])
            yield (*head, (instr.name, qubits))
    for run in pending.values():
        yield tuple(run)


# each gate's lift onto a block's qubits, by (gate, its positions among them, block width)
_BLOCK_FACTORS = {(g, p, k): embed_gate(m, p, k) for g, m in GATE_MATRICES.items()
                  for p, k in [((0,), 1), ((0,), 2), ((1,), 2), ((0, 1), 2)]
                  if len(p) == GATE_ARITY[g]}


@functools.lru_cache(maxsize=1024)
def _block_unitary(block: tuple) -> np.ndarray:
    """The read-only unitary of a block of two or more gates, on its last gate's qubits: a
    product of their ``_BLOCK_FACTORS`` (at most 4 x 4), cheaper even when built once than
    applying the gates at full width."""
    qubits = block[-1][1]
    lifts = [_BLOCK_FACTORS[name, tuple(map(qubits.index, q)), len(qubits)] for name, q in block]
    u = functools.reduce(np.matmul, reversed(lifts))  # the last gate's lift leftmost
    u.flags.writeable = False
    return u


def apply_circuit(c: Circuit, psi: StateVector) -> StateVector:
    """Run the gates of ``c`` on ``psi`` one at a time, not fused, as reports hold
    the amplitudes to the last bit; measurements are rejected."""
    if c.n_qubits != psi.n_qubits:
        raise ValueError(f"circuit has {c.n_qubits} qubits, state has {psi.n_qubits}")
    t = psi.amplitudes.reshape((2,) * c.n_qubits)
    for instr in c.unitary_gates():
        t = _apply_tensor(t, GATE_MATRICES[instr.name], instr.qubits)
    return StateVector(c.n_qubits, t.reshape(-1))


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Full 2^n x 2^n unitary of a measurement-free circuit, by ``_fused_blocks`` blocks."""
    blocks = _fused_blocks(c.unitary_gates())
    return _product(((GATE_MATRICES[b[0][0]] if len(b) == 1 else _block_unitary(b), b[-1][1])
                     for b in blocks), c.n_qubits)


def _append_toffoli(c: Circuit, ctrl1: int, ctrl2: int, target: int):
    # standard 6-CNOT Toffoli network; exact (no residual global phase)
    c.add("h", target)
    c.add("cx", ctrl2, target)
    c.add("tdg", target)
    c.add("cx", ctrl1, target)
    c.add("t", target)
    c.add("cx", ctrl2, target)
    c.add("tdg", target)
    c.add("cx", ctrl1, target)
    c.add("t", ctrl2)
    c.add("t", target)
    c.add("h", target)
    c.add("cx", ctrl1, ctrl2)
    c.add("t", ctrl1)
    c.add("tdg", ctrl2)
    c.add("cx", ctrl1, ctrl2)


def append_fredkin(c: Circuit, control: int, a: int, b: int) -> Circuit:
    """Append a controlled-swap of ``a`` and ``b`` (control ``control``)."""
    _check_qubits((control, a, b), c.n_qubits)  # before any gate is added
    c.add("cx", b, a)
    _append_toffoli(c, control, a, b)
    c.add("cx", b, a)
    return c


def fredkin_circuit(control: int, a: int, b: int, n_qubits: int | None = None) -> Circuit:
    """Controlled-swap circuit over the smallest register containing the operands."""
    n = max(control, a, b) + 1 if n_qubits is None else n_qubits
    return append_fredkin(Circuit(n, name="cswap"), control, a, b)


# named preparation sequences for the control and signal qubits
PREP_SPECS = {
    "paper-control": ("h", "s", "t", "s"),
    "zero": (),
    "one": ("x",),
    "paper-signal": ("h", "t", "h", "s"),
    "plus": ("h",),
}

ROUTER_EXPERIMENTS = {
    "router-superposition": ("paper-control", "paper-signal"),
    "router-control0": ("zero", "paper-signal"),
    "router-control1": ("one", "paper-signal"),
}


def resolve_prep(spec) -> tuple[str, ...]:
    """Turn a preset name or an explicit gate list into a gate tuple."""
    if isinstance(spec, str):
        if spec not in PREP_SPECS:
            raise ValueError(f"unknown preparation {spec!r}")
        return PREP_SPECS[spec]
    gates = tuple(spec)
    for g in gates:
        if g not in SINGLE_QUBIT_GATES:
            raise ValueError(f"preparation gates must be single-qubit, got {g!r}")
    return gates


def router_circuit(control_prep, signal_prep, name: str = "router") -> Circuit:
    """Three-qubit router: preps on control/path-1, |+> on path-2, then CSWAP.

    Qubit 0 carries the control, qubit 1 the signal (path 1), qubit 2 the
    empty path initialized to the |+> null state.
    """
    c = Circuit(3, n_clbits=0, name=name)
    for g in resolve_prep(control_prep):
        c.add(g, 0)
    for g in resolve_prep(signal_prep):
        c.add(g, 1)
    c.add("h", 2)
    return append_fredkin(c, 0, 1, 2)


def named_router_circuit(name: str) -> Circuit:
    """One of the three canonical experiments (see ``ROUTER_EXPERIMENTS``)."""
    try:
        control, signal = ROUTER_EXPERIMENTS[name]
    except KeyError:
        raise ValueError(f"unknown router experiment {name!r}") from None
    return router_circuit(control, signal, name=name)

