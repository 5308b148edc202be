"""Span tracing of qrouter's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
loaded ``qrouter`` module that binds it, so calls that one module makes into
another (``noise.embed_gate``, ``cli.partial_trace``, ...) are caught as well
as the benchmark's own calls. ``DensityMatrix`` is traced by wrapping its
``__init__``, which every construction passes through. Nothing under ``src/``
is modified; ``uninstall`` restores every binding.

A span is ``[name, start_ns, end_ns, parent_index, op_id, extra]``. Spans are
kept in memory; ``layer_metrics`` turns the spans of one block of ops into the
per-layer metrics, resolving each extra to a count, and ``dump`` writes them
out.
"""

from __future__ import annotations

import json
import sys
import time

from qrouter import cli, gates, noise, qasm, qstate, tomography

WRAPPED = "__bench_span__"

# (span name, module, attribute, extra) -- ``extra(args, kwargs, result)``
# keeps the raw inputs a count needs; counts are worked out after the block,
# outside every timed span.
TARGETS = [
    ("qstate.partial_trace", qstate, "partial_trace", None),
    ("qstate.permute_qubits", qstate, "permute_qubits", None),
    ("qstate.negativity", qstate, "negativity", None),
    ("qstate.von_neumann_entropy", qstate, "von_neumann_entropy", None),
    ("qstate.to_density", qstate, "to_density", None),
    ("gates.apply_circuit", gates, "apply_circuit", lambda a, k, r: a[0]),
    ("gates.circuit_unitary", gates, "circuit_unitary", lambda a, k, r: a[0]),
    ("gates.embed_gate", gates, "embed_gate", None),
    ("qasm.parse", qasm, "parse", lambda a, k, r: len(a[0])),
    ("qasm.serialize", qasm, "serialize", None),
    ("qasm.transpile", qasm, "transpile", lambda a, k, r: (a[0], r)),
    ("qasm.apply_layout", qasm, "apply_layout", None),
    ("noise.simulate_noisy", noise, "simulate_noisy", lambda a, k, r: a[0]),
    ("noise.apply_channel", noise, "apply_channel", None),
    ("noise.readout_flip", noise, "readout_flip", None),
    ("tomography.collect_dataset", tomography, "collect_dataset", None),
    (
        "tomography.sample_counts",
        tomography,
        "sample_counts",
        lambda a, k, r: a[2] if len(a) > 2 else k["shots"],
    ),
    ("tomography.expectation", tomography, "expectation", lambda a, k, r: (a[0], a[1])),
    ("tomography.linear_inversion", tomography, "linear_inversion", None),
    ("tomography.project_to_physical", tomography, "project_to_physical", None),
    ("tomography.reconstruct", tomography, "reconstruct", None),
    ("tomography.fidelity", tomography, "fidelity", None),
    ("cli.run_experiment", cli, "run_experiment", None),
    ("cli.verify", cli, "verify", None),
]

QSTATE_METRICS = (
    "qstate.partial_trace",
    "qstate.permute_qubits",
    "qstate.negativity",
    "qstate.von_neumann_entropy",
    "qstate.to_density",
)


def _qrouter_modules():
    return [
        m for name, m in list(sys.modules.items()) if name == "qrouter" or name.startswith("qrouter.")
    ]


def installed() -> bool:
    """True if any qrouter binding is currently a tracing wrapper."""
    if hasattr(qstate.DensityMatrix.__init__, WRAPPED):
        return True
    return any(
        hasattr(v, WRAPPED) for m in _qrouter_modules() for v in vars(m).values()
    )


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, extra=None):
        """``fn`` recording one span per call, as a child of the open span."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        setattr(wrapper, WRAPPED, name)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        if installed():
            raise RuntimeError("tracing wrappers are already installed")
        modules = _qrouter_modules()
        for name, module, attr, extra in TARGETS:
            orig = getattr(module, attr)
            wrapper = self.wrap(name, orig, extra)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapper)
        init = qstate.DensityMatrix.__init__
        self._undo.append((qstate.DensityMatrix, "__init__", init))
        qstate.DensityMatrix.__init__ = self.wrap("qstate.DensityMatrix", init)

    def uninstall(self):
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def dump(spans: list[list], path) -> None:
    """Write spans as JSON lines: name, start_ns, end_ns, parent, op id, count."""
    with open(path, "w") as f:
        for s in spans:
            f.write(json.dumps(s) + "\n")


def _compatible(setting: str, pauli: str) -> bool:
    return all(s == p for s, p in zip(setting, pauli) if p != "I")


def layer_metrics(spans: list[list], n_ops: int) -> dict[str, float]:
    """Per-op layer metrics of one block of ``n_ops`` traced ops.

    Self time is a span's duration minus the durations of its direct children.
    Every extra is resolved here to a plain count, in place, so the span list
    can be written out afterwards.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_ns[s[3]] += s[2] - s[1]
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    n_gates = {"gates": 0, "noise": 0}
    shots = parse_bytes = gates_added = scanned = compatible = 0
    for i, s in enumerate(spans):
        name, extra = s[0], s[5]
        dur = s[2] - s[1]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + dur - child_ns[i]
        total_ns[name] = total_ns.get(name, 0) + dur
        if extra is None:
            continue
        if name in ("gates.apply_circuit", "gates.circuit_unitary", "noise.simulate_noisy"):
            count = len(extra.gate_instructions())
            n_gates[name.split(".")[0]] += count
            s[5] = count
        elif name == "qasm.parse":
            parse_bytes += extra
        elif name == "qasm.transpile":
            src, out = extra
            s[5] = len(out.instructions) - len(src.instructions)
            gates_added += s[5]
        elif name == "tomography.sample_counts":
            shots += extra
        elif name == "tomography.expectation":
            dataset, pauli = extra
            hits = sum(_compatible(setting, pauli) for setting in dataset.counts)
            scanned += len(dataset.counts)
            compatible += hits
            s[5] = hits

    def ms(*names):
        return sum(self_ns.get(n, 0) for n in names) / 1e6 / n_ops

    def per_op(name):
        return calls.get(name, 0) / n_ops

    sim_gates = n_gates["noise"]
    return {
        "qstate.DensityMatrix.calls_per_op": per_op("qstate.DensityMatrix"),
        "qstate.DensityMatrix.self_ms_per_op": ms("qstate.DensityMatrix"),
        "qstate.metrics.self_ms_per_op": ms(*QSTATE_METRICS),
        "gates.apply_circuit.self_ms_per_op": ms("gates.apply_circuit"),
        "gates.circuit_unitary.self_ms_per_op": ms("gates.circuit_unitary"),
        "gates.embed_gate.calls_per_op": per_op("gates.embed_gate"),
        "gates.embed_gate.self_ms_per_op": ms("gates.embed_gate"),
        "gates.gates_per_op": n_gates["gates"] / n_ops,
        "qasm.parse.self_ms_per_op": ms("qasm.parse"),
        "qasm.parse.bytes_per_op": parse_bytes / n_ops,
        "qasm.serialize.self_ms_per_op": ms("qasm.serialize"),
        "qasm.transpile.self_ms_per_op": ms("qasm.transpile", "qasm.apply_layout"),
        "qasm.transpile.gates_added_per_op": gates_added / n_ops,
        "noise.simulate_noisy.self_ms_per_op": ms("noise.simulate_noisy"),
        "noise.simulate_noisy.us_per_gate": (
            total_ns.get("noise.simulate_noisy", 0) / 1e3 / sim_gates if sim_gates else 0.0
        ),
        "noise.apply_channel.calls_per_op": per_op("noise.apply_channel"),
        "noise.apply_channel.self_ms_per_op": ms("noise.apply_channel"),
        "tomography.collect_dataset.self_ms_per_op": ms("tomography.collect_dataset"),
        "tomography.sample_counts.calls_per_op": per_op("tomography.sample_counts"),
        "tomography.shots_per_op": shots / n_ops,
        "tomography.sample_counts.ns_per_shot": (
            total_ns.get("tomography.sample_counts", 0) / shots if shots else 0.0
        ),
        "tomography.expectation.calls_per_op": per_op("tomography.expectation"),
        "tomography.expectation.self_ms_per_op": ms("tomography.expectation"),
        "tomography.expectation.settings_used_ratio": (
            compatible / scanned if scanned else 0.0
        ),
        "tomography.linear_inversion.self_ms_per_op": ms("tomography.linear_inversion"),
        "tomography.project_to_physical.self_ms_per_op": ms("tomography.project_to_physical"),
        "tomography.fidelity.self_ms_per_op": ms("tomography.fidelity"),
        "cli.run_experiment.self_ms_per_op": ms("cli.run_experiment"),
        "cli.verify.self_ms_per_op": ms("cli.verify"),
    }
