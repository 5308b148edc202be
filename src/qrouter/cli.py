"""Experiment harness: build/load a circuit, simulate, tomograph, score, report.

Subcommands:
  run          execute one experiment, write a JSON report (and counts file)
  emit-figure  dump the real or imaginary part of a reconstructed matrix as CSV
  verify       re-check a report's invariants and the paper's claims (``CLAIMS``)

Exit codes: 0 success, 1 invalid spec, 2 I/O or parse error, 3 unroutable
circuit, and for ``verify`` 1 when any check fails. ``_read_input`` reads every
input file: one that is not UTF-8 text, or JSON truncated or nested past the
decoder's depth, exits 2 with the file's path in the message. So does a
malformed device file, coupling map or report (``InputError``): a coupling map
of no qubits, and any value that should be a number and is not one (``true``,
``false``, a numeric string, or where a float is meant ``NaN``, ``Infinity`` or
an int past float range) included. An invalid ``reconstructed`` density matrix
exits 2 in ``emit-figure`` and is a failed check (1) in ``verify``. ``verify``
recomputes the fidelity (and, unless the report is of routed tomography, the
negativity and the control entropy) from ``reconstructed`` and ``ideal_state``;
a stored value that differs by more than 1e-9 is a failed check, and an
``ideal_state`` that is not a normalised state of matching size, or of no
qubits, exits 2.
``spec_from_args`` reads ``run``'s arguments, and the files they name, into a
checked ``Spec``. It rejects (exit 1) a circuit of no qubits (a QASM program
with no ``qreg``), an executed register wider than 12 qubits or than the device
model, full tomography of more than 6, routed tomography of an experiment with
no routed qubit, a counts file that is the report file, a circuit wider than
its coupling map, a ``--layout`` that is not a list of integers in ASCII digits
or that ``qstate._check_qubits`` refuses, and, with no ``--layout``, a circuit
of more qubits than ``DEFAULT_LAYOUT`` places or a map too small for the
default layout's first entries, before any state is formed.
``execute`` simulates, samples and scores a ``Spec`` with no I/O, and
``run_experiment`` writes its counts file (compact JSON on one line) and report.
The states that a run's seed does not change are kept for the next runs of the
same circuits, model, layout and routed qubit (``_seedless_states``).
A run whose write fails leaves neither file.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import noise as noise_mod
from . import qasm, tomography
from .gates import ROUTER_EXPERIMENTS, Circuit, apply_circuit, named_router_circuit
from .qstate import (
    DensityMatrix,
    InputError,
    StateVector,
    _pairs,
    _read_complex,
    _read_number,
    basis_state,
    density_from_json,
    negativity,
    partial_trace,
    to_density,
    von_neumann_entropy,
)
from .tomography import MAX_TOMOGRAPHY_QUBITS, TomographyDataset

DEFAULT_SHOTS = 8192
DEFAULT_LAYOUT = (2, 0, 1)  # keeps every router CNOT edge-adjacent on ibmqx4
RECOMPUTE_TOL = 1e-9  # stored vs recomputed report numbers in ``verify``
MAX_QUBITS = 12  # widest executed register: its density matrix is 4^12 complex = 268 MB


class SpecError(Exception):
    """Invalid experiment specification (exit code 1)."""


# the qubit that carries the signal in each classically controlled router
_ROUTED_QUBIT = {"router-control0": 1, "router-control1": 2}


class Claim(NamedTuple):
    """One printed check of a claim of the paper (see ``CLAIMS``)."""

    label: str
    experiments: frozenset[str]  # the reports' spec 'name'
    condition: str  # noisy, noiseless, exact (noiseless, --tomography none), inexact or any
    number: str  # the report number it bounds
    test: Callable[[float], bool]
    detail: str  # printed after the label, with the number as ``x`` (see ``shown``)
    sentence: str  # the words of PAPER.md that it checks

    def shown(self, x: float) -> str:
        """``detail`` of x, or of ``repr(x)`` where rounded x reads as the other verdict."""
        head, _, rest = self.detail.partition("{x:")
        spec, _, tail = rest.partition("}")
        text = format(x, spec)
        return head + (text if self.test(float(text)) == self.test(x) else repr(float(x))) + tail


_ROUTERS, _CONTROLLED = frozenset(ROUTER_EXPERIMENTS), frozenset(_ROUTED_QUBIT)
_FIDELITY = "It is found that the experimental results are obtained with good fidelity."
_ENTANGLED = "the entanglement between the control qubit and the two signal qubits (two paths)"
_PRESERVED = "the well preservation of the signal information in either of the two paths"
CLAIMS = (  # what ``verify`` checks of a router report: the rows that apply, in this order
    Claim("fidelity band", _ROUTERS, "noisy", "fidelity", lambda x: 0.90 <= x <= 0.995,
          "fidelity {x:.4f} within noisy band [0.90, 0.995]", _FIDELITY),
    Claim("fidelity band", _ROUTERS, "noiseless", "fidelity", lambda x: x >= 0.98,
          "fidelity {x:.4f} >= 0.98 (noiseless)", _FIDELITY),
    Claim("entanglement generated", frozenset({"router-superposition"}), "any", "negativity",
          lambda x: x > 0.1, "negativity {x:.4f} > 0.1 across control|paths", _ENTANGLED),
    Claim("no spurious entanglement", _CONTROLLED, "exact", "negativity", lambda x: x <= 1e-6,
          "negativity {x:.2e} <= 1e-06 for classical control", _PRESERVED),
    Claim("no spurious entanglement", _CONTROLLED, "inexact", "negativity", lambda x: x <= 0.02,
          "negativity {x:.2e} <= 0.02 for classical control", _PRESERVED),
)


class SpecBlock(NamedTuple):
    """The report's 'spec' block; ``execute`` reads its shots, seed and layout."""

    name: str
    circuit_source: str
    noise: str
    shots: int
    seed: int
    tomography: str
    transpile: str | None
    layout: tuple[int, ...] | None  # the physical qubit of each logical qubit


class Spec(NamedTuple):
    """A checked ``run``: the report's 'spec' block and all ``execute`` reads."""

    spec: SpecBlock
    circuit: Circuit  # the logical circuit
    executed: Circuit  # placed on the layout and transpiled, else ``circuit``
    noise: noise_mod.NoiseModel | None
    routed_qubit: int | None  # the qubit ``--tomography routed`` keeps, else None
    settings_per_observable: bool
    counts_file: str | None  # None: no tomography


def spec_from_args(args) -> Spec:
    """The checked ``Spec`` of parsed ``run`` arguments (see the module docstring)."""
    if bool(args.experiment) == bool(args.qasm):
        raise SpecError("exactly one of --experiment and --qasm is required")
    if args.experiment:
        if args.experiment not in ROUTER_EXPERIMENTS:
            raise SpecError(
                f"unknown experiment {args.experiment!r}; choose from "
                + ", ".join(sorted(ROUTER_EXPERIMENTS))
            )
        circuit = named_router_circuit(args.experiment)
    else:
        circuit = _read_input(args.qasm, qasm.parse)
        circuit.name = Path(args.qasm).stem
    model = noise_mod.ibmqx4_model() if args.noise == "ibmqx4" else None
    if args.noise not in (None, "none", "ibmqx4"):
        model = noise_mod.noise_model_from_json(_read_input(args.noise))
    if args.shots < 1:
        raise SpecError("shots must be positive")
    if args.seed < 0:
        raise SpecError("seed must be a non-negative integer")
    if any(i.name == "measure" for i in circuit.instructions):
        raise SpecError("experiment circuits must not contain measure instructions")
    if circuit.n_qubits < 1:
        raise SpecError("the circuit has no qubits: a QASM program needs a 'qreg'")

    if args.layout and not args.transpile:
        raise SpecError("--layout applies only together with --transpile")
    cmap = qasm.IBMQX4_COUPLING if args.transpile == "ibmqx4" else None
    if args.transpile and cmap is None:
        cmap = qasm.coupling_map_from_json(_read_input(args.transpile))
    width = circuit.n_qubits if cmap is None else cmap.n_qubits
    if width > MAX_QUBITS:
        raise SpecError(f"executed register of {width} qubits; at most {MAX_QUBITS} are simulated")
    if model is not None and len(model.qubits) < width:
        raise SpecError(f"model calibrates {len(model.qubits)} qubits, circuit needs {width}")
    if args.tomography == "full" and circuit.n_qubits > MAX_TOMOGRAPHY_QUBITS:
        raise SpecError(
            f"tomography of {circuit.n_qubits} qubits; at most {MAX_TOMOGRAPHY_QUBITS} are run"
        )
    routed_qubit = _ROUTED_QUBIT.get(args.experiment) if args.tomography == "routed" else None
    if args.tomography == "routed" and routed_qubit is None:
        raise SpecError("routed-qubit tomography applies only to router-control0/control1")
    counts_file = None
    if args.tomography != "none":
        counts_file = args.counts_out or str(Path(args.out).with_suffix(".counts.json"))
        if Path(counts_file).resolve() == Path(args.out).resolve():
            raise SpecError("the counts file and the report must be different files")
    layout, executed = None, circuit
    if cmap is not None:
        layout = _layout(args.layout, circuit.n_qubits, cmap.n_qubits)
        executed = qasm.transpile(qasm.apply_layout(circuit, layout, cmap.n_qubits), cmap)
    spec = SpecBlock(
        name=circuit.name, circuit_source=args.experiment or args.qasm,
        noise=args.noise or "none", shots=args.shots, seed=args.seed,
        tomography=args.tomography, transpile=args.transpile, layout=layout,
    )
    return Spec(
        spec, circuit, executed, model, routed_qubit, args.settings_per_observable, counts_file
    )


def execute(spec: Spec) -> tuple[StateVector, TomographyDataset | None, DensityMatrix, dict]:
    """``spec`` simulated, sampled and scored, no I/O: (ideal, dataset, scored state, scores)."""
    block, _, _, _, q, literal, counts_file = spec
    ideal, target, rho, state = _seedless_states(spec)
    dataset, reconstructed = None, rho
    if counts_file is not None:
        settings = tomography.observables_for(state.n_qubits) if literal else None
        dataset = tomography.collect_dataset(state, block.shots, block.seed, settings=settings)
        reconstructed = tomography.reconstruct(dataset)
    whole = reconstructed if q is None else rho
    return ideal, dataset, reconstructed, _scores(reconstructed, target, whole)


def _states(spec: Spec) -> tuple[StateVector, DensityMatrix, DensityMatrix, DensityMatrix]:
    """The states of ``spec`` that its seed does not change: the ideal state, the
    scored target (its density matrix, or that matrix's routed qubit), the
    executed state and the tomographed state (the executed one, or its routed
    qubit)."""
    _, circuit, executed, model, q, _, _ = spec
    layout = spec.spec.layout
    ideal = apply_circuit(circuit, basis_state(circuit.n_qubits, 0))
    rho = target = to_density(ideal)
    # with a layout, idle device qubits are discarded; logical qubit i sits on layout[i]
    if model is not None:
        rho = noise_mod.simulate_noisy(executed, model, keep=layout)
    elif layout is not None:
        rho = partial_trace(
            to_density(apply_circuit(executed, basis_state(executed.n_qubits, 0))), layout
        )
    if q is not None:
        return ideal, partial_trace(target, [q]), rho, partial_trace(rho, [q])
    return ideal, target, rho, rho


# at MAX_TOMOGRAPHY_QUBITS an entry holds 64 KB per matrix and at most 2.1 MB
# of Born distributions (4095 literal settings)
_STATES_KEPT = 8
_kept_states: dict[tuple, tuple] = {}  # least recently used first


def _seedless_states(spec: Spec) -> tuple[StateVector, DensityMatrix, DensityMatrix, DensityMatrix]:
    """``_states(spec)``, kept for the ``_STATES_KEPT`` keys used last: both
    circuits, the noise model, the layout and the routed qubit. A kept key
    returns the same read-only states, so a run with another seed also reuses
    the Born distributions and the target's square root that they keep. States
    wider than MAX_TOMOGRAPHY_QUBITS (up to 268 MB) are formed on every call."""
    _, circuit, executed, model, q, _, _ = spec
    if circuit.n_qubits > MAX_TOMOGRAPHY_QUBITS:
        return _states(spec)
    key = (circuit.n_qubits, tuple(circuit.instructions), executed.n_qubits,
           tuple(executed.instructions), model, spec.spec.layout, q)  # fmt: skip
    states = _kept_states.pop(key, None) or _states(spec)
    _kept_states[key] = states
    if len(_kept_states) > _STATES_KEPT:
        del _kept_states[next(iter(_kept_states))]
    return states


def run_experiment(args) -> None:
    spec = spec_from_args(args)
    ideal, dataset, reconstructed, scores = execute(spec)
    # ``_report_text`` adds 'ideal_state' and the 'reconstructed' 'entries' from their pair arrays
    report = {
        "spec": spec.spec._asdict(),
        "reconstructed": {"n_qubits": reconstructed.n_qubits},
        **scores,
        "seed": spec.spec.seed,
        "counts_file": spec.counts_file,
    }
    if not args.no_timestamps:
        finished = datetime.datetime.now(datetime.timezone.utc).isoformat()
        report["timestamps"] = {"finished": finished}
    text = _report_text(report, _pairs(ideal.amplitudes), _pairs(reconstructed.matrix))
    files = [(args.out, text)]
    if dataset is not None:  # first, so that a report never names a missing counts file
        files.insert(0, (spec.counts_file, json.dumps(dataset.to_json(), sort_keys=True)))
    _write_all(files)


def _write_all(files: list[tuple[str, str]]) -> None:
    """Write each ``(path, text)`` in order; when a write fails, remove the
    files it already opened and raise, so that a run leaves all or none."""
    opened = []
    try:
        for path, text in files:
            with open(path, "w") as f:
                opened.append(path)
                f.write(text)
    except OSError:
        for path in opened:
            Path(path).unlink(missing_ok=True)
        raise


def _report_text(report: dict, ideal: np.ndarray, entries: np.ndarray) -> str:
    """``json.dumps(report, indent=2, sort_keys=True) + "\n"`` of a report whose
    'ideal_state' and 'reconstructed' 'entries' list the [re, im] pair arrays
    ``ideal`` and ``entries``.

    Those two number blocks are most of the text, and ``indent`` selects
    json's pure-Python encoder, which writes them one float at a time. So
    ``json.dumps`` writes the report with a null in each block's place, and
    each null becomes the block's ``_number_layout`` filled with the
    ``float.__repr__`` of each number, which is what json writes for a finite
    float. json escapes every quote inside a string, so a quoted key followed
    by ``: `` is only ever that key.
    """
    skeleton = {
        **report,
        "ideal_state": None,
        "reconstructed": {**report["reconstructed"], "entries": None},
    }
    text = json.dumps(skeleton, indent=2, sort_keys=True)
    for key, depth, numbers in (("ideal_state", 1, ideal), ("entries", 2, entries)):
        slot = f'\n{"  " * depth}"{key}": '
        floats = tuple(map(float.__repr__, numbers.ravel().tolist()))
        block = _number_layout(numbers.shape, depth) % floats
        text = text.replace(slot + "null", slot + block, 1)
    return text + "\n"


@functools.lru_cache(maxsize=8)
def _number_layout(shape: tuple[int, ...], depth: int) -> str:
    """The text ``json.dumps(x, indent=2)`` writes for a nested list ``x`` of
    numbers of ``shape`` that is the value of a key ``depth`` levels deep,
    with a ``%s`` for each number; json lays out a list of zeros to make it.
    A one-command process misses on each of its two shapes; a process that
    writes many reports hits, as ``device-run`` after its first op and
    ``tests/output_contract.py`` after its first run."""
    text = json.dumps(np.zeros(shape, dtype=int).tolist(), indent=2)
    return text.replace("0", "%s").replace("\n", "\n" + "  " * depth)


def _layout(arg: str | None, n: int, device: int) -> tuple[int, ...]:
    """The physical qubit of each of ``n`` logical qubits on a ``device``-qubit map:
    ``--layout``'s integers, or ``DEFAULT_LAYOUT``'s first ``n``."""
    if n > device:
        raise SpecError(f"circuit has {n} qubits but the coupling map only {device}")
    if not arg:
        if n > len(DEFAULT_LAYOUT):
            raise SpecError(
                f"the default layout places only {len(DEFAULT_LAYOUT)} qubits; "
                f"give --layout for a {n}-qubit circuit"
            )
        layout = DEFAULT_LAYOUT[:n]
        if any(q >= device for q in layout):
            raise SpecError(
                f"the default layout {','.join(map(str, layout))} does not fit a "
                f"{device}-qubit coupling map; give --layout"
            )
        return layout
    entries = [x.strip() for x in arg.split(",")]
    try:  # ASCII digits only, as a QASM index is
        if all(x.isascii() and x.isdigit() for x in entries):
            return tuple(map(int, entries))
    except ValueError:  # past the interpreter's integer-string digit limit
        pass
    raise SpecError(f"--layout must be a comma-separated list of integers: {arg!r}")


def _scores(rho: DensityMatrix, target: DensityMatrix, whole: DensityMatrix | None) -> dict:
    """A report's numbers: the fidelity of ``rho`` to ``target``, then, unless
    ``whole`` is None, the negativity and entropy (bits) of the whole state
    ``whole`` across control qubit 0 | the rest."""
    scores = {"fidelity": tomography.fidelity(rho, target)}
    if whole is not None and whole.n_qubits < 2:
        scores.update(negativity=0.0, entropy_control_bits=von_neumann_entropy(whole))
    elif whole is not None:
        scores["negativity"] = negativity(whole, [0], list(range(1, whole.n_qubits)))
        scores["entropy_control_bits"] = von_neumann_entropy(partial_trace(whole, [0]))
    return scores


def _read_input(path: str, decode: Callable = json.loads):
    """``decode`` of the UTF-8 text of the file at ``path``; text that is not UTF-8, or
    JSON that is malformed or too deep to decode, raises ``InputError`` naming ``path``."""
    try:
        with open(path, encoding="utf-8") as f:
            return decode(f.read())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise InputError(f"{path}: {e}") from None


def _load_report(path: str) -> dict:
    """A report that is a JSON object with a non-null 'reconstructed' entry."""
    report = _read_input(path)
    if not isinstance(report, dict):
        raise InputError("report must be a JSON object")
    if report.get("reconstructed") is None:
        raise InputError("report has no 'reconstructed'")
    return report


def _report_ideal(report: dict) -> DensityMatrix:
    """The report's 'ideal_state' amplitude pairs as a density matrix."""
    amps = _read_complex(report.get("ideal_state"), "report 'ideal_state'")
    if not amps.size or amps.size & (amps.size - 1):
        raise InputError(f"report 'ideal_state' holds {amps.size} amplitudes, not a power of 2")
    if amps.size == 1:
        raise InputError("report 'ideal_state' holds 1 amplitude: a state needs at least one qubit")
    try:
        return to_density(StateVector(amps.size.bit_length() - 1, amps))
    except ValueError as e:
        raise InputError(f"report 'ideal_state': {e}") from None


def emit_figure(args) -> None:
    report = _load_report(args.report)
    try:
        rho = density_from_json(report["reconstructed"])
    except ValueError as e:
        raise InputError(f"report 'reconstructed': {e}") from None
    part = np.real(rho.matrix) if args.part == "real" else np.imag(rho.matrix)
    labels = [f"|{format(i, f'0{rho.n_qubits}b')}>" for i in range(rho.dim)]
    with open(args.out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([""] + labels)
        for label, row in zip(labels, part):
            writer.writerow([label] + [repr(float(x)) for x in row])


def verify(args) -> int:
    report = _load_report(args.report)
    keys = ("fidelity", "negativity", "entropy_control_bits")
    stored = {key: _read_number(report, key, "report") for key in keys}
    fid = stored["fidelity"]
    spec = report.get("spec", {})
    if not isinstance(spec, dict):
        raise InputError("report 'spec' must be an object")
    fields = {"name": "custom", "noise": "none", "tomography": ""}
    for key, default in fields.items():
        value = fields[key] = spec.get(key, default)
        if not isinstance(value, str):
            raise InputError(f"report spec {key!r} is not a string: {value!r}")
    name = fields["name"]
    ideal = _report_ideal(report)
    checks: list[tuple[str, bool, str]] = []

    try:
        rho = density_from_json(report["reconstructed"])
    except ValueError as e:
        print(f"FAIL density-matrix invariants: {e}")
        return 1
    checks.append(("density-matrix invariants", True, "Hermitian, trace 1, PSD"))

    target, whole = ideal, rho
    if fields["tomography"] == "routed":
        q = _ROUTED_QUBIT.get(name)
        if q is None or q >= ideal.n_qubits:
            raise InputError(f"routed report of {name!r} has no routed qubit")
        # a routed report does not store the executed state, so only its fidelity is recomputed
        target, whole = partial_trace(ideal, [q]), None
    if target.dim != rho.dim:
        raise InputError(
            f"report 'ideal_state' gives {target.n_qubits} scored qubits, "
            f"'reconstructed' has {rho.n_qubits}"
        )
    for key, value in _scores(rho, target, whole).items():
        checks.append(
            (
                f"{key} recomputed",
                abs(stored[key] - value) <= RECOMPUTE_TOL,
                f"stored {stored[key]:.12g}, recomputed {value:.12g}",
            )
        )
    noisy, exact = fields["noise"] != "none", fields["noise"] == fields["tomography"] == "none"
    holds = dict(noisy=noisy, noiseless=not noisy, exact=exact, inexact=not exact, any=True)
    checks.append(("fidelity in [0, 1]", 0.0 <= fid <= 1.0, f"fidelity = {fid:.4f}"))
    checks += [(c.label, c.test(stored[c.number]), c.shown(stored[c.number]))
               for c in CLAIMS if name in c.experiments and holds[c.condition]]

    for label, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    return 0 if all(ok for _, ok, _ in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrouter", description="Controlled-swap quantum router workbench"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one router experiment")
    run.add_argument("--experiment", help="|".join(sorted(ROUTER_EXPERIMENTS)))
    run.add_argument("--qasm", help="path to a .qasm circuit instead of a builder")
    run.add_argument("--noise", default="none", help="none | ibmqx4 | device JSON path")
    run.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--tomography", default="full", choices=["full", "routed", "none"]
    )
    run.add_argument("--transpile", help="ibmqx4 | coupling-map JSON path")
    run.add_argument("--layout", help="comma-separated physical qubit per logical qubit")
    run.add_argument(
        "--settings-per-observable",
        action="store_true",
        help="run one measurement circuit per observable instead of the 3^n grid",
    )
    run.add_argument("--counts-out", help="counts file path (default: next to report)")
    run.add_argument("--no-timestamps", action="store_true")
    run.add_argument("--out", required=True, help="report JSON path")

    fig = sub.add_parser("emit-figure", help="dump a reconstructed matrix as CSV")
    fig.add_argument("--report", required=True)
    fig.add_argument("--part", required=True, choices=["real", "imag"])
    fig.add_argument("--out", required=True)

    ver = sub.add_parser("verify", help="re-check a report's acceptance conditions")
    ver.add_argument("--report", required=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()`` once per process; ``parse_args`` keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "verify":
            return verify(args)
        (run_experiment if args.command == "run" else emit_figure)(args)
        return 0
    except qasm.UnroutableCnotError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (OSError, qasm.QasmError, InputError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (SpecError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
