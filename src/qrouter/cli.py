"""Experiment harness: build/load a circuit, simulate, tomograph, score, report.

Subcommands:
  run          execute one experiment, write a JSON report (and counts file)
  emit-figure  dump the real or imaginary part of a reconstructed matrix as CSV
  verify       re-check a report against the router acceptance conditions

Exit codes: 0 success, 1 invalid spec, 2 I/O or parse error (a malformed
device file, coupling map or report included), 3 unroutable circuit, and for
``verify`` 1 when any check fails. An invalid ``reconstructed`` density
matrix exits 2 in ``emit-figure`` and is a failed check (1) in ``verify``.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import sys
from pathlib import Path

import numpy as np

from . import noise as noise_mod
from . import qasm, tomography
from .gates import ROUTER_EXPERIMENTS, apply_circuit, named_router_circuit
from .qstate import (
    DensityMatrix,
    basis_state,
    density_from_json,
    density_to_json,
    negativity,
    partial_trace,
    to_density,
    von_neumann_entropy,
)

DEFAULT_SHOTS = 8192
DEFAULT_LAYOUT = (2, 0, 1)  # keeps every router CNOT edge-adjacent on ibmqx4


class SpecError(Exception):
    """Invalid experiment specification (exit code 1)."""


class ReportError(ValueError):
    """A report file that does not have the expected structure (exit code 2)."""


def _load_noise(arg: str | None):
    if arg is None or arg == "none":
        return None
    if arg == "ibmqx4":
        return noise_mod.ibmqx4_model()
    with open(arg) as f:
        return noise_mod.noise_model_from_json(f.read())


def _resolve_circuit(args):
    if bool(args.experiment) == bool(args.qasm):
        raise SpecError("exactly one of --experiment and --qasm is required")
    if args.experiment:
        if args.experiment not in ROUTER_EXPERIMENTS:
            raise SpecError(
                f"unknown experiment {args.experiment!r}; choose from "
                + ", ".join(sorted(ROUTER_EXPERIMENTS))
            )
        return args.experiment, named_router_circuit(args.experiment)
    with open(args.qasm) as f:
        circuit = qasm.parse(f.read())
    circuit.name = Path(args.qasm).stem
    return "custom", circuit


def _routed_qubit(experiment: str) -> int:
    if experiment == "router-control0":
        return 1
    if experiment == "router-control1":
        return 2
    raise SpecError("routed-qubit tomography applies only to router-control0/control1")


def run_experiment(args) -> dict:
    experiment, circuit = _resolve_circuit(args)
    model = _load_noise(args.noise)
    shots = args.shots
    seed = args.seed
    if shots < 1:
        raise SpecError("shots must be positive")
    if any(i.name == "measure" for i in circuit.instructions):
        raise SpecError("experiment circuits must not contain measure instructions")

    ideal = apply_circuit(circuit, basis_state(circuit.n_qubits, 0))
    ideal_dm = to_density(ideal)

    exec_circuit = circuit
    layout = None
    if args.transpile:
        cmap = qasm.get_coupling_map(args.transpile)
        layout = (
            tuple(int(x) for x in args.layout.split(","))
            if args.layout
            else DEFAULT_LAYOUT[: circuit.n_qubits]
        )
        if len(layout) != circuit.n_qubits:
            raise SpecError(f"layout must list {circuit.n_qubits} physical qubits")
        exec_circuit = qasm.transpile(
            qasm.apply_layout(circuit, layout, cmap.n_qubits), cmap
        )

    if model is not None:
        rho = noise_mod.simulate_noisy(exec_circuit, model)
    elif layout is not None:
        rho = to_density(
            apply_circuit(exec_circuit, basis_state(exec_circuit.n_qubits, 0))
        )
    else:
        rho = ideal_dm
    if layout is not None:
        # discard idle device qubits; logical qubit i sits on layout[i]
        rho = partial_trace(rho, layout)

    state, target = rho, ideal_dm
    if args.tomography == "routed":
        q = _routed_qubit(experiment)
        state, target = partial_trace(rho, [q]), partial_trace(ideal_dm, [q])
    reconstructed, counts_file = rho, None
    if args.tomography != "none":
        settings = (
            tomography.observables_for(state.n_qubits)
            if args.settings_per_observable
            else None
        )
        dataset = tomography.collect_dataset(state, shots, seed, settings=settings)
        reconstructed = tomography.reconstruct(dataset)
        counts_file = args.counts_out or _sibling(args.out, ".counts.json")
        with open(counts_file, "w") as f:
            json.dump(dataset.to_json(), f, indent=2, sort_keys=True)

    fid = tomography.fidelity(reconstructed, target)
    # routed tomography sees one qubit; the entanglement metrics need them all
    scored = rho if args.tomography == "routed" else reconstructed
    if scored.n_qubits >= 2:
        neg = negativity(scored, [0], list(range(1, scored.n_qubits)))
        ent = von_neumann_entropy(partial_trace(scored, [0]))
    else:
        neg = 0.0
        ent = von_neumann_entropy(scored)

    report = {
        "spec": {
            "name": experiment if args.experiment else circuit.name,
            "circuit_source": args.experiment or args.qasm,
            "noise": args.noise or "none",
            "shots": shots,
            "seed": seed,
            "tomography": args.tomography,
            "transpile": args.transpile,
            "layout": list(layout) if layout else None,
        },
        "ideal_state": [[z.real, z.imag] for z in ideal.amplitudes],
        "reconstructed": density_to_json(reconstructed),
        "fidelity": fid,
        "negativity": neg,
        "entropy_control_bits": ent,
        "seed": seed,
        "counts_file": counts_file,
    }
    if not args.no_timestamps:
        report["timestamps"] = {
            "finished": datetime.datetime.now(datetime.timezone.utc).isoformat()
        }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    return report


def _sibling(path: str, suffix: str) -> str:
    p = Path(path)
    return str(p.with_name(p.stem + suffix))


def _load_report(path: str) -> dict:
    """A report that is a JSON object with a non-null 'reconstructed' entry."""
    with open(path) as f:
        report = json.load(f)
    if not isinstance(report, dict):
        raise ReportError("report must be a JSON object")
    if report.get("reconstructed") is None:
        raise ReportError("report has no 'reconstructed'")
    return report


def _report_number(report: dict, key: str) -> float:
    if key not in report:
        raise ReportError(f"report has no {key!r}")
    try:
        return float(report[key])
    except (TypeError, ValueError, OverflowError):
        raise ReportError(f"report {key!r} is not a number: {report[key]!r}") from None


def emit_figure(args) -> None:
    report = _load_report(args.report)
    try:
        rho = density_from_json(report["reconstructed"])
    except ValueError as e:
        raise ReportError(f"report 'reconstructed': {e}") from None
    part = np.real(rho.matrix) if args.part == "real" else np.imag(rho.matrix)
    labels = [f"|{format(i, f'0{rho.n_qubits}b')}>" for i in range(rho.dim)]
    with open(args.out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([""] + labels)
        for label, row in zip(labels, part):
            writer.writerow([label] + [repr(float(x)) for x in row])


def verify(args) -> int:
    report = _load_report(args.report)
    fid = _report_number(report, "fidelity")
    neg = _report_number(report, "negativity")
    spec = report.get("spec", {})
    if not isinstance(spec, dict):
        raise ReportError("report 'spec' must be an object")
    checks: list[tuple[str, bool, str]] = []

    try:
        density_from_json(report["reconstructed"])
    except ValueError as e:
        print(f"FAIL density-matrix invariants: {e}")
        return 1
    checks.append(("density-matrix invariants", True, "Hermitian, trace 1, PSD"))

    name = spec.get("name", "custom")
    if not isinstance(name, str):
        raise ReportError(f"report spec 'name' is not a string: {name!r}")
    noisy = spec.get("noise", "none") != "none"

    checks.append(
        ("fidelity in [0, 1]", 0.0 <= fid <= 1.0, f"fidelity = {fid:.4f}")
    )
    if name in ROUTER_EXPERIMENTS:
        if noisy:
            ok = 0.90 <= fid <= 0.995
            detail = f"fidelity {fid:.4f} within noisy band [0.90, 0.995]"
        else:
            ok = fid >= 0.98
            detail = f"fidelity {fid:.4f} >= 0.98 (noiseless)"
        checks.append(("fidelity band", ok, detail))

        if name == "router-superposition":
            checks.append(
                (
                    "entanglement generated",
                    neg > 0.1,
                    f"negativity {neg:.4f} > 0.1 across control|paths",
                )
            )
        else:
            exact = not noisy and spec.get("tomography") == "none"
            bound = 1e-6 if exact else 0.02
            checks.append(
                (
                    "no spurious entanglement",
                    neg <= bound,
                    f"negativity {neg:.2e} <= {bound:g} for classical control",
                )
            )

    failures = 0
    for label, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
        failures += not ok
    return 1 if failures else 0


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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            run_experiment(args)
            return 0
        if args.command == "emit-figure":
            emit_figure(args)
            return 0
        return verify(args)
    except qasm.UnroutableCnotError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (
        OSError,
        json.JSONDecodeError,
        qasm.QasmError,
        qasm.CouplingMapError,
        noise_mod.DeviceFileError,
        ReportError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (SpecError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
