"""The output contract: the files of every distinct ``qrouter run`` configuration.

The matrix is each router experiment × noise none/ibmqx4 × with and without
``--transpile ibmqx4`` × tomography full and routed (each on the 3^n grid and
per observable) and none, at seed 7 with ``--no-timestamps``. That is 60
runs; the 8 routed runs of router-superposition are spec errors (``qrouter``
prints each to stderr), so it writes 52 reports and 40 counts files.
(``--tomography none --settings-per-observable`` writes its grid twin's bytes,
so the matrix leaves it out.)

    python tests/output_contract.py DIR                   # write and check the 92 files
    python tests/output_contract.py DIR --write-manifest  # write them, then record them

The command writes the files into DIR under relative names, since a report
stores its counts file's name as given, and prints one ``sha256  name`` line
per file. For each file whose bytes differ from the committed manifest
(``output_contract.json`` beside this file) it says which numbers moved and by
how much. A report's entry also records ``qrouter verify``'s verdicts on it:
the exit code and each ``PASS|FAIL <label>`` line, without the detail text,
whose rounding-level numbers may print differently under another BLAS. It
exits 1 when the contract is broken: a file missing or extra, a counts file
whose sha256 differs, a report number more than ``TOL`` from the manifest's,
or a changed verdict. ``tests/test_output_contract.py`` holds the suite to the
same rule.

The manifest also records, under the key ``ENVIRONMENT``, which is not a file,
the Python and numpy versions and the BLAS that the files were written under:
counts follow the last bit of the simulated state, which another numpy or
BLAS may round differently. When any file differs, the command prints that
record beside the running environment's.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from qrouter.cli import main as qrouter
from qrouter.gates import ROUTER_EXPERIMENTS

MANIFEST = Path(__file__).resolve().with_name("output_contract.json")
SEED = 7
NUMBERS = ("fidelity", "negativity", "entropy_control_bits")
TOL = 1e-12  # report numbers may round differently under another numpy or BLAS
ENVIRONMENT = "environment"


def environment() -> dict:
    """The Python and numpy versions, and the BLAS numpy was built with where its
    build configuration names one (``None`` otherwise)."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name")}


def configurations():
    """Yield each configuration of the matrix, in order, as
    ``(experiment, tomography, report, qrouter arguments)``."""
    tomography_modes = [("full", False), ("full", True), ("routed", False), ("routed", True),
                        ("none", False)]
    for exp, noise, transpile, (mode, literal) in itertools.product(
        sorted(ROUTER_EXPERIMENTS), ("none", "ibmqx4"), (False, True), tomography_modes
    ):
        out = "_".join((
            exp, noise, "transpiled" if transpile else "logical",
            mode + ("-per-observable" if literal else ""),
        )) + ".json"
        yield exp, mode, out, [
            "run", "--experiment", exp, "--noise", noise, "--tomography", mode,
            *(["--transpile", "ibmqx4"] if transpile else []),
            *(["--settings-per-observable"] if literal else []),
            "--no-timestamps", "--seed", str(SEED), "--out", out,
        ]


def run_matrix():
    """Run each configuration of the matrix through ``qrouter run`` in the
    current directory and yield ``(experiment, tomography, report, exit code)``."""
    for exp, mode, out, argv in configurations():
        yield exp, mode, out, qrouter(argv)


def entries(reports) -> dict[str, dict]:
    """The manifest entry of each report in ``reports`` (names in the current
    directory) and of its counts file: the sha256, and a report's numbers."""
    found = {}
    for name in reports:
        text = Path(name).read_bytes()
        report = json.loads(text)
        found[name] = {"sha256": hashlib.sha256(text).hexdigest()}
        found[name].update((key, report[key]) for key in NUMBERS)
        found[name]["verify"] = verdicts(name)
        if report["counts_file"] is not None:
            counts = Path(report["counts_file"]).read_bytes()
            found[report["counts_file"]] = {"sha256": hashlib.sha256(counts).hexdigest()}
    return found


def verdicts(report: str) -> dict:
    """``qrouter verify``'s exit code on ``report`` and the ``PASS|FAIL <label>``
    part of each line it prints."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = qrouter(["verify", "--report", report])
    lines = out.getvalue().splitlines()
    return {"exit": code, "verdicts": [line.partition(":")[0] for line in lines]}


def differences(found: dict, manifest: dict) -> list[tuple[str, bool]]:
    """A line for each file that is not byte-identical to its manifest entry,
    and for each report whose verdicts differ from its entry's, and whether
    it breaks the contract (see the module docstring)."""
    lines = []
    for name in sorted((found.keys() | manifest.keys()) - {ENVIRONMENT}):
        got, want = found.get(name), manifest.get(name)
        if got is None or want is None:
            lines.append((f"{name}: {'missing' if got is None else 'not in the manifest'}", True))
        elif got["sha256"] != want["sha256"] and "fidelity" not in want:
            lines.append((f"{name}: counts differ", True))
        elif got["sha256"] != want["sha256"]:
            moved = [
                f"{key} {got[key] - want[key]:+.3g} (now {got[key]!r})"
                for key in NUMBERS if got[key] != want[key]
            ]
            broken = any(abs(got[key] - want[key]) > TOL for key in NUMBERS)
            what = ", ".join(moved) or "no report number moved"
            lines.append((f"{name}: bytes differ; {what}", broken))
        if got is not None and want is not None and got.get("verify") != want.get("verify"):
            lines.append((f"{name}: verify verdicts differ; now {got.get('verify')}", True))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("dir", help="directory to write the files into")
    parser.add_argument("--write-manifest", action="store_true",
                        help=f"record the files in {MANIFEST.name} instead of checking them")
    args = parser.parse_args(argv)
    Path(args.dir).mkdir(parents=True, exist_ok=True)
    os.chdir(args.dir)
    found = entries(out for _, _, out, code in run_matrix() if code == 0)
    for name, entry in sorted(found.items()):
        print(f"{entry['sha256']}  {name}")
    if args.write_manifest:
        record = {**found, ENVIRONMENT: environment()}
        MANIFEST.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(found)} entries to {MANIFEST}")
        return 0
    manifest = json.loads(MANIFEST.read_text())
    lines = differences(found, manifest)
    for line, broken in lines:
        print(("BROKEN " if broken else "moved ") + line)
    if lines:
        print(f"manifest written under {manifest.get(ENVIRONMENT)}; running under {environment()}")
    same = sum(manifest.get(name, {}).get("sha256") == e["sha256"] for name, e in found.items())
    print(f"{len(found)} files, {same} sha256-identical to the manifest")
    return 1 if any(broken for _, broken in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
