"""The committed output contract (``tests/output_contract.py``): the matrix of
``qrouter run`` configurations writes the manifest's 92 files, each counts
file byte for byte and each report's numbers within ``TOL``, and ``qrouter
verify`` gives each report the manifest's verdicts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import qrouter
from qrouter.cli import main as qrouter_main

from . import output_contract
from .output_contract import (
    ENVIRONMENT,
    MANIFEST,
    TOL,
    configurations,
    differences,
    entries,
    environment,
)

ROUTED_ERROR = "error: routed-qubit tomography applies only to router-control0/control1\n"


def test_matrix_writes_the_committed_manifest(matrix, monkeypatch):
    where, runs = matrix
    monkeypatch.chdir(where)
    found = entries(out for *_, out, code in runs if code == 0)
    assert len(found) == 92
    manifest = json.loads(MANIFEST.read_text())
    assert [line for line, broken in differences(found, manifest) if broken] == []


def test_fresh_processes_write_the_bytes_of_warm_caches(matrix, tmp_path, monkeypatch):
    """Process-level caches change no file: two fresh processes write the 92
    files of the session's in-process run, whose caches are warm, and of that
    run in the reversed order."""
    where, runs = matrix
    src = str(Path(qrouter.__file__).parents[1])  # the children import this qrouter
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    fresh = {name: subprocess.Popen([sys.executable, MANIFEST.with_name("output_contract.py"),
                                     tmp_path / name], env=env, text=True,
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for name in ("fresh1", "fresh2")}
    (tmp_path / "reversed").mkdir()
    monkeypatch.chdir(tmp_path / "reversed")
    codes = [qrouter_main(argv) for *_, argv in reversed(list(configurations()))]
    for name, process in fresh.items():
        out, err = process.communicate()
        assert (process.returncode, err) == (0, ROUTED_ERROR * 8), (name, out)
    assert codes == [code for *_, code in reversed(runs)]
    names = sorted(p.name for p in where.iterdir())
    assert len(names) == 92
    for name in ("fresh1", "fresh2", "reversed"):
        assert sorted(p.name for p in (tmp_path / name).iterdir()) == names, name
        for file in names:
            assert (tmp_path / name / file).read_bytes() == (where / file).read_bytes(), name


def test_manifest_records_where_it_was_written():
    recorded = json.loads(MANIFEST.read_text())[ENVIRONMENT]
    assert sorted(recorded) == ["blas", "numpy", "python"]
    assert all(isinstance(value, str) and value for value in recorded.values()), recorded
    assert sorted(environment()) == sorted(recorded)


def test_a_difference_prints_both_environments(tmp_path, monkeypatch, capsys):
    manifest = json.loads(MANIFEST.read_text())
    name = "router-control1_ibmqx4_transpiled_full.counts.json"
    manifest[name] = {"sha256": "0" * 64}
    tampered = tmp_path / "output_contract.json"
    tampered.write_text(json.dumps(manifest))
    monkeypatch.setattr(output_contract, "MANIFEST", tampered)
    monkeypatch.chdir(tmp_path)
    assert output_contract.main([str(tmp_path / "files")]) == 1
    out = capsys.readouterr().out
    assert f"BROKEN {name}: counts differ" in out
    assert (f"manifest written under {manifest[ENVIRONMENT]}; running under {environment()}"
            in out)


def test_what_breaks_the_contract():
    report = {"sha256": "a", "fidelity": 0.9, "negativity": 0.1, "entropy_control_bits": 0.5}
    counts = {"sha256": "c"}
    manifest = {"r.json": report, "r.counts.json": counts}

    def report_lines(**changed):
        return differences({"r.json": {**report, **changed}, "r.counts.json": counts}, manifest)

    assert report_lines() == []
    recorded = {ENVIRONMENT: {"python": "3.11.7", "numpy": "2.4.6", "blas": "scipy-openblas"}}
    assert differences({"r.json": report, "r.counts.json": counts}, {**manifest, **recorded}) == []
    assert report_lines(sha256="b", fidelity=0.9 + TOL / 2) == [
        (f"r.json: bytes differ; fidelity {TOL / 2:+.3g} (now {0.9 + TOL / 2!r})", False)
    ]
    assert report_lines(sha256="b") == [("r.json: bytes differ; no report number moved", False)]
    assert report_lines(sha256="b", negativity=0.1 + 2 * TOL)[0][1] is True
    pinned = {**report, "verify": {"exit": 0, "verdicts": ["PASS fidelity band"]}}
    failed = {"exit": 1, "verdicts": ["FAIL fidelity band"]}
    changed = (f"r.json: verify verdicts differ; now {failed}", True)
    assert differences({"r.json": pinned}, {"r.json": pinned}) == []
    assert differences({"r.json": {**pinned, "verify": failed}}, {"r.json": pinned}) == [changed]
    assert differences({"r.json": {**pinned, "sha256": "b", "verify": failed}},
                       {"r.json": pinned}) == [
        ("r.json: bytes differ; no report number moved", False), changed
    ]
    assert differences({"r.json": report, "r.counts.json": {"sha256": "d"}}, manifest) == [
        ("r.counts.json: counts differ", True)
    ]
    assert differences({"r.json": report}, manifest) == [("r.counts.json: missing", True)]
    assert differences({**manifest, "x.json": report}, manifest) == [
        ("x.json: not in the manifest", True)
    ]
