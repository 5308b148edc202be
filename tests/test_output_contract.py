"""The committed output contract (``tests/output_contract.py``): the matrix of
``qrouter run`` configurations writes the manifest's 92 files, each counts
file byte for byte and each report's numbers within ``TOL``."""

import json

from .output_contract import MANIFEST, TOL, differences, entries, run_matrix


def test_matrix_writes_the_committed_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    found = entries(out for *_, out, code in run_matrix() if code == 0)
    assert len(found) == 92
    manifest = json.loads(MANIFEST.read_text())
    assert [line for line, broken in differences(found, manifest) if broken] == []


def test_what_breaks_the_contract():
    report = {"sha256": "a", "fidelity": 0.9, "negativity": 0.1, "entropy_control_bits": 0.5}
    counts = {"sha256": "c"}
    manifest = {"r.json": report, "r.counts.json": counts}

    def report_lines(**changed):
        return differences({"r.json": {**report, **changed}, "r.counts.json": counts}, manifest)

    assert report_lines() == []
    assert report_lines(sha256="b", fidelity=0.9 + TOL / 2) == [
        (f"r.json: bytes differ; fidelity {TOL / 2:+.3g} (now {0.9 + TOL / 2!r})", False)
    ]
    assert report_lines(sha256="b") == [("r.json: bytes differ; no report number moved", False)]
    assert report_lines(sha256="b", negativity=0.1 + 2 * TOL)[0][1] is True
    assert differences({"r.json": report, "r.counts.json": {"sha256": "d"}}, manifest) == [
        ("r.counts.json: counts differ", True)
    ]
    assert differences({"r.json": report}, manifest) == [("r.counts.json: missing", True)]
    assert differences({**manifest, "x.json": report}, manifest) == [
        ("x.json: not in the manifest", True)
    ]
