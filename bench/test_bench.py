"""Self-test of the benchmark: python3 -m pytest bench/test_bench.py -q"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from qrouter import cli, noise, qstate, tomography  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_exact_counts_repeat(name):
    runs = [
        last_json(bench("--workload", name, "--seed", "5", "--seconds", "1", "--trace", "1"))
        for _ in range(2)
    ]
    for run in runs:
        assert run["correct"]
        assert sorted(run["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    counts = [{k: run["metrics"][k]["value"] for k in EXACT} for run in runs]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_untraced_run_reports_every_end_to_end_metric():
    run = last_json(bench("--workload", "circuit-check", "--seed", "5", "--seconds", "1"))
    assert set(run) == {"correct", "attempted", "failed", "metrics"}
    assert run["correct"] and run["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        assert run["metrics"][m["name"]]["unit"] == m["unit"]
        assert run["metrics"][m["name"]]["value"] > 0


def test_seed_changes_inputs(tmp_path):
    a, b = workloads.SeedSweep(1), workloads.SeedSweep(2)
    assert a.inputs(0)[3] != b.inputs(0)[3]
    assert workloads.SeedSweep(1).inputs(7)[3] == a.inputs(7)[3]
    a, b = workloads.CircuitCheck(1), workloads.CircuitCheck(2)
    assert a.corpus != b.corpus
    assert workloads.CircuitCheck(1).corpus == a.corpus
    runs = [workloads.DeviceRun(s, str(tmp_path / f"w{s}")) for s in (1, 2)]
    try:
        assert runs[0].argv(0) != runs[1].argv(0)
    finally:
        for r in reversed(runs):
            r.close()


def test_seed_sweep_check_rejects_corruption():
    wl = workloads.SeedSweep(1)
    out = wl.op(3)  # a noisy target
    assert wl.check(out) == "ok"
    assert wl.check({**out, "fidelity": 0.5}) == "wrong"
    assert wl.check({**out, "fidelity": 0.999}) == "wrong"
    ideal = wl.op(0)
    assert wl.check({**ideal, "fidelity": 0.97}) == "wrong"


def test_circuit_check_rejects_corruption():
    wl = workloads.CircuitCheck(1)
    out = wl.op(wl.cycle - 1)  # a router circuit under the layout
    assert wl.check(out) == "ok"
    other = wl.op(0)
    assert wl.check({**out, "legal_round_trip": other["legal_round_trip"]}) == "wrong"
    u_out = out["u_out"].copy()
    u_out[:, [0, 1]] = u_out[:, [1, 0]]
    assert wl.check({**out, "u_out": u_out}) == "wrong"


def test_device_run_check_rejects_corrupted_report(tmp_path):
    wl = workloads.DeviceRun(1, str(tmp_path / "work"))
    try:
        out = wl.op(0)
        assert out["rc_run"] == 0
        report = json.loads(Path(wl.REPORT).read_text())
        report["fidelity"] = 0.5
        Path(wl.REPORT).write_text(json.dumps(report))
        with contextlib.redirect_stdout(io.StringIO()):
            out["rc_verify"] = cli.main(["verify", "--report", wl.REPORT])
        assert out["rc_verify"] == 1
        assert wl.check(out) == "wrong"
        out = wl.op(0)
        assert wl.check({**out, "rc_run": 2}) == "wrong"
    finally:
        wl.close()


def test_tracer_catches_rebound_names_and_uninstalls():
    assert not tracing.installed()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.installed()
        for fn in (noise.embed_gate, cli.partial_trace, tomography.readout_flip):
            assert hasattr(fn, tracing.WRAPPED)
        qstate.to_density(qstate.basis_state(1, 0))
    finally:
        tracer.uninstall()
    assert not tracing.installed()
    names = [s[0] for s in tracer.take()]
    assert names == ["qstate.to_density", "qstate.DensityMatrix"]


def test_self_time_subtracts_children():
    spans = [
        ["tomography.reconstruct", 0, 100_000_000, -1, 0, None],
        ["tomography.expectation", 10_000_000, 40_000_000, 0, 0, None],
        ["tomography.linear_inversion", 50_000_000, 60_000_000, 0, 0, None],
    ]
    m = tracing.layer_metrics(spans, n_ops=1)
    assert m["tomography.expectation.self_ms_per_op"] == 30.0
    assert m["tomography.linear_inversion.self_ms_per_op"] == 10.0
    assert m["tomography.expectation.calls_per_op"] == 1


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "seed-sweep", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
