import copy
import functools
import json

import numpy as np
import pytest

from qrouter import cli
from qrouter.cli import main
from qrouter.gates import apply_circuit, named_router_circuit
from qrouter.qasm import serialize
from qrouter.qstate import StateVector, basis_state, density_from_json, equal_up_to_global_phase

from ._analytic import PLUS, PSI_S


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    with open(path) as f:
        return json.load(f)


@pytest.fixture
def report_path(tmp_path):
    return str(tmp_path / "report.json")


FUZZ_VALUES = (
    None, True, False, "", "router-control0", "none", [], [1, 2], [[0, 1]], {},
    {"n_qubits": 1}, 0, 1, -1, 3, 0.5, -2.5, 1e308, -1e308, 10**6, -(10**6),
)


def mutate(doc, rng):
    """Copy of ``doc`` with the value at one random path replaced by a fuzz value."""
    doc = copy.deepcopy(doc)
    value = copy.deepcopy(FUZZ_VALUES[int(rng.integers(len(FUZZ_VALUES)))])
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and rng.random() < 0.75:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, keys[int(rng.integers(len(keys)))]
        node = parent[key]
    if parent is None:
        return value
    parent[key] = value
    return doc


@pytest.fixture
def one_parser(monkeypatch):
    """Build the argument parser once: the fuzz tests target the loaders, not argparse."""
    monkeypatch.setattr(cli, "build_parser", functools.lru_cache(cli.build_parser))


def fuzzed(doc, rng, count):
    """``count`` seeded variants of ``doc``, each with one to three values replaced."""
    for _ in range(count):
        variant = doc
        for _ in range(int(rng.integers(1, 4))):
            variant = mutate(variant, rng)
        yield variant


class TestRun:
    def test_noiseless_superposition(self, report_path):
        code = run_cli(
            "run", "--experiment", "router-superposition", "--seed", "1",
            "--no-timestamps", "--out", report_path,
        )
        assert code == 0
        report = read_json(report_path)
        assert report["fidelity"] >= 0.98
        assert report["negativity"] > 0.1
        assert report["spec"]["shots"] == 8192

    def test_routed_tomography_control0(self, report_path):
        code = run_cli(
            "run", "--experiment", "router-control0", "--tomography", "routed",
            "--seed", "2", "--no-timestamps", "--out", report_path,
        )
        assert code == 0
        report = read_json(report_path)
        assert report["reconstructed"]["n_qubits"] == 1
        assert report["fidelity"] >= 0.99

    def test_control1_ideal_state_matches_caption(self, report_path):
        code = run_cli(
            "run", "--experiment", "router-control1", "--noise", "none",
            "--tomography", "none", "--no-timestamps", "--out", report_path,
        )
        assert code == 0
        report = read_json(report_path)
        amps = np.array([complex(re, im) for re, im in report["ideal_state"]])
        expected = StateVector(3, np.kron([0, 1], np.kron(PLUS, PSI_S)))
        assert equal_up_to_global_phase(StateVector(3, amps), expected, 1e-10)

    def test_deterministic_reports(self, tmp_path):
        args = [
            "run", "--experiment", "router-control0", "--noise", "ibmqx4",
            "--seed", "9", "--no-timestamps",
        ]
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert run_cli(*args, "--out", p1) == 0
        assert run_cli(*args, "--out", p2) == 0
        assert open(p1).read().replace("a.counts", "b.counts") == open(p2).read()

    def test_counts_file_schema(self, tmp_path):
        out = str(tmp_path / "r.json")
        assert run_cli(
            "run", "--experiment", "router-control0", "--shots", "128",
            "--seed", "3", "--no-timestamps", "--out", out,
        ) == 0
        counts = read_json(read_json(out)["counts_file"])
        assert counts["shots"] == 128 and len(counts["settings"]) == 27
        for setting_counts in counts["settings"].values():
            assert sum(setting_counts.values()) == 128

    def test_qasm_input(self, tmp_path, report_path):
        qasm_file = tmp_path / "router.qasm"
        qasm_file.write_text(serialize(named_router_circuit("router-superposition")))
        code = run_cli(
            "run", "--qasm", str(qasm_file), "--shots", "1024", "--seed", "5",
            "--no-timestamps", "--out", report_path,
        )
        assert code == 0
        ideal = apply_circuit(named_router_circuit("router-superposition"), basis_state(3, 0))
        report = read_json(report_path)
        amps = np.array([complex(re, im) for re, im in report["ideal_state"]])
        assert np.allclose(amps, ideal.amplitudes)

    def test_transpiled_run_matches_untranspiled_ideal(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        common = ["run", "--experiment", "router-control1", "--tomography", "none",
                  "--no-timestamps"]
        assert run_cli(*common, "--out", a) == 0
        assert run_cli(*common, "--transpile", "ibmqx4", "--out", b) == 0
        ra, rb = read_json(a), read_json(b)
        ma = density_from_json(ra["reconstructed"]).matrix
        mb = density_from_json(rb["reconstructed"]).matrix
        assert np.max(np.abs(ma - mb)) < 1e-9
        assert rb["spec"]["layout"] == [2, 0, 1]

    def test_settings_per_observable_mode(self, tmp_path):
        out = str(tmp_path / "r.json")
        assert run_cli(
            "run", "--experiment", "router-superposition", "--shots", "512",
            "--seed", "8", "--settings-per-observable", "--no-timestamps",
            "--out", out,
        ) == 0
        counts = read_json(read_json(out)["counts_file"])
        assert len(counts["settings"]) == 63

    def test_invalid_spec_exit_1(self, report_path):
        assert run_cli("run", "--out", report_path) == 1
        assert run_cli(
            "run", "--experiment", "router-superposition", "--tomography",
            "routed", "--out", report_path,
        ) == 1

    def test_parse_error_exit_2(self, tmp_path, report_path):
        bad = tmp_path / "bad.qasm"
        bad.write_text("qreg q[1];")
        assert run_cli("run", "--qasm", str(bad), "--out", report_path) == 2

    @pytest.mark.parametrize(
        "device, code, message",
        [
            ({"p1": 0.001}, 2, "'qubits'"),
            ([{"t1_us": 35.2, "t2_us": 38.1}], 2, "JSON object"),
            ({"qubits": [{"t1_us": 35.2}]}, 2, "'t2_us'"),
            ({"qubits": [35.2]}, 2, "qubits[0]"),
            ({"qubits": [{"t1_us": None, "t2_us": 38.1}]}, 2, "'t1_us'"),
            ({"qubits": [{"t1_us": -1.0, "t2_us": 38.1}]}, 1, "T1 and T2"),
            ({"qubits": [{"t1_us": 35.2, "t2_us": 38.1}], "p1": 1.5}, 1, "probability"),
        ],
    )
    def test_device_file_errors(self, tmp_path, report_path, capsys, device, code, message):
        dev = tmp_path / "dev.json"
        dev.write_text(json.dumps(device))
        assert run_cli(
            "run", "--experiment", "router-control0", "--noise", str(dev),
            "--tomography", "none", "--out", report_path,
        ) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cmap, code, message",
        [
            ([[1, 0]], 2, "JSON object"),
            ({"edges": [[1, 0]]}, 2, "'n_qubits'"),
            ({"n_qubits": "5", "edges": [[1, 0]]}, 2, "'n_qubits'"),
            ({"n_qubits": 5}, 2, "'edges'"),
            ({"n_qubits": 5, "edges": [[1, 0], [2]]}, 2, "edges[1]"),
            ({"n_qubits": 5, "edges": [["2", "0"]]}, 2, "edges[0]"),
            ({"n_qubits": 5, "edges": [[2, 0.5]]}, 2, "edges[0]"),
            ({"n_qubits": 5, "edges": [[1, 1]]}, 1, "self-edge"),
            ({"n_qubits": 5, "edges": [[1, 7]]}, 1, "outside register"),
        ],
    )
    def test_coupling_map_file_errors(self, tmp_path, report_path, capsys, cmap, code, message):
        path = tmp_path / "map.json"
        path.write_text(json.dumps(cmap))
        assert run_cli(
            "run", "--experiment", "router-control0", "--transpile", str(path),
            "--tomography", "none", "--out", report_path,
        ) == code
        assert message in capsys.readouterr().err

    def test_coupling_map_file_accepted(self, tmp_path, report_path):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"n_qubits": 5, "edges": [[1, 0], [2, 0], [2, 1]]}))
        assert run_cli(
            "run", "--experiment", "router-control0", "--transpile", str(path),
            "--tomography", "none", "--no-timestamps", "--out", report_path,
        ) == 0

    @pytest.mark.filterwarnings("ignore:T2 = .* exceeds 2\\*T1")
    def test_fuzzed_device_files_exit_cleanly(self, tmp_path, report_path, one_parser):
        device = {
            "qubits": [{"t1_us": 35.2, "t2_us": 38.1}, {"t1_us": 57.5, "t2_us": 40.5},
                       {"t1_us": 36.6, "t2_us": 54.8}],
            "p1": 1e-3, "p2": 1e-2, "p_readout": 0.02, "dur_1q_ns": 100.0, "dur_2q_ns": 400.0,
        }
        dev = tmp_path / "dev.json"
        codes = set()
        for variant in fuzzed(device, np.random.default_rng(17), 200):
            dev.write_text(json.dumps(variant))
            codes.add(run_cli(
                "run", "--experiment", "router-control0", "--noise", str(dev),
                "--tomography", "none", "--no-timestamps", "--out", report_path,
            ))
        assert codes <= {0, 1, 2, 3} and {0, 1, 2} <= codes

    def test_unroutable_exit_3(self, tmp_path, report_path):
        qasm_file = tmp_path / "c.qasm"
        qasm_file.write_text(
            'OPENQASM 2.0;\nqreg q[5];\ncx q[0], q[4];\n'
        )
        assert run_cli(
            "run", "--qasm", str(qasm_file), "--transpile", "ibmqx4",
            "--layout", "0,1,2,3,4", "--tomography", "none", "--out", report_path,
        ) == 3


class TestVerify:
    def test_noiseless_control0_passes(self, report_path, capsys):
        run_cli(
            "run", "--experiment", "router-control0", "--seed", "4",
            "--no-timestamps", "--out", report_path,
        )
        assert run_cli("verify", "--report", report_path) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_noisy_superposition_negativity(self, report_path):
        run_cli(
            "run", "--experiment", "router-superposition", "--noise", "ibmqx4",
            "--seed", "6", "--no-timestamps", "--out", report_path,
        )
        assert run_cli("verify", "--report", report_path) == 0

    def test_corrupted_trace_fails(self, report_path, capsys):
        run_cli(
            "run", "--experiment", "router-control0", "--seed", "4",
            "--no-timestamps", "--out", report_path,
        )
        report = read_json(report_path)
        report["reconstructed"]["entries"][0][0][0] += 0.2
        with open(report_path, "w") as f:
            json.dump(report, f)
        assert run_cli("verify", "--report", report_path) != 0
        assert "FAIL" in capsys.readouterr().out

    def test_unreadable_report_exit_2(self, tmp_path):
        assert run_cli("verify", "--report", str(tmp_path / "missing.json")) == 2

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda r: [r], "JSON object"),
            (lambda r: "report", "JSON object"),
            (lambda r: {k: v for k, v in r.items() if k != "reconstructed"}, "'reconstructed'"),
            (lambda r: {**r, "reconstructed": None}, "'reconstructed'"),
            (lambda r: {k: v for k, v in r.items() if k != "fidelity"}, "'fidelity'"),
            (lambda r: {k: v for k, v in r.items() if k != "negativity"}, "'negativity'"),
            (lambda r: {**r, "fidelity": None}, "'fidelity' is not a number"),
            (lambda r: {**r, "negativity": "high"}, "'negativity' is not a number"),
            (lambda r: {**r, "fidelity": 10**400}, "'fidelity' is not a number"),
            (lambda r: {**r, "spec": ["router-control0"]}, "'spec'"),
            (lambda r: {**r, "spec": {**r["spec"], "name": ["router-control0"]}}, "'name'"),
        ],
        ids=["list", "string", "no-reconstructed", "reconstructed-null", "no-fidelity",
             "no-negativity", "fidelity-null", "negativity-text", "fidelity-overflow",
             "spec-list", "spec-name-list"],
    )
    def test_malformed_report_exit_2(self, report_path, capsys, edit, message):
        run_cli(
            "run", "--experiment", "router-control0", "--tomography", "none",
            "--no-timestamps", "--out", report_path,
        )
        report = edit(read_json(report_path))
        with open(report_path, "w") as f:
            json.dump(report, f)
        assert run_cli("verify", "--report", report_path) == 2
        assert message in capsys.readouterr().err

    def test_reconstructed_not_an_object_fails(self, report_path, capsys):
        run_cli(
            "run", "--experiment", "router-control0", "--tomography", "none",
            "--no-timestamps", "--out", report_path,
        )
        report = read_json(report_path)
        report["reconstructed"] = [1, 2]
        with open(report_path, "w") as f:
            json.dump(report, f)
        assert run_cli("verify", "--report", report_path) == 1
        assert "FAIL density-matrix invariants" in capsys.readouterr().out


class TestEmitFigure:
    def test_pure_state_real_part(self, tmp_path, report_path):
        run_cli(
            "run", "--experiment", "router-control0", "--tomography", "none",
            "--no-timestamps", "--out", report_path,
        )
        csv_path = str(tmp_path / "fig.csv")
        assert run_cli("emit-figure", "--report", report_path, "--part", "real",
                       "--out", csv_path) == 0
        rows = [line.split(",") for line in open(csv_path).read().strip().split("\n")]
        assert rows[0][1] == "|000>" and len(rows) == 9
        report = read_json(report_path)
        re00 = report["reconstructed"]["entries"][0][0][0]
        assert abs(float(rows[1][1]) - re00) < 1e-12

    def test_imag_part_antisymmetric(self, tmp_path, report_path):
        run_cli(
            "run", "--experiment", "router-superposition", "--tomography", "none",
            "--no-timestamps", "--out", report_path,
        )
        csv_path = str(tmp_path / "fig.csv")
        assert run_cli("emit-figure", "--report", report_path, "--part", "imag",
                       "--out", csv_path) == 0
        rows = [line.split(",") for line in open(csv_path).read().strip().split("\n")]
        m = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
        assert np.max(np.abs(m + m.T)) < 1e-12

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda r: [r], "JSON object"),
            (lambda r: {k: v for k, v in r.items() if k != "reconstructed"}, "'reconstructed'"),
            (lambda r: {**r, "reconstructed": None}, "'reconstructed'"),
            (lambda r: {**r, "reconstructed": [1, 2]}, "JSON object"),
            (lambda r: {**r, "reconstructed": {"n_qubits": 3}}, "'entries'"),
            (lambda r: {**r, "reconstructed": {**r["reconstructed"], "n_qubits": [3]}},
             "'n_qubits'"),
            (lambda r: {**r, "reconstructed": {**r["reconstructed"], "n_qubits": "3"}},
             "'n_qubits'"),
            (lambda r: {**r, "reconstructed": {**r["reconstructed"], "n_qubits": 10**12}},
             "'n_qubits'"),
            (lambda r: {**r, "reconstructed": {
                "n_qubits": 1, "entries": [[1.0, 0.0], [0.0, 0.0]]}}, "[re, im]"),
            (lambda r: {**r, "reconstructed": {
                "n_qubits": 1, "entries": [[[1.0, 0.0], [0.0]], [[0.0, 0.0], [0.0, 0.0]]]}},
             "[re, im]"),
            (lambda r: {**r, "reconstructed": {
                "n_qubits": 1, "entries": [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}},
             "Hermitian"),
        ],
        ids=["list", "no-reconstructed", "reconstructed-null", "reconstructed-list",
             "no-entries", "n_qubits-list", "n_qubits-text", "n_qubits-huge",
             "entries-not-pairs", "pair-too-short", "not-hermitian"],
    )
    def test_malformed_report_exit_2(self, tmp_path, report_path, capsys, edit, message):
        run_cli(
            "run", "--experiment", "router-control0", "--tomography", "none",
            "--no-timestamps", "--out", report_path,
        )
        report = edit(read_json(report_path))
        with open(report_path, "w") as f:
            json.dump(report, f)
        csv_path = tmp_path / "fig.csv"
        assert run_cli("emit-figure", "--report", report_path, "--part", "real",
                       "--out", str(csv_path)) == 2
        assert message in capsys.readouterr().err
        assert not csv_path.exists()


def test_fuzzed_reports_exit_cleanly(tmp_path, report_path, one_parser):
    run_cli(
        "run", "--experiment", "router-superposition", "--noise", "ibmqx4", "--shots", "256",
        "--no-timestamps", "--out", report_path,
    )
    report = read_json(report_path)
    csv_path = str(tmp_path / "fig.csv")
    codes = set()
    for variant in fuzzed(report, np.random.default_rng(23), 300):
        with open(report_path, "w") as f:
            json.dump(variant, f)
        codes.add(run_cli("verify", "--report", report_path))
        codes.add(run_cli("emit-figure", "--report", report_path, "--part", "imag",
                          "--out", csv_path))
    assert codes <= {0, 1, 2, 3} and {0, 1, 2} <= codes
