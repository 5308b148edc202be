import builtins
import copy
import datetime
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from qrouter import cli, noise, tomography
from qrouter.cli import main
from qrouter.gates import apply_circuit, named_router_circuit
from qrouter.qasm import serialize
from qrouter.qstate import (
    StateVector,
    _pairs,
    basis_state,
    density_from_json,
    equal_up_to_global_phase,
    von_neumann_entropy,
)
from qrouter.tomography import TomographyDataset, reconstruct

from ._analytic import PLUS, PSI_S


ONE_QUBIT = "OPENQASM 2.0;\nqreg q[1];\nh q[0];\nt q[0];\n"
CREG_FIRST = "OPENQASM 2.0;\ncreg c[2];\nqreg q[2];\nh q[0];\ncx q[0], q[1];\n"


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

    def test_timestamp_is_the_only_addition(self, report_path):
        argv = ["run", "--experiment", "router-control0", "--seed", "4", "--out", report_path]
        assert run_cli(*argv, "--no-timestamps") == 0
        plain = read_json(report_path)
        assert "timestamps" not in plain
        assert run_cli(*argv) == 0
        stamped = read_json(report_path)
        stamps = stamped.pop("timestamps")
        assert list(stamps) == ["finished"]
        finished = datetime.datetime.fromisoformat(stamps["finished"])
        assert finished.utcoffset() == datetime.timedelta(0)
        now = datetime.datetime.now(datetime.timezone.utc)
        assert datetime.timedelta(0) <= now - finished < datetime.timedelta(minutes=5)
        assert stamped == plain

    @pytest.mark.parametrize(
        "program, mode",
        [(ONE_QUBIT, "full"), (ONE_QUBIT, "none"), (CREG_FIRST, "full"), (CREG_FIRST, "none")],
        ids=["full", "none", "creg-first-full", "creg-first-none"],
    )
    def test_one_qubit_qasm_runs_and_verifies(
        self, tmp_path, report_path, capsys, program, mode
    ):
        qasm_file = tmp_path / "c.qasm"
        qasm_file.write_text(program)
        assert run_cli(
            "run", "--qasm", str(qasm_file), "--tomography", mode, "--shots", "256",
            "--no-timestamps", "--out", report_path,
        ) == 0
        report = read_json(report_path)
        rho = density_from_json(report["reconstructed"])
        assert rho.n_qubits == (1 if program == ONE_QUBIT else 2)
        if rho.n_qubits == 1:
            # one qubit has no cut: no negativity, and the entropy is the whole state's
            assert report["negativity"] == 0.0
            assert report["entropy_control_bits"] == von_neumann_entropy(rho)
        assert run_cli("verify", "--report", report_path) == 0
        assert "FAIL" not in capsys.readouterr().out
        csv_path = tmp_path / "fig.csv"
        assert run_cli("emit-figure", "--report", report_path, "--part", "real",
                       "--out", str(csv_path)) == 0
        assert len(csv_path.read_text().splitlines()) == rho.dim + 1

    def test_creg_and_barriers_write_the_canonical_files(self, tmp_path, monkeypatch):
        # neither changes a gate; each program is router.qasm, which the report names
        text = serialize(named_router_circuit("router-superposition"))
        declared = "qreg q[3];\ncreg c[3];\nbarrier q[0], q[1], q[2];\n"
        extended = text.replace("qreg q[3];\n", declared) + "barrier q[1];\n"
        written = []
        for i, program in enumerate([text, extended]):
            (tmp_path / str(i)).mkdir()
            monkeypatch.chdir(tmp_path / str(i))
            Path("router.qasm").write_text(program)
            assert run_cli("run", "--qasm", "router.qasm", "--no-timestamps", "--seed", "3",
                           "--out", "r.json", "--counts-out", "c.json") == 0
            written.append([Path(f).read_bytes() for f in ("r.json", "c.json")])
        assert written[0] == written[1]

    @pytest.mark.parametrize(
        "counts, out", [("no-dir/c.json", "r.json"), ("c.json", "no-dir/r.json")],
        ids=["counts-write-fails", "report-write-fails"],
    )
    def test_failed_write_leaves_no_file(self, tmp_path, capsys, monkeypatch, counts, out):
        monkeypatch.chdir(tmp_path)
        assert run_cli(
            "run", "--experiment", "router-control0", "--shots", "64", "--no-timestamps",
            "--counts-out", counts, "--out", out,
        ) == 2
        assert "No such file or directory: 'no-dir/" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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

    def test_counts_file_is_one_compact_line(self, tmp_path, monkeypatch):
        made, collect_dataset = [], tomography.collect_dataset

        def collect(*args, **kwargs):
            made.append(collect_dataset(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(cli.tomography, "collect_dataset", collect)
        out = str(tmp_path / "r.json")
        assert run_cli(
            "run", "--experiment", "router-control0", "--shots", "128",
            "--seed", "3", "--no-timestamps", "--out", out,
        ) == 0
        with open(read_json(out)["counts_file"]) as f:
            text = f.read()
        assert "\n" not in text
        assert json.loads(text) == made[0].to_json()

    @pytest.mark.parametrize(
        "counts",
        ["r.json", "./r.json", "sub/../r.json", "{tmp}/r.json", "link.json", "linkdir/r.json"],
    )
    def test_counts_out_equal_to_out_exit_1_before_any_state(
        self, tmp_path, capsys, monkeypatch, counts
    ):
        monkeypatch.setattr(cli, "apply_circuit", None)  # any simulation would raise
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        if counts.startswith("link"):  # a link to the report, which does not exist yet
            try:
                os.symlink("r.json", "link.json")
                os.symlink(".", "linkdir", target_is_directory=True)
            except (OSError, NotImplementedError) as err:
                pytest.skip(f"no symbolic links here: {err}")
        assert run_cli(
            "run", "--experiment", "router-control0", "--no-timestamps",
            "--out", "r.json", "--counts-out", counts.format(tmp=tmp_path),
        ) == 1
        assert "counts file and the report must be different" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("device", [[], ["--noise", "ibmqx4", "--transpile", "ibmqx4"]],
                             ids=["ideal", "device"])
    @pytest.mark.parametrize("source", ["experiment", "qasm"])
    def test_routed_without_routed_qubit_exit_1_before_any_state(
        self, tmp_path, report_path, capsys, monkeypatch, source, device
    ):
        def no_state(*args, **kwargs):
            raise AssertionError("a state was formed")

        monkeypatch.setattr(cli, "apply_circuit", no_state)
        monkeypatch.setattr(noise, "simulate_noisy", no_state)
        if source == "qasm":
            qasm_file = tmp_path / "router.qasm"
            qasm_file.write_text(serialize(named_router_circuit("router-control0")))
            circuit = ["--qasm", str(qasm_file)]
        else:
            circuit = ["--experiment", "router-superposition"]
        assert run_cli(
            "run", *circuit, *device, "--tomography", "routed", "--no-timestamps",
            "--out", report_path,
        ) == 1
        err = capsys.readouterr().err
        assert "routed-qubit tomography applies only to router-control0/control1" in err
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == (["router.qasm"] if source == "qasm" else [])

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--experiment", "router-control0", "--shots", "0"], "shots must be positive"),
            (["--experiment", "router-foo"], "unknown experiment 'router-foo'; choose from"),
            (["--qasm", "{tmp}/measure.qasm"],
             "experiment circuits must not contain measure instructions"),
            (["--qasm", "{tmp}/q4.qasm", "--transpile", "ibmqx4"],
             "the default layout places only 3 qubits; give --layout for a 4-qubit circuit"),
            (["--qasm", "{tmp}/q5.qasm", "--transpile", "ibmqx4"],
             "the default layout places only 3 qubits; give --layout for a 5-qubit circuit"),
            (["--experiment", "router-control0", "--transpile", "ibmqx4", "--layout", "a,b,c"],
             "--layout must be a comma-separated list of integers: 'a,b,c'"),
            (["--experiment", "router-control0", "--transpile", "ibmqx4", "--layout", "٢,٠,١"],
             "--layout must be a comma-separated list of integers: '٢,٠,١'"),
            (["--experiment", "router-control0", "--transpile", "ibmqx4", "--layout", "2_0,0,1"],
             "--layout must be a comma-separated list of integers: '2_0,0,1'"),
            (["--qasm", "{tmp}/q2.qasm", "--transpile", "{tmp}/map2.json"],
             "the default layout 2,0 does not fit a 2-qubit coupling map; give --layout"),
            (["--qasm", "{tmp}/q1.qasm", "--transpile", "{tmp}/map1.json"],
             "the default layout 2 does not fit a 1-qubit coupling map; give --layout"),
            (["--qasm", "{tmp}/noqreg.qasm"],
             "the circuit has no qubits: a QASM program needs a 'qreg'"),
            (["--qasm", "{tmp}/noqreg.qasm", "--transpile", "ibmqx4", "--tomography", "none"],
             "the circuit has no qubits: a QASM program needs a 'qreg'"),
            (["--qasm", "{tmp}/noqreg.qasm", "--tomography", "none"],
             "the circuit has no qubits: a QASM program needs a 'qreg'"),
            (["--experiment", "router-control0", "--noise", "{tmp}/dev1.json"],
             "model calibrates 1 qubits, circuit needs 3"),
            (["--experiment", "router-control0", "--transpile", "ibmqx4", "--layout", "2,2,1"],
             "repeated qubit operand in [2, 2, 1]"),
        ],
        ids=["no-shots", "unknown-experiment", "measure", "default-layout-4q",
             "default-layout-5q", "layout-not-integers", "layout-arabic-indic-digits",
             "layout-underscore", "default-layout-2q-map", "default-layout-1q-map",
             "no-qreg", "no-qreg-transpiled", "no-qreg-no-tomography", "device-narrower",
             "layout-repeated"],
    )
    def test_spec_error_exit_1_before_any_state(
        self, tmp_path, capsys, monkeypatch, argv, message
    ):
        def no_state(*args, **kwargs):
            raise AssertionError("a state was formed")

        monkeypatch.setattr(cli, "apply_circuit", no_state)
        monkeypatch.setattr(noise, "simulate_noisy", no_state)
        inputs = {
            "measure.qasm": "OPENQASM 2.0;\nqreg q[3];\ncreg c[1];\nmeasure q[0] -> c[0];\n",
            "q4.qasm": "OPENQASM 2.0;\nqreg q[4];\nh q[0];\ncx q[0], q[3];\n",
            "q5.qasm": "OPENQASM 2.0;\nqreg q[5];\nh q[4];\n",
            "q2.qasm": "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[1], q[0];\n",
            "q1.qasm": "OPENQASM 2.0;\nqreg q[1];\nh q[0];\n",
            "noqreg.qasm": 'OPENQASM 2.0;\ninclude "qelib1.inc";\n',
            "map2.json": '{"n_qubits": 2, "edges": [[1, 0]]}',
            "map1.json": '{"n_qubits": 1, "edges": []}',
            "dev1.json": '{"qubits": [{"t1_us": 35.2, "t2_us": 38.1}]}',
        }
        for name, text in inputs.items():
            (tmp_path / name).write_text(text)
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        out = str(tmp_path / "r.json")
        assert run_cli("run", *argv, "--no-timestamps", "--out", out) == 1
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs)

    @pytest.mark.parametrize(
        "program, message",
        [
            ("qreg q[1];", "line 1, col 1: program must start with 'OPENQASM 2.0;'"),
            ("OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[0];\n",
             "line 3, col 1: repeated qubit operand in (0, 0)"),
            ("OPENQASM 2.0;\nqreg q[2];\nbarrier q[0], q[0];\n",
             "line 3, col 1: repeated qubit operand in (0, 0)"),
            ("OPENQASM 2.0;\nqreg q[2];\nh q[2];\n",
             "line 3, col 5: index 2 out of range for q[2]"),
        ],
        ids=["no-header", "repeated-cx", "repeated-barrier", "index-range"],
    )
    def test_parse_error_exit_2(self, tmp_path, capsys, program, message):
        (tmp_path / "bad.qasm").write_text(program)
        assert run_cli(
            "run", "--qasm", str(tmp_path / "bad.qasm"), "--no-timestamps",
            "--out", str(tmp_path / "r.json"),
        ) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["bad.qasm"]

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
            ({"qubits": [{"t1_us": float("nan"), "t2_us": 38.1}]}, 2, "'t1_us' is not finite"),
            ({"qubits": [], "dur_1q_ns": float("nan")}, 2, "'dur_1q_ns' is not finite"),
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
            ({"n_qubits": 0, "edges": []}, 2, "'n_qubits'"),
            ({"n_qubits": -2, "edges": []}, 2, "'n_qubits'"),
            ({"n_qubits": 2, "edges": [[1, 0]]}, 1, "circuit has 3 qubits but the coupling map"),
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
    def test_fuzzed_device_files_exit_cleanly(self, tmp_path, report_path):
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

    @pytest.mark.parametrize("shots", [2**63, 1_026_000_000_000_000_000])
    def test_shots_past_int64_total_exit_1_before_writing(self, tmp_path, capsys, shots):
        code = run_cli(
            "run", "--experiment", "router-control0", "--shots", str(shots),
            "--no-timestamps", "--out", str(tmp_path / "r.json"),
        )
        assert code == 1
        assert "settings exceed 2^63 - 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode", ["full", "routed", "none"])
    def test_negative_seed_exit_1(self, report_path, capsys, mode):
        code = run_cli(
            "run", "--experiment", "router-control0", "--tomography", mode,
            "--seed", "-1", "--no-timestamps", "--out", report_path,
        )
        assert code == 1
        assert "seed must be a non-negative integer" in capsys.readouterr().err

    def test_layout_entries_may_be_spaced(self, tmp_path):
        reports = []
        for layout in ("2,0,1", "2, 0, 1"):
            out = str(tmp_path / "r.json")
            assert run_cli(
                "run", "--experiment", "router-control0", "--transpile", "ibmqx4",
                "--layout", layout, "--tomography", "none", "--no-timestamps", "--out", out,
            ) == 0
            reports.append(read_json(out))
        assert reports[0]["spec"]["layout"] == [2, 0, 1]
        assert reports[1] == reports[0]

    @pytest.mark.parametrize("layout", ["9,9,9", "2,0,1"])
    def test_layout_without_transpile_exit_1(self, report_path, capsys, layout):
        code = run_cli(
            "run", "--experiment", "router-control0", "--layout", layout,
            "--tomography", "none", "--out", report_path,
        )
        assert code == 1
        assert "--layout applies only together with --transpile" in capsys.readouterr().err
        with pytest.raises(FileNotFoundError):
            read_json(report_path)

    @pytest.mark.parametrize(
        "width, tomography, message",
        [
            (13, "none", "executed register of 13 qubits; at most 12"),
            (40, "full", "executed register of 40 qubits; at most 12"),
            (7, "full", "tomography of 7 qubits; at most 6"),
        ],
    )
    def test_too_wide_qasm_exit_1_before_any_state(
        self, tmp_path, report_path, capsys, monkeypatch, width, tomography, message
    ):
        monkeypatch.setattr(cli, "apply_circuit", None)  # any simulation would raise
        qasm_file = tmp_path / "wide.qasm"
        qasm_file.write_text(f"OPENQASM 2.0;\nqreg q[{width}];\nh q[0];\n")
        assert run_cli(
            "run", "--qasm", str(qasm_file), "--tomography", tomography, "--out", report_path,
        ) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("width", [13, 40])
    def test_too_wide_coupling_map_exit_1_before_any_state(
        self, tmp_path, report_path, capsys, monkeypatch, width
    ):
        monkeypatch.setattr(cli, "apply_circuit", None)
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"n_qubits": width, "edges": [[1, 0], [2, 0], [2, 1]]}))
        assert run_cli(
            "run", "--experiment", "router-control0", "--transpile", str(path),
            "--tomography", "none", "--out", report_path,
        ) == 1
        assert f"executed register of {width} qubits" in capsys.readouterr().err

    def test_seven_qubits_without_tomography_run(self, tmp_path, report_path):
        qasm_file = tmp_path / "seven.qasm"
        qasm_file.write_text("OPENQASM 2.0;\nqreg q[7];\nh q[0];\ncx q[0], q[6];\n")
        assert run_cli(
            "run", "--qasm", str(qasm_file), "--tomography", "none", "--no-timestamps",
            "--out", report_path,
        ) == 0
        assert run_cli("verify", "--report", report_path) == 0

    def test_unroutable_exit_3(self, tmp_path, report_path):
        qasm_file = tmp_path / "c.qasm"
        qasm_file.write_text(
            'OPENQASM 2.0;\nqreg q[5];\ncx q[0], q[4];\n'
        )
        assert run_cli(
            "run", "--qasm", str(qasm_file), "--transpile", "ibmqx4",
            "--layout", "0,1,2,3,4", "--tomography", "none", "--out", report_path,
        ) == 3


class TestSpecAndExecute:
    """``run`` is ``spec_from_args``, then ``execute`` with no I/O, then two writes."""

    DEVICE = ["--experiment", "router-control1", "--noise", "ibmqx4", "--transpile", "ibmqx4",
              "--settings-per-observable"]
    QASM = ["--qasm", "router.qasm", "--noise", "ibmqx4"]

    @staticmethod
    def spec(*argv):
        return cli.spec_from_args(cli.build_parser().parse_args(["run", *argv]))

    @pytest.fixture
    def router_qasm(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "router.qasm").write_text(serialize(named_router_circuit("router-control0")))

    @pytest.mark.parametrize("source", [DEVICE, QASM], ids=["device-literal", "qasm"])
    def test_execute_opens_no_file(self, router_qasm, monkeypatch, source):
        spec = self.spec(*source, "--seed", "3", "--out", "r.json")

        def refuse(*args, **kwargs):
            raise AssertionError("execute opened a file")

        with monkeypatch.context() as m:
            m.setattr(builtins, "open", refuse)
            m.setattr(io, "open", refuse)
            ideal, dataset, state, scores = cli.execute(spec)
        assert len(dataset.settings) == (63 if source is self.DEVICE else 27)
        assert state.n_qubits == ideal.n_qubits == 3
        assert 0.8 < scores["fidelity"] < 1.0
        assert files_here() == {"router.qasm"}

    @pytest.mark.parametrize(
        "argv",
        [DEVICE, ["--experiment", "router-control0", "--tomography", "routed"],
         QASM + ["--transpile", "ibmqx4", "--tomography", "none"]],
        ids=["device-literal", "routed", "qasm-no-tomography"],
    )
    def test_execute_returns_what_run_writes(self, router_qasm, argv):
        argv = [*argv, "--seed", "5", "--no-timestamps", "--out", "r.json"]
        spec = self.spec(*argv)
        ideal, dataset, state, scores = cli.execute(spec)
        assert run_cli("run", *argv) == 0
        if dataset is None:
            assert spec.counts_file is None and files_here() == {"router.qasm", "r.json"}
        else:
            with open(spec.counts_file) as f:
                assert json.loads(f.read()) == dataset.to_json()
        report = {
            "spec": spec.spec._asdict(),
            "reconstructed": {"n_qubits": state.n_qubits},
            **scores,
            "seed": 5,
            "counts_file": spec.counts_file,
        }
        text = cli._report_text(report, _pairs(ideal.amplitudes), _pairs(state.matrix))
        with open("r.json") as f:
            assert first_difference(f.read(), text) is None

    @staticmethod
    def no_state(*args, **kwargs):
        raise AssertionError("a state was formed")

    @staticmethod
    def numbers(result):
        ideal, dataset, state, scores = result
        counts = None if dataset is None else dataset.counts.tolist()
        return ideal.amplitudes.tolist(), counts, state.matrix.tolist(), scores

    def test_equal_spec_forms_no_state_again(self, router_qasm, monkeypatch):
        argv = [*self.DEVICE, "--seed", "3", "--out", "r.json"]
        first = cli.execute(self.spec(*argv))
        monkeypatch.setattr(cli, "apply_circuit", self.no_state)
        monkeypatch.setattr(noise, "simulate_noisy", self.no_state)
        again = cli.execute(self.spec(*argv))  # an equal spec, parsed and transpiled again
        assert self.numbers(again) == self.numbers(first)
        assert again[0] is first[0]
        other_seed = cli.execute(self.spec(*self.DEVICE, "--seed", "4", "--out", "r.json"))
        assert other_seed[1].counts.tolist() != first[1].counts.tolist()

    @pytest.mark.parametrize(
        "change",
        [("--noise", "p1.json"), ("--layout", "0,1,2"), ("--tomography", "routed"),
         ("--transpile", None)],
        ids=["device-file-p1", "layout", "routed", "untranspiled"],
    )
    def test_each_spec_difference_misses(self, router_qasm, change):
        model = noise.ibmqx4_model()
        rows = [{"t1_us": q.t1_us, "t2_us": q.t2_us} for q in model.qubits]
        Path("p1.json").write_text(json.dumps({"qubits": rows, "p1": 2 * model.p1}))
        base = {"--experiment": "router-control1", "--noise": "ibmqx4", "--transpile": "ibmqx4",
                "--seed": "3", "--out": "r.json"}

        def spec(options):
            return self.spec(*(x for key, value in options.items() if value for x in (key, value)))

        base_result = cli.execute(spec(base))
        warm = cli.execute(spec({**base, change[0]: change[1]}))
        assert len(cli._kept_states) == 2
        cli._kept_states.clear()
        cold = cli.execute(spec({**base, change[0]: change[1]}))
        assert self.numbers(warm) == self.numbers(cold)
        assert warm[3] != base_result[3]

    def test_kept_arrays_are_read_only(self, router_qasm):
        argv = [*self.QASM, "--out", "r.json"]
        _, _, state, _ = cli.execute(self.spec(*argv, "--tomography", "none"))
        cli.execute(self.spec(*argv))
        ((ideal, target, rho, tomographed),) = cli._kept_states.values()
        assert state is rho is tomographed  # scored without tomography, sampled with it
        # with what they keep: the target's square root and the sampled distributions
        arrays = [ideal.amplitudes, target.matrix, target._sqrt, rho.matrix, rho._probs[1]]
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            state.matrix[0, 0] = 0

    def test_routed_target_is_kept_with_its_root(self, router_qasm, monkeypatch):
        argv = ["--experiment", "router-control0", "--noise", "ibmqx4", "--tomography", "routed",
                "--out", "r.json"]
        cli.execute(self.spec(*argv, "--seed", "1"))
        ((_, target, _, _),) = cli._kept_states.values()
        assert target.n_qubits == 1 and target._sqrt is not None
        decomposed = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: decomposed.append(m) or eigh(m))
        cli.execute(self.spec(*argv, "--seed", "2"))
        # the projection's and the reconstruction's root; the target's root is kept
        assert len(decomposed) == 2
        assert not any(np.array_equal(m, target.matrix) for m in decomposed)

    @pytest.mark.parametrize("width, kept", [(6, 1), (7, 0)])
    def test_states_wider_than_tomography_are_not_kept(self, tmp_path, width, kept):
        qasm_file = tmp_path / "wide.qasm"
        program = f"OPENQASM 2.0;\nqreg q[{width}];\nh q[0];\ncx q[0], q[{width - 1}];\n"
        qasm_file.write_text(program)
        argv = ["--qasm", str(qasm_file), "--tomography", "none", "--out", str(tmp_path / "r.json")]
        first = cli.execute(self.spec(*argv))
        assert len(cli._kept_states) == kept
        assert self.numbers(cli.execute(self.spec(*argv))) == self.numbers(first)

    def test_least_recently_used_state_is_dropped(self, tmp_path, monkeypatch):
        specs = []
        for i in range(cli._STATES_KEPT + 1):
            (tmp_path / f"{i}.qasm").write_text("OPENQASM 2.0;\nqreg q[1];\n" + "h q[0];\n" * i)
            specs.append(self.spec("--qasm", str(tmp_path / f"{i}.qasm"), "--tomography", "none",
                                   "--out", str(tmp_path / "r.json")))
        for spec in specs[:-1]:
            cli.execute(spec)
        first = cli.execute(specs[0])[0]  # now the most recently used
        cli.execute(specs[-1])
        assert len(cli._kept_states) == cli._STATES_KEPT
        assert cli.execute(specs[0])[0] is first
        monkeypatch.setattr(cli, "apply_circuit", self.no_state)
        with pytest.raises(AssertionError, match="a state was formed"):
            cli.execute(specs[1])

    def test_clamping_warning_on_every_run(self, tmp_path, monkeypatch):
        device = tmp_path / "t2.json"
        device.write_text(json.dumps({"qubits": [{"t1_us": 10.0, "t2_us": 30.0}] * 3}))
        argv = ["run", "--experiment", "router-control0", "--noise", str(device),
                "--shots", "128", "--no-timestamps", "--out", str(tmp_path / "r.json")]
        with pytest.warns(UserWarning, match="clamping dephasing rate"):
            assert run_cli(*argv, "--seed", "1") == 0
        monkeypatch.setattr(noise, "simulate_noisy", self.no_state)  # so the next run is a hit
        with pytest.warns(UserWarning, match="clamping dephasing rate"):
            assert run_cli(*argv, "--seed", "2") == 0

    def test_device_files_equal_after_clamping_share_one_entry(self, tmp_path):
        argv = ["--experiment", "router-control0", "--tomography", "none",
                "--out", str(tmp_path / "r.json")]
        results = []
        for t2 in (30.0, 45.0):  # both past 2*T1 = 20
            device = tmp_path / f"t2-{t2}.json"
            device.write_text(json.dumps({"qubits": [{"t1_us": 10.0, "t2_us": t2}] * 3}))
            with pytest.warns(UserWarning, match="clamping dephasing rate"):
                results.append(cli.execute(self.spec(*argv, "--noise", str(device))))
        assert len(cli._kept_states) == 1
        assert results[0][2] is results[1][2]

    def test_spec_fields_cannot_be_assigned(self, tmp_path):
        spec = self.spec("--experiment", "router-control0", "--out", str(tmp_path / "r.json"))
        assert spec.counts_file == str(tmp_path / "r.counts.json")
        for field in cli.Spec._fields:
            with pytest.raises(AttributeError):
                setattr(spec, field, None)
        for field in cli.SpecBlock._fields:
            with pytest.raises(AttributeError):
                setattr(spec.spec, field, None)
        with pytest.raises(TypeError):
            spec.spec["shots"] = 128


def files_here():
    return {p.name for p in Path().iterdir()}


def dumped(report):
    """The report writer's oracle: json's own indented, key-sorted text."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def first_difference(got, want):
    """None for equal texts, else the first line that differs; pytest's own
    diff of two long texts can take minutes."""
    if got == want:
        return None
    for i, (a, b) in enumerate(zip(got.splitlines(True), want.splitlines(True))):
        if a != b:
            return f"line {i + 1}: {a!r} != {b!r}"
    return f"{len(got)} characters against {len(want)}"


# floats whose shortest repr json must keep: signed zero, the smallest subnormal,
# exponent notation on both sides, and a sum that is not its decimal
EDGE_FLOATS = [-0.0, 5e-324, 1e16, 1e-7, 0.1 + 0.2]


class TestReportText:
    """A report file is json's indented, key-sorted text, though its number
    blocks are written from their arrays."""

    def test_every_matrix_report_is_its_json_dump(self, matrix):
        where, runs = matrix
        written = 0
        for exp, mode, out, code in runs:
            assert code == (1 if (exp, mode) == ("router-superposition", "routed") else 0)
            if code == 0:
                text = (where / out).read_text()
                assert first_difference(text, dumped(json.loads(text))) is None, out
                written += 1
        assert written == 52

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_blocks_equal_json_dump(self, n):
        rng = np.random.default_rng(n)
        ideal = rng.normal(size=(2**n, 2))
        entries = rng.normal(size=(2**n, 2**n, 2)) * 10.0 ** rng.integers(-20, 20, (2**n, 2**n, 2))
        ideal.flat[: len(EDGE_FLOATS)] = EDGE_FLOATS
        entries.flat[-len(EDGE_FLOATS):] = EDGE_FLOATS
        report = {
            "counts_file": "c.json",
            "fidelity": 0.1 + 0.2,
            "ideal_state": ideal.tolist(),
            "reconstructed": {"entries": entries.tolist(), "n_qubits": n},
            "spec": {"layout": None, "name": "x"},
        }
        assert first_difference(cli._report_text(report, ideal, entries), dumped(report)) is None

    def test_qasm_name_with_quotes_and_non_ascii(self, tmp_path, monkeypatch):
        # names that hold a quote, non-ASCII text and the text of a block's key;
        # the counts file's name is written before 'ideal_state', the circuit's after
        monkeypatch.chdir(tmp_path)
        name = 'r"ö\u00e9 "ideal_state": null,\n  "entries": null'
        with open(f"{name}.qasm", "w") as f:
            f.write(serialize(named_router_circuit("router-control1")))
        counts = f"c {name}.json"
        assert run_cli(
            "run", "--qasm", f"{name}.qasm", "--noise", "ibmqx4", "--transpile", "ibmqx4",
            "--settings-per-observable", "--no-timestamps", "--out", "q.json",
            "--counts-out", counts,
        ) == 0
        text = open("q.json").read()
        report = json.loads(text)
        assert report["spec"]["name"] == name and report["counts_file"] == counts
        assert first_difference(text, dumped(report)) is None
        assert run_cli("verify", "--report", "q.json") == 0

    def test_timestamped_report(self, report_path):
        assert run_cli("run", "--experiment", "router-control0", "--out", report_path) == 0
        text = open(report_path).read()
        assert "timestamps" in json.loads(text)
        assert first_difference(text, dumped(json.loads(text))) is None


class TestCountsFile:
    """The counts file is the dataset: loading it back reconstructs exactly the
    state the report holds, and no edit of it escapes as anything but ValueError."""

    @pytest.mark.parametrize("tomography", ["full", "routed"])
    @pytest.mark.parametrize("settings", ["grid", "per-observable"])
    def test_reload_reconstructs_the_report_state(self, report_path, tomography, settings):
        mode = ["--settings-per-observable"] if settings == "per-observable" else []
        assert run_cli(
            "run", "--experiment", "router-control0", "--noise", "ibmqx4",
            "--transpile", "ibmqx4", "--tomography", tomography, *mode,
            "--seed", "4", "--no-timestamps", "--out", report_path,
        ) == 0
        report = read_json(report_path)
        rebuilt = reconstruct(TomographyDataset.from_json(read_json(report["counts_file"]))).matrix
        assert np.array_equal(rebuilt, density_from_json(report["reconstructed"]).matrix)

    def test_fuzzed_counts_files_load_or_raise_value_error(self, report_path):
        assert run_cli(
            "run", "--experiment", "router-control1", "--shots", "64", "--seed", "2",
            "--no-timestamps", "--out", report_path,
        ) == 0
        doc = read_json(read_json(report_path)["counts_file"])
        outcomes = set()
        for variant in fuzzed(doc, np.random.default_rng(29), 300):
            try:
                TomographyDataset.from_json(variant)
                outcomes.add("loaded")
            except ValueError:
                outcomes.add("rejected")
        assert outcomes == {"loaded", "rejected"}


class TestParser:
    def test_built_once_per_process(self, monkeypatch, tmp_path):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        missing = str(tmp_path / "missing.json")
        calls = [
            ["verify", "--report", missing],
            ["emit-figure", "--report", missing, "--part", "real", "--out", missing],
            ["verify", "--report", missing],
        ]
        try:
            for argv in calls:
                assert main(argv) == 2
        finally:
            cli._parser.cache_clear()
        assert built == [1]

    def test_options_do_not_carry_over_between_runs(self, tmp_path):
        first, second = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        custom_counts = str(tmp_path / "custom.counts.json")
        common = ["run", "--experiment", "router-control0", "--transpile", "ibmqx4",
                  "--shots", "64", "--no-timestamps"]  # fmt: skip
        assert run_cli(*common, "--layout", "1,2,0", "--counts-out", custom_counts,
                       "--out", first) == 0  # fmt: skip
        assert run_cli(*common, "--out", second) == 0
        a, b = read_json(first), read_json(second)
        assert a["spec"]["layout"] == [1, 2, 0] and a["counts_file"] == custom_counts
        assert b["spec"]["layout"] == list(cli.DEFAULT_LAYOUT)
        assert b["counts_file"] == str(tmp_path / "b.counts.json")
        assert read_json(b["counts_file"])["shots"] == 64


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

    @pytest.mark.parametrize("mode", ["full", "routed", "none"])
    def test_recomputed_numbers_pass(self, report_path, capsys, mode):
        run_cli(
            "run", "--experiment", "router-control1", "--noise", "ibmqx4",
            "--tomography", mode, "--seed", "2", "--no-timestamps", "--out", report_path,
        )
        assert run_cli("verify", "--report", report_path) == 0
        out = capsys.readouterr().out
        assert "PASS fidelity recomputed" in out
        assert ("PASS negativity recomputed" in out) == (mode != "routed")
        assert ("PASS entropy_control_bits recomputed" in out) == (mode != "routed")

    @pytest.mark.parametrize("mode", ["full", "routed"])
    def test_edited_fidelity_fails(self, report_path, capsys, mode):
        # 0.95 lies inside the noisy band, so only the recomputation catches it
        run_cli(
            "run", "--experiment", "router-control1", "--noise", "ibmqx4",
            "--tomography", mode, "--seed", "2", "--no-timestamps", "--out", report_path,
        )
        report = read_json(report_path)
        assert abs(report["fidelity"] - 0.95) > 1e-3
        report["fidelity"] = 0.95
        with open(report_path, "w") as f:
            json.dump(report, f)
        assert run_cli("verify", "--report", report_path) == 1
        out = capsys.readouterr().out
        assert "FAIL fidelity recomputed: stored 0.95" in out
        assert "PASS fidelity band" in out

    def test_edited_entropy_fails(self, report_path, capsys):
        # no band checks the entropy, so only the recomputation catches the edit
        run_cli(
            "run", "--experiment", "router-control0", "--noise", "ibmqx4",
            "--seed", "3", "--no-timestamps", "--out", report_path,
        )
        report = read_json(report_path)
        assert abs(report["entropy_control_bits"] - 0.5) > 1e-3
        report["entropy_control_bits"] = 0.5
        with open(report_path, "w") as f:
            json.dump(report, f)
        assert run_cli("verify", "--report", report_path) == 1
        out = capsys.readouterr().out
        assert "FAIL entropy_control_bits recomputed: stored 0.5," in out
        assert out.count("FAIL") == 1

    def test_relabelled_negativity_fails(self, report_path, capsys):
        # a classically controlled report passed off as the entangling router
        run_cli(
            "run", "--experiment", "router-control0", "--seed", "4",
            "--no-timestamps", "--out", report_path,
        )
        report = read_json(report_path)
        report["spec"]["name"] = "router-superposition"
        report["negativity"] = 0.5
        with open(report_path, "w") as f:
            json.dump(report, f)
        assert run_cli("verify", "--report", report_path) == 1
        out = capsys.readouterr().out
        assert "FAIL negativity recomputed: stored 0.5" in out
        assert "PASS entanglement generated" in out

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda r: {k: v for k, v in r.items() if k != "ideal_state"}, "'ideal_state'"),
            (lambda r: {**r, "ideal_state": None}, "'ideal_state'"),
            (lambda r: {**r, "ideal_state": [[1.0, 0.0, 0.0]]}, "[re, im]"),
            (lambda r: {**r, "ideal_state": [[1.0, "0"]]}, "[re, im]"),
            (lambda r: {**r, "ideal_state": [[1.0, 0.0]] * 8}, "normalized"),
            (lambda r: {**r, "ideal_state": [[1.0, 0.0]] + [[0.0, 0.0]] * 6}, "amplitudes"),
            (lambda r: {**r, "ideal_state": [[1.0, 0.0], [0.0, 0.0]]}, "scored qubits"),
            (lambda r: {**r, "spec": {**r["spec"], "tomography": "routed", "name": "custom"}},
             "routed qubit"),
            (lambda r: {**r, "ideal_state": []}, "holds 0 amplitudes, not a power of 2"),
        ],
        ids=["missing", "null", "triple", "text", "unnormalised", "length-7", "one-qubit",
             "routed-custom", "empty"],
    )
    def test_malformed_ideal_state_exit_2(self, report_path, capsys, edit, message):
        run_cli(
            "run", "--experiment", "router-superposition", "--tomography", "none",
            "--no-timestamps", "--out", report_path,
        )
        report = edit(read_json(report_path))
        with open(report_path, "w") as f:
            json.dump(report, f)
        assert run_cli("verify", "--report", report_path) == 2
        assert message in capsys.readouterr().err

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
            (lambda r: {k: v for k, v in r.items() if k != "entropy_control_bits"},
             "'entropy_control_bits'"),
            (lambda r: {**r, "entropy_control_bits": [0.5]},
             "'entropy_control_bits' is not a number"),
            (lambda r: {**r, "spec": ["router-control0"]}, "'spec'"),
            (lambda r: {**r, "spec": {**r["spec"], "name": ["router-control0"]}}, "'name'"),
            (lambda r: {**r, "spec": {**r["spec"], "noise": None}}, "'noise' is not a string"),
            (lambda r: {**r, "spec": {**r["spec"], "noise": 5}}, "'noise' is not a string"),
            (lambda r: {**r, "spec": {**r["spec"], "tomography": ["routed"]}},
             "'tomography' is not a string"),
            (lambda r: {**r, "spec": {**r["spec"], "tomography": 5}},
             "'tomography' is not a string"),
        ],
        ids=["list", "string", "no-reconstructed", "reconstructed-null", "no-fidelity",
             "no-negativity", "fidelity-null", "negativity-text", "fidelity-overflow",
             "no-entropy", "entropy-list",
             "spec-list", "spec-name-list", "spec-noise-null", "spec-noise-number",
             "spec-tomography-list", "spec-tomography-number"],
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


class TestClaims:
    """``cli.CLAIMS``, the paper's claims that ``verify`` checks: each row's
    bound at its edge, stated here rather than read from the table, and how
    many contract reports each row applies to."""

    @pytest.mark.parametrize(
        "label, condition, passing, failing, detail",
        [
            ("fidelity band", "noisy", [0.90, 0.995],
             [np.nextafter(0.90, 0), np.nextafter(0.995, 1)],
             "fidelity 0.9000 within noisy band [0.90, 0.995]"),
            ("fidelity band", "noiseless", [0.98, 1.0], [np.nextafter(0.98, 0)],
             "fidelity 0.9800 >= 0.98 (noiseless)"),
            ("entanglement generated", "any", [np.nextafter(0.1, 1)], [0.1],
             "negativity 0.1000 > 0.1 across control|paths"),
            ("no spurious entanglement", "exact", [0.0, 1e-6], [np.nextafter(1e-6, 1)],
             "negativity 0.00e+00 <= 1e-06 for classical control"),
            ("no spurious entanglement", "inexact", [0.0, 0.02], [np.nextafter(0.02, 1)],
             "negativity 0.00e+00 <= 0.02 for classical control"),
        ],
    )
    def test_bound_edges(self, label, condition, passing, failing, detail):
        (row,) = [c for c in cli.CLAIMS if (c.label, c.condition) == (label, condition)]
        assert [row.test(x) for x in passing] == [True] * len(passing)
        assert [row.test(x) for x in failing] == [False] * len(failing)
        assert row.detail.format(x=passing[0]) == detail

    # each row's rounding would print a number on the other side of its bound
    EDGES = (0.89996, 0.99504, 0.979996, 0.10004, 1.0000004e-6, 0.0200004)

    @pytest.mark.parametrize("x", EDGES)
    @pytest.mark.parametrize("row", cli.CLAIMS, ids=lambda row: f"{row.label}-{row.condition}")
    def test_printed_number_reads_as_the_verdict(self, row, x):
        printed = row.shown(x).split()[1]
        assert row.test(float(printed)) == row.test(x), row.shown(x)
        assert printed in (row.detail.format(x=x).split()[1], repr(x))

    @pytest.mark.parametrize(
        "label, condition, x, detail",
        [
            ("fidelity band", "noisy", 0.89996, "fidelity 0.89996 within noisy band [0.90, 0.995]"),
            ("fidelity band", "noisy", 0.99504, "fidelity 0.99504 within noisy band [0.90, 0.995]"),
            ("fidelity band", "noisy", 0.90004, "fidelity 0.9000 within noisy band [0.90, 0.995]"),
            ("fidelity band", "noiseless", 0.979996, "fidelity 0.979996 >= 0.98 (noiseless)"),
            ("entanglement generated", "any", 0.10004,
             "negativity 0.10004 > 0.1 across control|paths"),
            ("entanglement generated", "any", 0.1, "negativity 0.1000 > 0.1 across control|paths"),
            ("no spurious entanglement", "exact", 1.0000004e-6,
             "negativity 1.0000004e-06 <= 1e-06 for classical control"),
            ("no spurious entanglement", "inexact", 0.0200004,
             "negativity 0.0200004 <= 0.02 for classical control"),
            ("no spurious entanglement", "inexact", 0.0199996,
             "negativity 2.00e-02 <= 0.02 for classical control"),
        ],
    )
    def test_shown_edges(self, label, condition, x, detail):
        (row,) = [c for c in cli.CLAIMS if (c.label, c.condition) == (label, condition)]
        assert row.shown(x) == detail

    @pytest.mark.parametrize("row", cli.CLAIMS, ids=lambda row: f"{row.label}-{row.condition}")
    def test_sentence_is_the_papers_words(self, row):
        paper = (Path(__file__).resolve().parents[1] / "PAPER.md").read_text()
        assert row.sentence in paper

    def test_verify_prints_the_unrounded_number(self, report_path, capsys):
        run_cli(
            "run", "--experiment", "router-control1", "--noise", "ibmqx4",
            "--seed", "2", "--no-timestamps", "--out", report_path,
        )
        report = read_json(report_path)
        report["fidelity"] = 0.89996
        with open(report_path, "w") as f:
            json.dump(report, f)
        assert run_cli("verify", "--report", report_path) == 1
        out = capsys.readouterr().out
        assert "FAIL fidelity band: fidelity 0.89996 within noisy band [0.90, 0.995]\n" in out

    def test_every_row_applies_to_a_contract_report(self, matrix, monkeypatch, capsys):
        where, runs = matrix
        monkeypatch.chdir(where)
        rows, applied, tested = cli.CLAIMS, [0] * len(cli.CLAIMS), set()

        def counted(i, test):
            def count(x):  # a row's test also reads back its printed number
                tested.add(i)
                return test(x)
            return count

        counting = tuple(row._replace(test=counted(i, row.test)) for i, row in enumerate(rows))
        monkeypatch.setattr(cli, "CLAIMS", counting)
        for *_, out, code in runs:
            if code == 0:
                run_cli("verify", "--report", out)
                for i in tested:
                    applied[i] += 1
                tested.clear()
        assert {(row.label, row.condition): n for row, n in zip(rows, applied)} == {
            ("fidelity band", "noisy"): 26,
            ("fidelity band", "noiseless"): 26,
            ("entanglement generated", "any"): 12,
            ("no spurious entanglement", "exact"): 4,
            ("no spurious entanglement", "inexact"): 36,
        }


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


def test_zero_qubit_report_exit_2(tmp_path, report_path, capsys):
    """A report whose 'reconstructed' and 'ideal_state' hold one number, a state of
    no qubits, which ``run`` never writes: ``verify`` and ``emit-figure`` exit 2,
    and no figure labels its one row as a 1-qubit basis state."""
    run_cli(
        "run", "--experiment", "router-control0", "--tomography", "none",
        "--no-timestamps", "--out", report_path,
    )
    report = read_json(report_path)
    report["spec"]["name"] = "custom"
    report["reconstructed"] = {"n_qubits": 0, "entries": [[[1.0, 0.0]]]}
    report["ideal_state"] = [[1.0, 0.0]]
    with open(report_path, "w") as f:
        json.dump(report, f)
    assert run_cli("verify", "--report", report_path) == 2
    out, err = capsys.readouterr()
    assert out == "" and "a state needs at least one qubit" in err
    csv_path = tmp_path / "fig.csv"
    assert run_cli("emit-figure", "--report", report_path, "--part", "real",
                   "--out", str(csv_path)) == 2
    assert "a state needs at least one qubit" in capsys.readouterr().err
    assert not csv_path.exists()


INPUT_FILE_COMMANDS = {
    "run-qasm": ("run", "--qasm", "{file}", "--out", "{tmp}/r.json"),
    "run-noise": ("run", "--experiment", "router-control0", "--noise", "{file}",
                  "--out", "{tmp}/r.json"),
    "run-transpile": ("run", "--experiment", "router-control0", "--transpile", "{file}",
                      "--out", "{tmp}/r.json"),
    "verify": ("verify", "--report", "{file}"),
    "emit-figure": ("emit-figure", "--report", "{file}", "--part", "real",
                    "--out", "{tmp}/fig.csv"),
}
UNREADABLE_FILES = {
    "not-utf8": b'\xff\xfe{"n_qubits": 1}',
    "nested": b"[" * 200_000,
    "truncated": b'{"qubits": [',
}


@pytest.mark.parametrize("fault", sorted(UNREADABLE_FILES))
@pytest.mark.parametrize("command", sorted(INPUT_FILE_COMMANDS))
def test_undecodable_or_too_nested_file_exit_2(tmp_path, capsys, command, fault):
    """An input file that is not UTF-8 text, or JSON that is truncated or nested
    past the decoder's depth, exits 2 with one error line that names the file:
    not 1, which ``verify`` gives a failed check, and no traceback. The command
    writes no file. To the QASM reader the JSON faults are syntax errors, whose
    message gives a line and column instead."""
    path = tmp_path / "input"
    path.write_bytes(UNREADABLE_FILES[fault])
    argv = [arg.format(file=path, tmp=tmp_path) for arg in INPUT_FILE_COMMANDS[command]]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    if fault == "not-utf8" or command != "run-qasm":
        assert f"error: {path}: " in err
    assert [p.name for p in tmp_path.iterdir()] == ["input"]


def test_fuzzed_reports_exit_cleanly(tmp_path, report_path):
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


DEVICE = {
    "qubits": [{"t1_us": 35.2, "t2_us": 38.1}, {"t1_us": 57.5, "t2_us": 40.5},
               {"t1_us": 36.6, "t2_us": 54.8}],
    "p1": 1e-3, "p2": 1e-2, "p_readout": 0.02, "dur_1q_ns": 100.0, "dur_2q_ns": 400.0,
}
CMAP = {"n_qubits": 5, "edges": [[1, 0], [2, 0], [2, 1]]}
COUNTS = {"n_qubits": 1, "shots": 100, "seed": 0, "settings": {"X": {"0": 50, "1": 50}}}
NOT_NUMBERS = (True, False, "40", float("nan"), float("inf"), float("-inf"))
NOT_FLOATS = NOT_NUMBERS + (10**400,)


def refused(key, value):
    """How a reader words its refusal of ``value`` where a float is meant."""
    return f"{key!r} is not finite" if isinstance(value, float) else f"{key!r} is not a number"


def replaced(doc, path, value):
    """Copy of ``doc`` with the value at ``path`` (a tuple of keys) replaced."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def device_file(tmp_path, capsys, path, value):
    dev = tmp_path / "dev.json"
    dev.write_text(json.dumps(replaced(DEVICE, path, value)))
    code = run_cli(
        "run", "--experiment", "router-control0", "--noise", str(dev),
        "--tomography", "none", "--no-timestamps", "--out", str(tmp_path / "r.json"),
    )
    assert code == 2
    assert refused(path[-1], value) in capsys.readouterr().err


def coupling_map_file(tmp_path, capsys, path, value):
    cmap = tmp_path / "map.json"
    cmap.write_text(json.dumps(replaced(CMAP, path, value)))
    code = run_cli(
        "run", "--experiment", "router-control0", "--transpile", str(cmap),
        "--tomography", "none", "--no-timestamps", "--out", str(tmp_path / "r.json"),
    )
    assert code == 2
    assert ("'n_qubits'" if path == ("n_qubits",) else "edges[0]") in capsys.readouterr().err


def counts_file(tmp_path, capsys, path, value):
    message = f"{path[0]!r} must be an integer" if len(path) == 1 else "is not an integer"
    doc = replaced(COUNTS, path, value)
    for data in (doc, json.loads(json.dumps(doc))):
        with pytest.raises(ValueError, match=message):
            TomographyDataset.from_json(data)


def edited_report(tmp_path, path, value):
    report = str(tmp_path / "report.json")
    run_cli(
        "run", "--experiment", "router-control0", "--tomography", "none",
        "--no-timestamps", "--out", report,
    )
    doc = replaced(read_json(report), path, value)
    with open(report, "w") as f:
        json.dump(doc, f)
    return report


def report_file(tmp_path, capsys, path, value):
    report = edited_report(tmp_path, path, value)
    assert run_cli("verify", "--report", report) == 2
    err = capsys.readouterr().err
    assert (refused(path[0], value) if len(path) == 1 else "[re, im]") in err


def reconstructed_entry(tmp_path, capsys, path, value):
    report = edited_report(tmp_path, path, value)
    csv_path = tmp_path / "fig.csv"
    assert run_cli("emit-figure", "--report", report, "--part", "real",
                   "--out", str(csv_path)) == 2
    assert "[re, im]" in capsys.readouterr().err
    assert not csv_path.exists()
    assert run_cli("verify", "--report", report) == 1
    assert "FAIL density-matrix invariants" in capsys.readouterr().out


NUMBER_READERS = [
    *((device_file, ("qubits", 1, key), NOT_FLOATS) for key in ("t1_us", "t2_us")),
    *((device_file, (key,), NOT_FLOATS)
      for key in ("p1", "p2", "p_readout", "dur_1q_ns", "dur_2q_ns")),
    (coupling_map_file, ("n_qubits",), NOT_NUMBERS),
    (coupling_map_file, ("edges", 0, 0), NOT_NUMBERS),
    *((counts_file, (key,), NOT_NUMBERS) for key in ("n_qubits", "shots", "seed")),
    (counts_file, ("settings", "X", "1"), NOT_NUMBERS),
    *((report_file, (key,), NOT_FLOATS)
      for key in ("fidelity", "negativity", "entropy_control_bits")),
    (report_file, ("ideal_state", 0, 0), NOT_FLOATS),
    (report_file, ("ideal_state", 3, 1), NOT_FLOATS),
    (reconstructed_entry, ("reconstructed", "entries", 0, 0, 0), NOT_FLOATS),
    (reconstructed_entry, ("reconstructed", "entries", 2, 5, 1), NOT_FLOATS),
]


def number_cases():
    for reader, path, values in NUMBER_READERS:
        for value in values:
            shown = "10^400" if value == 10**400 else repr(value)
            name = f"{reader.__name__}-{'.'.join(map(str, path))}-{shown}"
            yield pytest.param(reader, path, value, id=name)


@pytest.mark.parametrize("reader, path, value", list(number_cases()))
def test_every_reader_refuses_what_is_not_a_number(tmp_path, capsys, reader, path, value):
    """A bool, a numeric string, NaN or an infinity where a file holds a number,
    or an int past float range where it holds a float, is refused by every
    reader alike."""
    reader(tmp_path, capsys, path, value)
