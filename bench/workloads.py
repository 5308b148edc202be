"""The three benchmark workloads: inputs from a seed, one op, and its output check.

Every call into qrouter goes through a module attribute (``tomography.x``, not
``from qrouter.tomography import x``) so that tracing wrappers installed on
the modules see the benchmark's own calls.

An op's check returns one of three verdicts:

- ``ok``: the op succeeded and its output passed the check;
- ``rejected``: ``qrouter verify`` rejected a report whose numbers the
  benchmark recomputed and found out of band, so the program told the truth
  about an experiment below its fidelity band (the op succeeded and its
  output is correct; the rejection rate is reported on its own);
- ``wrong``: the op raised, or an output is not what the program promises.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np

from qrouter import cli, gates, noise, qasm, qstate, tomography

SHOTS = 8192
EXPERIMENTS = tuple(sorted(gates.ROUTER_EXPERIMENTS))
LAYOUT = (2, 0, 1)
IDEAL_MIN_FIDELITY = 0.98
NOISY_BAND = (0.90, 0.995)


def _ideal_density(name: str):
    c = gates.named_router_circuit(name)
    return qstate.to_density(gates.apply_circuit(c, qstate.basis_state(c.n_qubits, 0)))


def _base_seed(seed: int) -> int:
    """Start of the op-seed sequence drawn from the workload seed."""
    return int(np.random.default_rng([seed, 1]).integers(2**31))


def _in_noisy_band(f: float) -> bool:
    return NOISY_BAND[0] <= f <= NOISY_BAND[1]


class SeedSweep:
    """Shot-noise sweep: sample, reconstruct and score the router states.

    Targets cycle over the three ideal router states and the same three under
    ibmqx4 noise; the sampling seed advances with every op.
    """

    name = "seed-sweep"
    size = f"3 qubits, 27-setting grid, {SHOTS} shots"
    tail_pct = 95.0

    def __init__(self, seed: int):
        model = noise.ibmqx4_model()
        self.targets = []
        for exp in EXPERIMENTS:
            self.targets.append((exp, False, _ideal_density(exp)))
        for exp in EXPERIMENTS:
            state = noise.simulate_noisy(gates.named_router_circuit(exp), model)
            self.targets.append((exp, True, state))
        self.ideal = {exp: _ideal_density(exp) for exp in EXPERIMENTS}
        self.cycle = len(self.targets)
        self.base_seed = _base_seed(seed)

    def inputs(self, i: int):
        exp, noisy, state = self.targets[i % self.cycle]
        return exp, noisy, state, self.base_seed + i

    def op(self, i: int):
        exp, noisy, state, op_seed = self.inputs(i)
        rho = tomography.reconstruct(tomography.collect_dataset(state, SHOTS, op_seed))
        return {
            "noisy": noisy,
            "rho": rho,
            "fidelity": tomography.fidelity(rho, self.ideal[exp]),
            "negativity": qstate.negativity(rho, [0], [1, 2]),
            "entropy": qstate.von_neumann_entropy(qstate.partial_trace(rho, [0])),
        }

    @staticmethod
    def check(out) -> str:
        try:
            qstate.DensityMatrix(3, out["rho"].matrix)
        except ValueError:
            return "wrong"
        f = out["fidelity"]
        ok = _in_noisy_band(f) if out["noisy"] else f >= IDEAL_MIN_FIDELITY
        return "ok" if ok else "wrong"

    @staticmethod
    def record(out) -> list[float]:
        return [out["fidelity"], out["negativity"], out["entropy"]]

    def close(self):
        pass


class DeviceRun:
    """``qrouter run`` of the transpiled ibmqx4 device experiment, then ``verify``.

    The op runs in a working directory of its own; report and counts file
    names are relative, so report bytes do not depend on where the checkout is.
    """

    name = "device-run"
    size = f"5-qubit transpiled noisy sim, 63 settings x {SHOTS} shots"
    tail_pct = 95.0
    REPORT = "report.json"
    COUNTS = "report.counts.json"

    def __init__(self, seed: int, workdir: str):
        self.cycle = len(EXPERIMENTS)
        self.base_seed = _base_seed(seed)
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self._cwd = os.getcwd()
        os.chdir(workdir)

    def inputs(self, i: int):
        return EXPERIMENTS[i % self.cycle], self.base_seed + i

    def argv(self, i: int) -> list[str]:
        exp, op_seed = self.inputs(i)
        return [
            "run", "--experiment", exp, "--noise", "ibmqx4", "--transpile", "ibmqx4",
            "--settings-per-observable", "--no-timestamps", "--seed", str(op_seed),
            "--out", self.REPORT,
        ]  # fmt: skip

    def op(self, i: int):
        with contextlib.redirect_stdout(io.StringIO()):  # verify's PASS/FAIL lines
            rc_run = cli.main(self.argv(i))
            rc_verify = cli.main(["verify", "--report", self.REPORT])
        return {"rc_run": rc_run, "rc_verify": rc_verify}

    def check(self, out) -> str:
        """Exit codes must be 0; a rejection must match a recomputation.

        Removes the report and counts file, so the next op cannot pass on a
        stale report.
        """
        if out["rc_run"] != 0 or out["rc_verify"] not in (0, 1):
            return "wrong"
        with open(self.REPORT, "rb") as f:
            report_bytes = f.read()
        with open(self.COUNTS, "rb") as f:
            counts_bytes = f.read()
        os.remove(self.REPORT)
        os.remove(self.COUNTS)
        out["bytes_written"] = len(report_bytes) + len(counts_bytes)
        out["sha256"] = [
            hashlib.sha256(report_bytes).hexdigest(),
            hashlib.sha256(counts_bytes).hexdigest(),
        ]
        report = json.loads(report_bytes)
        out["numbers"] = [report["fidelity"], report["negativity"], report["entropy_control_bits"]]
        if out["rc_verify"] == 0:
            return "ok"
        # verify said no: accept that only if the report is what the program
        # computes and its fidelity really is outside the noisy band
        rho = qstate.density_from_json(report["reconstructed"])
        amps = np.array([complex(re, im) for re, im in report["ideal_state"]])
        ideal = qstate.to_density(qstate.StateVector(rho.n_qubits, amps))
        f = tomography.fidelity(rho, ideal)
        if abs(f - report["fidelity"]) > 1e-9 or _in_noisy_band(f):
            return "wrong"
        return "rejected"

    @staticmethod
    def record(out) -> list:
        return out.get("sha256", []) + out.get("numbers", [])

    def close(self):
        for name in (self.REPORT, self.COUNTS):
            if os.path.exists(name):
                os.remove(name)
        os.chdir(self._cwd)
        os.rmdir(self.workdir)


def random_circuit(rng, n_gates: int) -> gates.Circuit:
    """5-qubit gate-only circuit; CNOTs sit on ibmqx4 edges in either direction."""
    singles = sorted(gates.SINGLE_QUBIT_GATES)
    edges = sorted(qasm.IBMQX4_COUPLING.edges)
    c = gates.Circuit(5, name=f"random-{n_gates}")
    for _ in range(n_gates):
        if rng.random() < 0.4:
            ctl, tgt = edges[rng.integers(len(edges))]
            if rng.random() < 0.5:
                ctl, tgt = tgt, ctl
            c.add("cx", ctl, tgt)
        else:
            c.add(singles[rng.integers(len(singles))], int(rng.integers(5)))
    return c


class CircuitCheck:
    """QASM round trip, ibmqx4 transpile and unitary equivalence on a corpus.

    The corpus holds one random circuit of each size from 1 to 40 gates, so the
    size mix is the same for every seed, plus the three router circuits under
    layout 2,0,1.
    """

    name = "circuit-check"
    size = "5 qubits, 1-40 gates"
    tail_pct = 99.0
    MAX_GATES = 40

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        self.corpus = [random_circuit(rng, k) for k in range(1, self.MAX_GATES + 1)]
        for exp in EXPERIMENTS:
            routed = qasm.apply_layout(gates.named_router_circuit(exp), LAYOUT, 5)
            self.corpus.append(routed)
        self.cycle = len(self.corpus)

    def inputs(self, i: int):
        return self.corpus[i % self.cycle]

    def op(self, i: int):
        c = self.inputs(i)
        text = qasm.serialize(c)
        back = qasm.parse(text)
        legal = qasm.transpile(c, qasm.IBMQX4_COUPLING)
        legal_text = qasm.serialize(legal)
        legal_back = qasm.parse(legal_text)
        return {
            "circuit": c,
            "round_trip": back,
            "legal": legal,
            "legal_round_trip": legal_back,
            "u_in": gates.circuit_unitary(c),
            "u_out": gates.circuit_unitary(legal_back),
            "psi": gates.apply_circuit(c, qstate.basis_state(c.n_qubits, 0)),
            "legal_text": legal_text,
        }

    @staticmethod
    def check(out) -> str:
        if out["round_trip"] != out["circuit"] or out["legal_round_trip"] != out["legal"]:
            return "wrong"
        edges = qasm.IBMQX4_COUPLING.edges
        if any(i.name == "cx" and i.qubits not in edges for i in out["legal"].instructions):
            return "wrong"
        u_in, u_out = out["u_in"], out["u_out"]
        phase = np.vdot(u_in, u_out) / u_in.shape[0]
        if abs(abs(phase) - 1.0) > 1e-9:
            return "wrong"
        if np.max(np.abs(u_out - phase / abs(phase) * u_in)) > 1e-9:
            return "wrong"
        if np.max(np.abs(out["psi"].amplitudes - u_in[:, 0])) > 1e-9:
            return "wrong"
        return "ok"

    @staticmethod
    def record(out) -> list[str]:
        return [hashlib.sha256(out["legal_text"].encode()).hexdigest()]

    def close(self):
        pass


WORKLOADS = {w.name: w for w in (SeedSweep, DeviceRun, CircuitCheck)}


def make(name: str, seed: int, workdir: str):
    if name == DeviceRun.name:
        return DeviceRun(seed, workdir)
    return WORKLOADS[name](seed)
