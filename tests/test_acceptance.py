"""End-to-end acceptance suite; prints one PASS/FAIL line per criterion."""

import itertools

import numpy as np
import pytest

from qrouter.gates import (
    GATE_ARITY,
    Circuit,
    apply_circuit,
    circuit_unitary,
    fredkin_circuit,
    named_router_circuit,
    router_circuit,
)
from qrouter.noise import _gate_superop, ibmqx4_model, simulate_noisy
from qrouter.qasm import IBMQX4_COUPLING, parse, serialize, transpile
from qrouter.qstate import (
    basis_state,
    negativity,
    partial_trace,
    to_density,
    von_neumann_entropy,
)
from qrouter.tomography import (
    collect_dataset,
    fidelity,
    linear_inversion,
    project_to_physical,
    reconstruct,
)

from ._analytic import (
    C8,
    PLUS,
    PSI_S,
    amplitude_damping,
    depolarizing,
    exact_expectations,
    phase_damping,
    prep_state,
    psi_f_amplitudes,
)

EXPERIMENTS = ["router-superposition", "router-control0", "router-control1"]


def report(criterion, ok, detail):
    print(f"\n{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def ideal_state(name):
    return apply_circuit(named_router_circuit(name), basis_state(3, 0))


@pytest.fixture(scope="module")
def noisy_states():
    model = ibmqx4_model()
    return {n: simulate_noisy(named_router_circuit(n), model) for n in EXPERIMENTS}


def test_criterion_1_analytic_final_state():
    out = ideal_state("router-superposition").amplitudes
    target = psi_f_amplitudes()
    phase = np.vdot(out, target)
    phase /= abs(phase)
    err = np.max(np.abs(phase * out - target))
    report(
        "criterion 1 (analytic final state)",
        err <= 1e-10,
        f"inf-norm error {err:.2e} <= 1e-10 up to global phase",
    )


def test_criterion_2_routing_preservation():
    worst = 0.0
    cases = [("zero", 1, 2), ("one", 2, 1)]
    signal = to_density(prep_state("paper-signal")).matrix
    null = np.outer(PLUS, PLUS.conj())
    for control, routed, idle in cases:
        rho = to_density(
            apply_circuit(router_circuit(control, "paper-signal"), basis_state(3, 0))
        )
        worst = max(worst, np.max(np.abs(partial_trace(rho, [routed]).matrix - signal)))
        worst = max(worst, np.max(np.abs(partial_trace(rho, [idle]).matrix - null)))
    rng = np.random.default_rng(1234)
    gates1 = ["h", "x", "s", "sdg", "t", "tdg"]
    for _ in range(20):
        prep = tuple(rng.choice(gates1) for _ in range(int(rng.integers(1, 8))))
        target = to_density(prep_state(prep)).matrix
        for control, routed, _ in cases:
            rho = to_density(apply_circuit(router_circuit(control, prep), basis_state(3, 0)))
            worst = max(worst, np.max(np.abs(partial_trace(rho, [routed]).matrix - target)))
    report(
        "criterion 2 (routing preservation)",
        worst <= 1e-10,
        f"worst reduced-state deviation {worst:.2e} <= 1e-10 over named + 20 random preps",
    )


def test_criterion_3_fredkin_soundness():
    u = circuit_unitary(fredkin_circuit(0, 1, 2))
    cswap = np.eye(8)
    cswap[[5, 6]] = cswap[[6, 5]]
    phase = u[0, 0] / abs(u[0, 0])
    err = np.max(np.abs(u / phase - cswap))
    report(
        "criterion 3 (controlled-swap decomposition)",
        err <= 1e-10,
        f"unitary deviation from ideal CSWAP {err:.2e} <= 1e-10 up to global phase",
    )


def test_criterion_4_tomography_exactness():
    worst = 1.0
    for name in EXPERIMENTS:
        rho = to_density(ideal_state(name))
        rec = project_to_physical(linear_inversion(exact_expectations(rho), 3))
        worst = min(worst, fidelity(rec, rho))
    report(
        "criterion 4 (exact-expectation reconstruction)",
        abs(worst - 1.0) <= 1e-9,
        f"worst fidelity {worst:.12f}, within 1e-9 of 1",
    )


def test_criterion_5_shot_noise_band():
    details = []
    ok = True
    for name in EXPERIMENTS:
        rho = to_density(ideal_state(name))
        passed = sum(
            fidelity(reconstruct(collect_dataset(rho, 8192, seed)), rho) >= 0.98
            for seed in range(100)
        )
        details.append(f"{name}: {passed}/100")
        ok &= passed >= 95
    report(
        "criterion 5 (shot-noise band, 8192 shots)",
        ok,
        "seeds with fidelity >= 0.98 -- " + ", ".join(details),
    )


def test_criterion_6_noisy_device_band(noisy_states):
    details = []
    ok = True
    for name in EXPERIMENTS:
        ideal = to_density(ideal_state(name))
        fids = [
            fidelity(reconstruct(collect_dataset(noisy_states[name], 8192, seed)), ideal)
            for seed in range(20)
        ]
        lo, hi = min(fids), max(fids)
        details.append(f"{name}: [{lo:.4f}, {hi:.4f}]")
        ok &= 0.90 <= lo and hi <= 0.995
    report(
        "criterion 6 (device-noise band)",
        ok,
        "20-seed fidelity ranges within [0.90, 0.995] -- " + ", ".join(details),
    )


def test_criterion_7_entanglement_certificate(noisy_states):
    checks = []

    neg_noisy = min(
        negativity(
            reconstruct(collect_dataset(noisy_states["router-superposition"], 8192, seed)),
            [0],
            [1, 2],
        )
        for seed in range(5)
    )
    checks.append((neg_noisy > 0.1, f"noisy superposition negativity {neg_noisy:.4f} > 0.1"))

    for name in ["router-control0", "router-control1"]:
        ideal_neg = negativity(to_density(ideal_state(name)), [0], [1, 2])
        checks.append((ideal_neg <= 1e-6, f"{name} ideal negativity {ideal_neg:.2e} <= 1e-6"))
        noisy_neg = max(
            negativity(
                reconstruct(collect_dataset(noisy_states[name], 8192, seed)), [0], [1, 2]
            )
            for seed in range(5)
        )
        checks.append((noisy_neg <= 0.02, f"{name} noisy negativity {noisy_neg:.2e} <= 0.02"))

    lam = np.array([(1 - C8**2) / 2, (1 + C8**2) / 2])
    expected = float(-np.sum(lam * np.log2(lam)))
    ent = von_neumann_entropy(partial_trace(to_density(ideal_state("router-superposition")), [0]))
    checks.append(
        (abs(ent - expected) <= 1e-9, f"control entropy {ent:.6f} matches (1 +/- cos^2(pi/8))/2 spectrum")
    )

    report(
        "criterion 7 (entanglement certificate)",
        all(ok for ok, _ in checks),
        "; ".join(d for _, d in checks),
    )


def _random_corpus(rng, count=50):
    gates1 = ["h", "x", "s", "sdg", "t", "tdg"]
    corpus = [named_router_circuit(n) for n in EXPERIMENTS]
    while len(corpus) < count:
        n = int(rng.integers(1, 6))
        c = Circuit(n, n)
        for _ in range(int(rng.integers(0, 20))):
            if n >= 2 and rng.random() < 0.3:
                q = rng.permutation(n)[:2]
                c.add("cx", int(q[0]), int(q[1]))
            else:
                c.add(str(rng.choice(gates1)), int(rng.integers(n)))
        if rng.random() < 0.3:
            c.barrier()
        if rng.random() < 0.3:
            q = int(rng.integers(n))
            c.measure(q, q)
        corpus.append(c)
    return corpus


def test_criterion_8_parser_transpiler_soundness():
    rng = np.random.default_rng(99)
    corpus = _random_corpus(rng)
    round_trip_ok = all(parse(serialize(c)) == c for c in corpus)

    worst = worst_column = 0.0
    pairs = sorted(IBMQX4_COUPLING.edges) + [(t, c) for c, t in sorted(IBMQX4_COUPLING.edges)]
    gates1 = ["h", "x", "s", "sdg", "t", "tdg"]
    for _ in range(30):
        c = Circuit(5)
        for _ in range(int(rng.integers(1, 15))):
            if rng.random() < 0.4:
                ctl, tgt = pairs[int(rng.integers(len(pairs)))]
                c.add("cx", ctl, tgt)
            else:
                c.add(str(rng.choice(gates1)), int(rng.integers(5)))
        u_in = circuit_unitary(c)
        u_out = circuit_unitary(transpile(c, IBMQX4_COUPLING))
        k = np.argmax(np.abs(u_in))
        phase = u_in.flat[k] / u_out.flat[k]
        worst = max(worst, np.max(np.abs(phase * u_out - u_in)))
        psi = apply_circuit(c, basis_state(5, 0)).amplitudes
        worst_column = max(worst_column, np.max(np.abs(psi - u_in[:, 0])))

    from qrouter.qasm import QasmError

    vocab = [
        "OPENQASM", "2.0", "include", '"qelib1.inc"', "qreg", "creg", "q", "c",
        "h", "x", "s", "sdg", "t", "tdg", "cx", "measure", "barrier", "->",
        "[", "]", ";", ",", "0", "1", "7", "\n", " ", "q[0]", "q[2]", "//",
    ]
    crashes = 0
    for _ in range(10_000):
        kind = rng.random()
        if kind < 0.4:
            src = "".join(str(rng.choice(vocab)) for _ in range(int(rng.integers(0, 50))))
        elif kind < 0.7:
            src = bytes(rng.integers(0, 256, size=int(rng.integers(0, 256)))).decode("latin-1")
        else:
            base = list("OPENQASM 2.0;\nqreg q[3]; creg c[3]; h q[0]; cx q[0], q[1]; measure q[2] -> c[0];")
            for _ in range(int(rng.integers(1, 10))):
                base[int(rng.integers(len(base)))] = chr(int(rng.integers(32, 127)))
            src = "".join(base)
        assert len(src.encode("utf-8", "ignore")) <= 4096
        try:
            parse(src)
        except QasmError:
            pass
        except Exception:
            crashes += 1

    report(
        "criterion 8 (parser/transpiler soundness)",
        round_trip_ok and worst <= 1e-9 and worst_column <= 1e-9 and crashes == 0,
        f"50-circuit round-trip {'ok' if round_trip_ok else 'BROKEN'}; "
        f"transpile unitary deviation {worst:.2e} <= 1e-9; statevector vs unitary column 0 "
        f"{worst_column:.2e} <= 1e-9; {crashes} fuzz crashes in 10k cases",
    )


def test_criterion_9_channel_physicality():
    channels = [
        amplitude_damping(100.0, 35.2),
        amplitude_damping(400.0, 49.5),
        phase_damping(100.0, 35.2, 38.1),
        phase_damping(400.0, 49.5, 19.2),
        depolarizing(1e-3, 1),
        depolarizing(1e-2, 2),
    ]
    worst_tp = max(
        np.max(np.abs(sum(k.conj().T @ k for k in ch) - np.eye(ch.shape[1])))
        for ch in channels
    )

    # what the simulator builds: every noisy gate the ibmqx4 model can run, in closed
    # form, is trace-preserving (<vec I| S = <vec I|) with a PSD Choi matrix
    model = ibmqx4_model()
    worst_sop_tp, lowest_choi = 0.0, np.inf
    for name, k in GATE_ARITY.items():
        for qubits in itertools.permutations(range(len(model.qubits)), k):
            sop, d = _gate_superop(name, qubits, model), 2**k
            vec_i = np.eye(d).reshape(-1)
            worst_sop_tp = max(worst_sop_tp, np.max(np.abs(vec_i @ sop - vec_i)))
            # S[(a, b), (c, d)] is Choi entry [(c, a), (d, b)]
            choi = sop.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)
            lowest_choi = min(lowest_choi, np.linalg.eigvalsh(choi)[0])

    rng = np.random.default_rng(55)
    zero = ibmqx4_model(p1=0.0, p2=0.0, p_readout=0.0, dur_1q_ns=0.0, dur_2q_ns=0.0)
    worst_eq = 0.0
    for c in _random_corpus(rng, count=20):
        gate_only = Circuit(c.n_qubits)
        for i in c.instructions:
            if i.name not in ("measure", "barrier"):
                gate_only.add(i.name, *i.qubits)
        if gate_only.n_qubits > 5:
            continue
        rho = simulate_noisy(gate_only, zero)
        ideal = to_density(apply_circuit(gate_only, basis_state(c.n_qubits, 0)))
        worst_eq = max(worst_eq, np.max(np.abs(rho.matrix - ideal.matrix)))

    report(
        "criterion 9 (channel physicality)",
        max(worst_tp, worst_sop_tp, worst_eq) <= 1e-9 and lowest_choi >= -1e-9,
        f"trace-preservation deviation {worst_tp:.2e} <= 1e-9; "
        f"gate superoperators: trace-preservation deviation {worst_sop_tp:.2e} <= 1e-9, "
        f"lowest Choi eigenvalue {lowest_choi:.2e} >= -1e-9; "
        f"zero-noise vs pure simulation deviation {worst_eq:.2e} <= 1e-9",
    )
