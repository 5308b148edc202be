"""qrouter benchmark: closed loop, one client, one workload per process.

    python3 bench/run.py --workload seed-sweep --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; qrouter is imported from its ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. Each metric is printed with its unit, then
provenance and output fingerprints, and last one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("seed-sweep", "device-run", "circuit-check")
SETUP_SAMPLES = 7
PROBES_PER_SETUP = 5
CHILD_TIMEOUT_S = 150
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


# layer -> the end-to-end metric it should move, on which workload
LAYER_MAP = {
    "qstate": "device-run ops_per_s/op_p50_ms; seed-sweep a little",
    "gates": "embed_gate (reached through noise): device-run; the rest: circuit-check ops_per_s",
    "qasm": "circuit-check ops_per_s; under 3% of device-run",
    "noise": "device-run ops_per_s/op_p50_ms; seed-sweep setup_s only; no change on circuit-check",
    "tomography": "seed-sweep ops_per_s (grid path), device-run (literal path); "
    "no change on circuit-check",
    "cli": "device-run op_p50_ms",
    "trace": "untraced ops_per_s / traced ops_per_s - 1 (tracing cost, not a layer)",
}


class BenchError(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    env.update({k: str(blas_threads) for k in BLAS_ENV})
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, seconds: float, mode: str, env: dict):
    """Start a worker; return (process, seconds from spawn to its ``ready``)."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
        "--out-dir", str(OUT),
    ]  # fmt: skip
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} worker ({mode}) failed during set-up")
    return proc, ready


def slowdown() -> float:
    """How much slower than the reference speed the machine runs right now."""
    return statistics.median(probe.time_ms() for _ in range(PROBES_PER_SETUP)) / probe.REFERENCE_MS


def finish(proc) -> dict | None:
    """Wait for a worker and return its JSON result line, if it printed one."""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qrouter").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    threads = nproc()
    env = child_env(threads)
    setups = []
    if trace:
        proc, _ = spawn(workload, seed, seconds, "trace", env)
        res = finish(proc)
    else:
        # each set-up time is scaled to the reference machine speed by probes
        # run just before it, like the op latencies (bench/probe.py)
        for _ in range(SETUP_SAMPLES - 1):
            slow = slowdown()
            proc, ready = spawn(workload, seed, seconds, "setup", env)
            finish(proc)
            setups.append((ready, slow))
        slow = slowdown()
        proc, ready = spawn(workload, seed, seconds, "measure", env)
        setups.append((ready, slow))
        res = finish(proc)
    if res is None:
        raise BenchError("worker printed no result")
    verdicts = res["verdicts"]
    res["workload"] = workload
    # an op fails if it raises or its output is wrong; a report that verify
    # rightly rejects is a correct output and is counted as rejected instead
    res["failed"] = verdicts["wrong"]
    res["correct"] = verdicts["wrong"] == 0
    res["provenance"] = {
        "git_commit": git_commit(),
        "qrouter_source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": res.pop("numpy"),
        "blas": res.pop("blas"),
        "blas_threads_cap": threads,
        "nproc": threads,
        "cpu": cpu_model(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "ops_attempted": res["attempted"],
        "ops_failed": res["failed"],
    }
    if trace:
        res["metrics"] = res.pop("layer_metrics")
    else:
        res["setup_samples_s"] = [ready for ready, _ in setups]
        res["setup_slowdowns"] = [slow for _, slow in setups]
        res["metrics"] = {
            "setup_s": statistics.median(ready / slow for ready, slow in setups),
            "ops_per_s": res["ops_per_s"],
            "op_p50_ms": res["op_p50_ms"],
            "op_tail_ms": res["op_tail_ms"],
            "failed_ratio": verdicts["wrong"] / res["attempted"],
            "ok_ratio": verdicts["ok"] / res["attempted"],
            "verify_rejected_ratio": verdicts["rejected"] / res["attempted"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
    return res


# printed with the end-to-end metrics but not in BENCHMARK.json: the probe
# corrects slow stretches of the host, not one op's hiccup, so the tail's
# spread across runs stays wide; failed_ratio is 0 on a correct program, and
# verify_rejected_ratio is 1 - ok_ratio
INFO_UNITS = {"op_tail_ms": "ms", "failed_ratio": "ratio", "verify_rejected_ratio": "ratio"}


def metric_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def print_result(res: dict, units: dict[str, str]) -> None:
    m = res["metrics"]
    prov = res["provenance"]
    print(
        f"== {res['workload']}  seed {prov['seed']}, {prov['seconds']:g} s, "
        f"closed loop, 1 client, BLAS threads {prov['blas_threads_cap']}; {res['size']}"
    )

    def line(name, note=""):
        unit = units.get(name) or INFO_UNITS[name]
        print(f"  {name:<46} {m[name]:>14.6g} {unit:<6} {note}")

    if prov["trace"]:
        print(
            f"  traced: {res['blocks']} blocks of {res['ops_per_block']} ops "
            f"(one input cycle, untraced then traced); exact counts repeat across "
            f"blocks: {res['exact_counts_repeat']}"
        )
        for layer, moves in LAYER_MAP.items():
            print(f"  [{layer}] -> {moves}")
            for name in m:
                if name.startswith(layer + "."):
                    line(name)
    else:
        samples = res["setup_samples_s"]
        slows = res["setup_slowdowns"]
        v = res["verdicts"]
        n = res["attempted"]
        print(
            f"  times are scaled to the reference machine speed (bench/probe.py); the machine "
            f"ran {res['slowdown']:.3g}x slower during the ops, {min(slows):.3g}..{max(slows):.3g}x "
            "during set-up"
        )
        line(
            "setup_s",
            f"median of {len(samples)} set-ups; unscaled {min(samples):.3f} .. {max(samples):.3f}",
        )
        line("ops_per_s", f"{n} ops in {res['wall_s']:.1f} s; unscaled {res['run_ops_per_s']:.4g}")
        line("op_p50_ms", f"unscaled {res['run_p50_ms']:.4g}")
        line(
            "op_tail_ms",
            f"p{res['op_tail_pct']:g} of the whole run, {res['op_tail_beyond']} samples "
            f"beyond it, of {n}; informational, not gated",
        )
        line("failed_ratio", f"{v['wrong']} of {n} ops raised or gave a wrong output")
        line("ok_ratio", f"{v['ok']} of {n} ops passed the program's own acceptance check")
        line(
            "verify_rejected_ratio",
            f"{v['rejected']} of {n} reports rightly rejected by verify "
            "(known device-run baseline; not failures)",
        )
        line("peak_rss_mb")
    for err in res["errors"]:
        print(err, file=sys.stderr)
    print("provenance " + json.dumps(prov))
    if not prov["trace"]:
        print(
            "fingerprints "
            + json.dumps({"outputs_sha256": res["outputs_sha256"], "reference": res["reference"]})
        )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qrouter" / "__init__.py").is_file():
        print(f"error: no qrouter sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    units = metric_units()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 1
        print_result(res, units)
        tag = f"{name}-seed{args.seed}-trace{args.trace}"
        (OUT / f"{tag}.json").write_text(json.dumps(res, indent=2) + "\n")
        results.append(res)
    last = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    for r in results:
        metrics = {
            k: {"value": v, "unit": units[k]} for k, v in r["metrics"].items() if k in units
        }
        if len(results) == 1:
            last["metrics"] = metrics
        else:
            last["metrics"][r["workload"]] = metrics
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
