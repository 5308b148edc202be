"""One workload in one process, as started by bench/run.py.

    python3 bench/worker.py --workload NAME --seed N --seconds S --mode MODE --out-dir DIR

It imports qrouter from the checkout's ``src/``, builds the workload's inputs
from the seed and runs one warm-up op, then prints ``ready`` (run.py times
set-up up to that line). ``--mode setup`` stops there. ``--mode measure`` runs
ops untraced, closed loop, for S seconds; ``--mode trace`` runs blocks of one
input cycle each, untraced and then traced, until S seconds are used. The
result is one JSON line on stdout. ``--mode reference`` only prints the
outputs of one input cycle at seed 0, the content of bench/reference.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import qrouter  # noqa: E402

if Path(qrouter.__file__).resolve().parent != SRC / "qrouter":
    sys.exit(f"qrouter imported from {qrouter.__file__}, not from {SRC}")

import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10
REFERENCE_SEED = 0
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
KEEP_SPAN_BLOCKS = 3  # spans of later blocks are aggregated, then dropped


def _note(errors: list) -> None:
    if len(errors) < 3:
        errors.append(traceback.format_exc())


def run_op(op, i: int, errors: list):
    """Run ``op(i)``; return (output or None, duration ns)."""
    t0 = time.perf_counter_ns()
    try:
        out = op(i)
    except Exception:
        out = None
        _note(errors)
    return out, time.perf_counter_ns() - t0


def judge(wl, out, errors: list) -> str:
    if out is None:
        return "wrong"
    try:
        return wl.check(out)
    except Exception:
        _note(errors)
        return "wrong"


def tail(latencies_ms: list[float], cap: float):
    """(latency, percentile, samples beyond) at the highest ladder percentile,
    up to ``cap``, that leaves at least MIN_BEYOND samples beyond it."""
    lat = sorted(latencies_ms)
    n = len(lat)
    for pct in [p for p in TAIL_LADDER if p <= cap]:
        rank = max(1, math.ceil(pct / 100.0 * n))  # nearest rank
        if n - rank >= MIN_BEYOND:
            break
    return lat[rank - 1], pct, n - rank


def reference_outputs(name: str, workdir: str) -> list:
    """Outputs of one input cycle at the fixed reference seed."""
    wl = workloads.make(name, REFERENCE_SEED, workdir)
    try:
        records = []
        for i in range(wl.cycle):
            out = wl.op(i)
            if wl.check(out) == "wrong":
                raise RuntimeError(f"reference op {i} failed its check")
            records.append(wl.record(out))
        return records
    finally:
        wl.close()


def compare_reference(records: list, stored: list) -> dict:
    """How far this commit's reference outputs are from the stored ones."""
    pairs = [(a, b) for new, old in zip(records, stored) for a, b in zip(new, old)]
    digests = [a == b for a, b in pairs if isinstance(a, str)]
    drifts = [abs(a - b) for a, b in pairs if not isinstance(a, str)]
    return {
        "identical": records == stored,
        "digests_identical": f"{sum(digests)}/{len(digests)}",
        "max_abs_drift": max(drifts, default=0.0),
    }


def measure(wl, seconds: float) -> dict:
    if tracing.installed():
        raise RuntimeError("tracing wrappers are installed in an untraced run")
    latencies, probes = [], []
    verdicts = {"ok": 0, "rejected": 0, "wrong": 0}
    errors: list[str] = []
    digest = hashlib.sha256()
    first = time.perf_counter_ns()
    deadline = first + int(seconds * 1e9)
    i = 0
    while True:
        start = time.perf_counter_ns()
        if start >= deadline:
            break
        out, dur = run_op(wl.op, i, errors)
        probes.append(probe.time_ms())
        verdict = judge(wl, out, errors)
        verdicts[verdict] += 1
        latencies.append(dur / 1e6)
        if out is not None:
            digest.update(json.dumps(wl.record(out)).encode())
        i += 1
    end = time.perf_counter_ns()
    # on a shared host other tenants slow everything down for seconds to
    # minutes at a time; latencies are scaled by the probe run next to each
    # op to the reference machine speed (bench/probe.py, bench/README.md)
    scaled = [lat / p * probe.REFERENCE_MS for lat, p in zip(latencies, probes)]
    tail_ms, tail_pct, beyond = tail(scaled, wl.tail_pct)
    n = len(latencies)
    return {
        "attempted": n,
        "verdicts": verdicts,
        "errors": errors,
        "wall_s": (end - first) / 1e9,
        "ops_per_s": 1000.0 * sum(probes) / (sum(latencies) * probe.REFERENCE_MS),
        "op_p50_ms": statistics.median(scaled),
        "op_tail_ms": tail_ms,
        "op_tail_pct": tail_pct,
        "op_tail_beyond": beyond,
        "slowdown": statistics.median(probes) / probe.REFERENCE_MS,
        "run_ops_per_s": 1000.0 * n / sum(latencies),
        "run_p50_ms": statistics.median(latencies),
        "outputs_sha256": digest.hexdigest(),
    }


def traced(wl, seconds: float, spans_path: Path) -> dict:
    tracer = tracing.Tracer()
    root = tracer.wrap("bench.op", wl.op)
    verdicts = {"ok": 0, "rejected": 0, "wrong": 0}
    errors: list[str] = []
    blocks, all_spans = [], []
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    while True:
        plain_ns = 0
        for i in range(wl.cycle):
            out, dur = run_op(wl.op, i, errors)
            plain_ns += dur
            verdicts[judge(wl, out, errors)] += 1
        traced_ns = bytes_written = 0
        for i in range(wl.cycle):
            tracer.op_id = len(blocks) * wl.cycle + i
            tracer.install()
            try:
                out, dur = run_op(root, i, errors)
            finally:
                tracer.uninstall()
            traced_ns += dur
            verdicts[judge(wl, out, errors)] += 1
            if out is not None:
                bytes_written += out.get("bytes_written", 0)
        spans = tracer.take()
        m = tracing.layer_metrics(spans, wl.cycle)
        m["cli.bytes_written_per_op"] = bytes_written / wl.cycle
        m["trace.overhead_ratio"] = traced_ns / plain_ns - 1.0
        blocks.append(m)
        if len(blocks) <= KEEP_SPAN_BLOCKS:
            all_spans.extend(spans)
        if time.perf_counter_ns() >= deadline:
            break
    tracing.dump(all_spans, spans_path)
    names = [m["name"] for m in SPEC["per_layer"]]
    if sorted(names) != sorted(blocks[0]):
        raise RuntimeError("traced metrics do not match BENCHMARK.json per_layer")
    # work counts, which must repeat exactly for a given seed
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
    exact_repeat = all(b[k] == blocks[0][k] for b in blocks for k in exact)
    metrics = {
        k: blocks[0][k] if k in exact else statistics.median(b[k] for b in blocks)
        for k in names
    }
    return {
        "attempted": sum(verdicts.values()),
        "verdicts": verdicts,
        "errors": errors,
        "blocks": len(blocks),
        "ops_per_block": wl.cycle,
        "exact_counts_repeat": exact_repeat,
        "spans_written": len(all_spans),
        "layer_metrics": metrics,
    }


def blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--mode", required=True, choices=["setup", "measure", "trace", "reference"])
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    out_dir = Path(args.out_dir).resolve()
    workdir = str(out_dir / f"work-{os.getpid()}")
    if args.mode == "reference":
        print(json.dumps(reference_outputs(args.workload, workdir)))
        return 0

    wl = workloads.make(args.workload, args.seed, workdir)
    errors: list[str] = []
    out, _ = run_op(wl.op, 0, errors)
    if judge(wl, out, errors) == "wrong":
        print("warm-up op failed its check", *errors, file=sys.stderr)
    print("ready", flush=True)
    if args.mode == "setup":
        wl.close()
        return 0

    try:
        if args.mode == "measure":
            result = measure(wl, args.seconds)
        else:
            spans_path = out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl"
            result = traced(wl, args.seconds, spans_path)
    finally:
        wl.close()

    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=np.__version__,
        blas=blas_name(),
        size=wl.size,
        cycle=wl.cycle,
    )
    if args.mode == "measure":
        stored = json.loads(REFERENCE.read_text()).get(args.workload)
        records = reference_outputs(args.workload, workdir)
        result["reference"] = compare_reference(records, stored) if stored else None
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
