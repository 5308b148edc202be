"""The estimator's calibration: ``qrouter run``'s fidelity estimate against the
exact fidelity of the state that it samples.

Each router experiment runs as the device experiment does: transpiled to
ibmqx4 with layout 2,0,1 and sampled on the 63 literal settings
(``--settings-per-observable``), under ibmqx4 noise and without noise, at
seeds 0-199 fixed before any run. The exact fidelity is the same run's with
``--tomography none``.

    python tests/calibration.py

prints, for each experiment and noise, the exact fidelity, the mean and SD of
the 200 estimates, z = (mean - exact) / (SD / sqrt(200)), and the share of
estimates below 0.90. ``tests/test_calibration.py`` asserts |z| <= 4 for the
noisy routers, a bound that the central limit theorem sets before the run,
and for the pure noiseless states, whose estimate the projection onto
physical states biases low, only that each estimate is at least 0.98.
"""

from __future__ import annotations

import sys

import numpy as np

from qrouter.cli import build_parser, execute, spec_from_args
from qrouter.gates import ROUTER_EXPERIMENTS

SEEDS = range(200)
Z_MAX = 4.0  # |mean - exact| <= Z_MAX * SD / sqrt(len(SEEDS))


def sweep(experiment: str, noise: str) -> tuple[float, np.ndarray]:
    """The exact fidelity of ``experiment`` under ``noise`` (none or ibmqx4)
    and the estimate at each of ``SEEDS``; nothing is written."""
    argv = ["run", "--experiment", experiment, "--noise", noise, "--transpile", "ibmqx4",
            "--layout", "2,0,1", "--settings-per-observable", "--out", "unwritten.json"]
    parser = build_parser()
    exact = execute(spec_from_args(parser.parse_args([*argv, "--tomography", "none"])))
    spec = spec_from_args(parser.parse_args(argv))
    estimates = [
        execute(spec._replace(spec=spec.spec._replace(seed=seed)))[3]["fidelity"]
        for seed in SEEDS
    ]
    return exact[3]["fidelity"], np.array(estimates)


def z_score(exact: float, estimates: np.ndarray) -> float:
    """How many standard errors the mean estimate lies from ``exact``."""
    return (estimates.mean() - exact) / (estimates.std(ddof=1) / np.sqrt(len(estimates)))


def main() -> int:
    print(f"{'experiment':22} {'noise':7} {'exact':>8} {'mean':>8} {'SD':>8} {'z':>6}  below 0.90")
    for experiment in sorted(ROUTER_EXPERIMENTS):
        for noise in ("ibmqx4", "none"):
            exact, est = sweep(experiment, noise)
            print(f"{experiment:22} {noise:7} {exact:8.5f} {est.mean():8.5f} "
                  f"{est.std(ddof=1):8.5f} {z_score(exact, est):+6.2f}  {np.mean(est < 0.90):.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
