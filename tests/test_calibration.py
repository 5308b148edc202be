"""The estimator centres on the exact fidelity (``tests/calibration.py``)."""

import numpy as np
import pytest

from .calibration import SEEDS, Z_MAX, sweep, z_score

EXPERIMENTS = ["router-control0", "router-control1", "router-superposition"]


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_noisy_estimate_centres_on_the_exact_fidelity(experiment):
    exact, estimates = sweep(experiment, "ibmqx4")
    assert len(estimates) == len(SEEDS) == 200
    bound = Z_MAX * estimates.std(ddof=1) / np.sqrt(len(estimates))
    assert abs(estimates.mean() - exact) <= bound, z_score(exact, estimates)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_noiseless_estimates_keep_the_documented_floor(experiment):
    exact, estimates = sweep(experiment, "none")
    assert exact == pytest.approx(1.0, abs=1e-12)
    assert estimates.min() >= 0.98
