"""Machine-speed probe: a fixed kernel outside qrouter, timed beside each op.

Other tenants of a shared host slow the whole machine down, by up to 1.6x, for
stretches of seconds to minutes. The probe slows down with it. An op's latency
divided by the probe's latency next to it therefore measures the program, not
the neighbours. Multiplied by REFERENCE_MS, the probe's undisturbed time on the
machine the benchmark was tuned on, it reads as milliseconds at that speed.

The kernel mixes what qrouter's ops do: small complex numpy products, a
Hermitian eigensolve and interpreted Python.
"""

from __future__ import annotations

import time

import numpy as np

# undisturbed probe time on a 2-vCPU Intel Xeon VM, CPython 3.11, numpy 2.4.6
REFERENCE_MS = 1.75

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((32, 32)) + 1j * _rng.standard_normal((32, 32))
_H = _A + _A.conj().T


def _kernel() -> float:
    x = _H
    acc = 0.0
    for _ in range(20):
        x = (x @ _H) / 40.0
        acc += float(np.linalg.eigvalsh(_H)[0])
    s = 0
    for k in range(3000):
        s += k * k % 7
    return acc + s


def time_ms() -> float:
    """Run the kernel once; return its duration in ms."""
    t0 = time.perf_counter_ns()
    _kernel()
    return (time.perf_counter_ns() - t0) / 1e6


_kernel()  # warm numpy's first-call paths
