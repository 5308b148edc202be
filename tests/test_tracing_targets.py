"""The benchmark's tracer (``bench/tracing.py``) wraps qrouter functions by name.

A rename or deletion under ``src/`` that leaves one of those names dangling
breaks ``bench/run.py --trace 1``; this test catches it in the main suite.
"""

from qrouter.gates import Circuit

import importlib.util
from pathlib import Path


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("qrouter_bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = load_tracing()
    missing = [
        name
        for name, module, attr, _ in tracing.TARGETS
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
    assert not tracing.installed()


def test_gate_count_method_resolves():
    # the tracer's one call outside TARGETS: it counts a circuit's gates with it
    assert callable(getattr(Circuit, "gate_instructions", None))
