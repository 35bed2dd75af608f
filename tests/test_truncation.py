"""No verdict changes with the truncation N: a fixed grid of bench/truncation_probe.py."""

import importlib.util
from pathlib import Path

PROBE = Path(__file__).resolve().parent.parent / "bench" / "truncation_probe.py"


def load_probe():
    spec = importlib.util.spec_from_file_location("truncation_probe", PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_verdict_changes_with_truncation():
    # 8 generator lists per exponent set (seed 6), words of length <= 3, N 1-12; the grid
    # holds cases where a zero-looking component and a short sweep once gave verdicts
    result = load_probe().probe(seed=6, lists=8)
    assert result["cases"] == 427
    assert result["examples"] == []
