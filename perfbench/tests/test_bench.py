"""Tests of the benchmark itself: python3 -m pytest -q perfbench/tests"""

import argparse
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(workload, trace, seed=3):
    args = argparse.Namespace(seed=seed, seconds=0.5, trace=trace)
    return run.run_workload(workload, args, workloads.Sizes.tiny())


def test_self_times_on_a_synthetic_tree():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.child", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["b.overlap", 6.0, 8.0, 3],
        ["b.overlap2", 7.0, 8.5, 3],
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 1.5, 2.0, 1.5])


def test_metric_names_match_benchmark_json():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_same_seed_same_ops():
    sizes = workloads.Sizes()
    for w in workloads.WORKLOADS:
        first = workloads.make_ops(w, 11, sizes)
        assert workloads.op_digest(first) == workloads.op_digest(workloads.make_ops(w, 11, sizes))
        assert workloads.op_digest(first) != workloads.op_digest(workloads.make_ops(w, 12, sizes))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run(workload):
    rec, result = tiny_run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, rec["failures"]
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["metrics"]["latency_p50_s"]["value"] == pytest.approx(rec["wall"]["latency_p50_s"] * rec["speed_scale"])
    assert result["metrics"]["setup_s"]["value"] == pytest.approx(rec["wall"]["setup_s"] * rec["speed_scale"])
    assert rec["by_n"] and rec["op_digest"] and len(rec["op_n"]) == result["attempted"]
    # the timed phase ends on a cycle boundary
    ends = list(itertools.accumulate(map(len, workloads.make_cycles(workload, 3, workloads.Sizes.tiny()))))
    assert result["attempted"] % ends[-1] in [0, *ends]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run(workload):
    rec, result = tiny_run(workload, trace=1)
    assert result["correct"] and result["failed"] == 0, rec["failures"]
    # three passes over a seed-fixed op list, however fast the ops run
    traced_ops = workloads.make_ops(workload, 3, workloads.Sizes.tiny(), cycles=workloads.TRACE_CYCLES[workload])
    assert result["attempted"] == 3 * len(traced_ops)
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert 0 < rec["layer_self_sum_s"] <= rec["traced_wall_s"]
    assert result["metrics"]["trace_overhead_ratio"]["value"] > 0
    called = {
        "mlde": "mlde.solve_frobenius.calls",
        "free_basis": "structure.free_basis_verify.calls",
        "series": "qseries.mul.calls",
        "cli": "serialize.bytes_out",
    }[workload]
    assert result["metrics"][called]["value"] > 0


def test_wrong_expected_value_is_a_failure(monkeypatch):
    good = reference.euler_power
    monkeypatch.setattr(reference, "euler_power", lambda h, terms: [x + (n == 3) for n, x in enumerate(good(h, terms))])
    rec, result = tiny_run("series", trace=0)
    assert not result["correct"] and result["failed"] > 0
    assert rec["fail_ratio"] == result["failed"] / result["attempted"] > 0
    assert "check failed" in rec["failures"][0]


def test_command_line_result_line():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "series", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.units("end_to_end")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mlde", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0 and out.stdout == ""
