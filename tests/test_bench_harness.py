"""The paired timing driver of bench/harness.py, on a script with one trivial case."""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SCRIPT = '''"""One trivial case."""
import harness
from harness import Case


def cases():
    import modforms
    yield Case("sum", lambda: sum(range(10)), check=lambda out: out == {expected} and modforms.__file__)


if __name__ == "__main__":
    harness.main(cases)
'''


def run_script(tmp_path, expected):
    script = tmp_path / "one_case.py"
    script.write_text(SCRIPT.format(expected=expected))
    env = {**os.environ, "PYTHONPATH": str(REPO / "bench")}
    argv = [sys.executable, str(script), "--rounds", "2", str(REPO), str(REPO)]
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)


def test_harness_pairs_trees_round_by_round(tmp_path):
    done = run_script(tmp_path, 45)
    assert done.returncode == 0, done.stderr
    assert [json.loads(line)["round"] for line in done.stderr.splitlines()] == [0, 1]
    out = json.loads(done.stdout)
    assert out["trees"] == [str(REPO), str(REPO)]
    assert out["orders"] == [[0, 1], [1, 0]]  # the trees take turns at going first
    case = out["cases"]["sum"]
    for row in case["trees"]:
        assert len(row["times_s"]) == 2 and all(t > 0 for t in row["times_s"])
        assert row["min_s"] == min(row["times_s"])
        assert row["median_s"] == statistics.median(row["times_s"])
        # the check ran in the child, which loaded the library from TREE/src
        assert row["checked"] == str(REPO / "src" / "modforms" / "__init__.py")
    first, second = case["trees"]
    assert case["over_first_tree"] == [
        {"min_s": 1.0, "median_s": 1.0},
        {"min_s": second["min_s"] / first["min_s"], "median_s": second["median_s"] / first["median_s"]},
    ]
    # each round's time over the first tree's in the same round
    assert case["rounds_over_first_tree"][0] == {"ratios": [1.0, 1.0], "median": 1.0, "min": 1.0, "max": 1.0}
    paired = [b / a for a, b in zip(first["times_s"], second["times_s"])]
    assert case["rounds_over_first_tree"][1] == {
        "ratios": paired, "median": statistics.median(paired), "min": min(paired), "max": max(paired),
    }


def test_harness_fails_on_a_failed_check(tmp_path):
    done = run_script(tmp_path, 46)
    assert done.returncode != 0
    assert "check failed: sum" in done.stderr
    assert done.stdout == ""
