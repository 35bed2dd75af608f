"""The timer and the tree driver of every timing script in ``bench/``.

A timing script defines ``cases()``, a generator of :class:`Case`, and ends
with ``harness.main(cases)``.  It runs as

    python3 bench/<script>.py [--rounds R] TREE [TREE ...] > timings.json

Each TREE is a checkout (a directory holding ``src/modforms``).  Every round
runs one fresh child process per tree, with ``PYTHONPATH=TREE/src``, and the
trees take turns at going first, so two trees meet the same phases of a
shared machine.  A script imports ``modforms`` inside ``cases``, so only the
children load a tree.

A child times each case as it is drawn, so a case's callables may close over
the generator's loop variables.  It calls ``fn`` once untimed (the warm-up),
then times at least 3 calls, until about 0.2 s has been spent, at most 200;
the case's time in that round is their minimum.  ``before``, if given, runs
untimed ahead of every call.  In the first round each tree's child passes
the warm-up call's result to ``check``, outside the timed region; a falsy
value or an exception stops the run with a nonzero exit.  The check's value
is recorded: ``true``, or what the check returns instead (such as the
modules a command loaded).  Checks run once per tree because some are exact
references that take far longer than the case itself.

The output holds, per case and tree, every round's time, their minimum and
median and the check's value, and each tree's minimum and median over the
first tree's.  Since one unusually fast child can set a tree's minimum, it
also holds, per tree, each round's time over the first tree's time in the
same round, with the median, minimum and maximum of those ratios: the
paired reading, whose spread shows how far one round can mislead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from operator import truediv

Case = namedtuple("Case", "name fn check before", defaults=(None, None))

MIN_CALLS, MAX_CALLS, BUDGET_S = 3, 200, 0.2

#: This interpreter, with -S if it runs without site, so that ``python3 -S`` reaches every child.
PYTHON = [sys.executable, *(["-S"] if sys.flags.no_site else [])]

#: The child's program: argv is the script, the name of its cases function, and "check" or "time".
CHILD = (
    "import runpy, sys\n"
    f"sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})\n"
    "import harness\n"
    "harness.child(runpy.run_path(sys.argv[1])[sys.argv[2]], sys.argv[3] == 'check')\n"
)


def best_time(fn, before=None):
    """The result of an untimed warm-up call of fn, and the least time of the timed calls after it."""
    before = before or (lambda: None)
    before()
    result = fn()
    times = []
    while len(times) < MIN_CALLS or (len(times) < MAX_CALLS and sum(times) < BUDGET_S):
        before()
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return result, min(times)


def child(cases, checking):
    """Print {name: {"s": time, "checked": value}} for every case, checking each when asked."""
    out = {}
    for case in cases():
        if case.name in out:
            raise ValueError(f"two cases are named {case.name!r}")
        result, seconds = best_time(case.fn, case.before)
        checked = None
        if checking and case.check is not None:
            checked = case.check(result)
            if not checked:
                raise SystemExit(f"check failed: {case.name}")
        out[case.name] = {"s": seconds, "checked": checked}
    print(json.dumps(out))


def main(cases):
    """Run the cases of the calling script in every tree, round by round, and print the timings."""
    doc = sys.modules[cases.__module__].__doc__
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("trees", nargs="+")
    args = parser.parse_args()
    script = os.path.abspath(cases.__code__.co_filename)
    runs = [[] for _ in args.trees]  # runs[i]: tree i's child outputs, round by round
    orders = []
    for r in range(args.rounds):
        order = [(r + k) % len(args.trees) for k in range(len(args.trees))]
        for i in order:
            env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(args.trees[i]), "src"))
            argv = [*PYTHON, "-c", CHILD, script, cases.__name__, "check" if r == 0 else "time"]
            done = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True)
            if done.returncode:
                sys.exit(f"{args.trees[i]}: round {r} failed with exit code {done.returncode}")
            runs[i].append(json.loads(done.stdout))
        orders.append(order)
        print(json.dumps({"round": r, "order": [args.trees[i] for i in order]}), file=sys.stderr)
    names = list(runs[0][0])
    if any(list(out) != names for tree_runs in runs for out in tree_runs):
        sys.exit("the trees ran different cases")
    out = {}
    for name in names:
        rows = []
        for tree_runs in runs:
            times = [run[name]["s"] for run in tree_runs]
            checked = tree_runs[0][name]["checked"]
            rows.append({"times_s": times, "min_s": min(times), "median_s": statistics.median(times), "checked": checked})
        ratios = [{k: row[k] / rows[0][k] for k in ("min_s", "median_s")} for row in rows]
        paired = []
        for row in rows:
            by_round = list(map(truediv, row["times_s"], rows[0]["times_s"]))
            spread = {"median": statistics.median(by_round), "min": min(by_round), "max": max(by_round)}
            paired.append({"ratios": by_round, **spread})
        out[name] = {"trees": rows, "over_first_tree": ratios, "rounds_over_first_tree": paired}
    print(json.dumps({
        "python": platform.python_version(),
        "machine": platform.machine(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "trees": args.trees,
        "orders": orders,
        "cases": out,
    }, indent=1))
