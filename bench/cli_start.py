"""Cold-start wall times of the CLI's README commands, for one or more source trees.

    python3 bench/cli_start.py [--rounds R] TREE [TREE ...] > timings.json

Each TREE is a checkout (a directory holding ``src/modforms``).  Every round
runs each command once per tree, as a fresh ``python -m modforms.cli``
process with ``PYTHONPATH=TREE/src``, and the trees take turns at going
first, so two trees meet the same phases of a shared machine.  A run is
timed from spawn to exit, which counts interpreter start, imports (compiled
from source when ``PYTHONDONTWRITEBYTECODE`` is set and the tree holds no
bytecode), argparse, the computation and the JSON output.  A bare
``python -c pass`` runs in every round too: the floor every command pays.

The commands are the eight of perfbench's cli workload (``cli_argv`` in
``perfbench/workloads.py``), each at the larger of its two sizes
(``Sizes.cli_terms``, ``cli_mlde_terms``, ``cli_basis`` and ``rho_n``).

The output holds, per command and tree, every round's time, their minimum
and median, and the ``modforms`` modules the command loaded (read once, in
an untimed process that runs ``modforms.cli.main`` and lists
``sys.modules``), plus each tree's minimum and median over the first
tree's.
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
from pathlib import Path

COMMANDS = {
    "bare_python": None,
    "qexp_eisenstein": ["qexp", "--form", "Q", "--terms", "80"],
    "qexp_eta": ["qexp", "--form", "eta^13", "--terms", "80"],
    "serre": ["serre", "--form", "delta", "--weight", "12", "--terms", "80"],
    "mlde_solve": ["mlde", "solve", "--exponents", "1/12,5/12,9/12", "--terms", "40"],
    "monodromy": ["monodromy", "--mlde", "0/12,10/12", "--terms", "80", "--tol", "1e-5"],
    "classify2d": ["classify2d", "--a", "10", "--b", "0"],
    "poincare": ["poincare", "--cyclic", "4,2", "--upto", "60"],
    "verify_basis": ["verify-basis", "--mlde", "0/12,10/12", "--kmax", "14", "--terms", "24"],
}

LOADED = (
    "import io, sys\n"
    "from contextlib import redirect_stdout\n"
    "from modforms.cli import main\n"
    "with redirect_stdout(io.StringIO()):\n"
    "    main(sys.argv[1:])\n"
    "print(*sorted(m for m in sys.modules if m.startswith('modforms')))\n"
)


def command(argv):
    return [sys.executable, "-c", "pass"] if argv is None else [sys.executable, "-m", "modforms.cli", *argv]


def wall_time(cmd, env) -> float:
    start = time.perf_counter()
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def loaded_modules(argv, env) -> list[str]:
    if argv is None:
        return []
    done = subprocess.run([sys.executable, "-c", LOADED, *argv], env=env, check=True, capture_output=True, text=True)
    return done.stdout.split()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("trees", nargs="+", type=Path)
    args = parser.parse_args()
    trees = [str(t) for t in args.trees]
    envs = {str(t): dict(os.environ, PYTHONPATH=str(t.resolve() / "src")) for t in args.trees}
    times = {name: {t: [] for t in trees} for name in COMMANDS}
    orders = []
    for r in range(args.rounds):
        order = trees[r % len(trees):] + trees[: r % len(trees)]
        orders.append(order)
        for name, argv in COMMANDS.items():
            for tree in order:
                times[name][tree].append(wall_time(command(argv), envs[tree]))
        print(json.dumps({"round": r, "order": order}), file=sys.stderr)
    out = {}
    for name, argv in COMMANDS.items():
        rows = {
            t: {
                "min_s": min(times[name][t]),
                "median_s": statistics.median(times[name][t]),
                "times_s": times[name][t],
                "modules": loaded_modules(argv, envs[t]),
            }
            for t in trees
        }
        base = rows[trees[0]]
        ratios = {t: {k: rows[t][k] / base[k] for k in ("min_s", "median_s")} for t in trees}
        out[name] = {"argv": argv, "trees": rows, "over_first_tree": ratios}
    print(json.dumps({
        "python": platform.python_version(),
        "machine": platform.machine(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "rounds": args.rounds,
        "orders": orders,
        "commands": out,
    }, indent=1))


if __name__ == "__main__":
    main()
