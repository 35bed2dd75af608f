"""Timings of free_basis_verify on the free_basis workload's templates, for one or more source trees.

    python3 bench/free_basis_ops.py [--rounds R] TREE [TREE ...] > timings.json

Each TREE is a checkout (a directory holding ``src/modforms``).  Every round
runs one fresh process per tree, with ``PYTHONPATH=TREE/src``, and the trees
take turns at going first, so two trees meet the same phases of a shared
machine.  In its process each case is timed as the minimum over repeated
calls (at least 5, until about 0.2 s has been spent, at most 200).  Only
``free_basis_verify`` is timed; the generators are built before, through the
public API, and one untimed call fills the library's caches.  The output
holds every round's minimum per tree and case and, per case, the minimum
over the rounds.

Cases, as the workload draws them (``perfbench/workloads.py``, ``Sizes.fb``):

* ``free``: F, DF, ..., D^(p-1)F of the fundamental system at each
  (N, k_max) level of its order, for one low- and one high-height exponent
  set of orders 2 and 3 and one set of order 1 (all with k_0 >= 0);
* ``partial``: the proper sub-towers [F] and [F, DF] of each order-3 set at
  its first level, free of rank 1 and 2 for a rep of dimension 3;
* ``dependent``: the negative control [F, Q F] at the first level of each
  order, with k_max raised to k_0 + 4, which must raise DependentGenerators
  at k_0 + 4;
* ``criterion_9``: ``free_basis_verify([F, DF], 60, 64)`` for (0, 5/6).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

#: Exponent sets in twelfths, by order; orders 2 and 3 list a low- and a high-height set.
SETS = {1: [(6,)], 2: [(0, 2), (0, 10)], 3: [(1, 5, 9), (0, 2, 7)]}
#: (N, k_max) levels per order, the workload's.
LEVELS = {1: ((32, 24), (40, 28)), 2: ((24, 20), (32, 24)), 3: ((20, 16), (24, 20))}


def min_time(fn, budget=0.2):
    times = []
    while len(times) < 5 or (len(times) < 200 and sum(times) < budget):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def cases():
    """(name, thunk) for every case; each thunk runs one free_basis_verify and checks its verdict."""
    from modforms.classical import eisenstein
    from modforms.errors import DependentGenerators
    from modforms.mlde import fundamental_system, mlde_from_exponents
    from modforms.structure import free_basis_verify
    from modforms.vvmf import module_action, serre_vvmf

    def tower(twelfths, n):
        eq = mlde_from_exponents([Fraction(i, 12) for i in twelfths])
        gens = [fundamental_system(eq, n)]
        for _ in twelfths[1:]:
            gens.append(serre_vvmf(gens[-1]))
        return eq, gens

    def free(gens, k_max, n):
        def run():
            report = free_basis_verify(gens, k_max, n)
            assert report.ok and report.rank == len(gens)
        return run

    def dependent(gens, k_max, n, weight):
        def run():
            try:
                free_basis_verify(gens, k_max, n)
            except DependentGenerators as err:
                assert err.weight == weight
            else:
                raise AssertionError("[F, Q F] passed as free")
        return run

    out = []
    for p, sets in SETS.items():
        for twelfths in sets:
            label = ",".join(map(str, twelfths))
            for n, k_max in LEVELS[p]:
                _, gens = tower(twelfths, n)
                out.append((f"free p{p} ({label})/12 N{n} k{k_max}", free(gens, k_max, n)))
        n, k_max = LEVELS[p][0]
        if p == 3:
            for twelfths in sets:
                _, gens = tower(twelfths, n)
                label = ",".join(map(str, twelfths))
                for r in (1, 2):
                    out.append((f"partial r{r} p{p} ({label})/12 N{n} k{k_max}", free(gens[:r], k_max, n)))
        eq, gens = tower(sets[0], n)
        pair = [gens[0], module_action(eisenstein("Q", n), 4, gens[0])]
        label = ",".join(map(str, sets[0]))
        k_max = max(k_max, eq.weight + 4)
        out.append((f"dependent p{p} ({label})/12 N{n} k{k_max}", dependent(pair, k_max, n, eq.weight + 4)))
    _, gens = tower((0, 10), 64)
    out.append(("criterion_9 (0,10)/12 N64 k60", free(gens[:2], 60, 64)))
    return out


def child():
    result = {}
    for name, fn in cases():
        fn()
        result[name] = min_time(fn)
    print(json.dumps(result))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("trees", nargs="*", type=Path)
    args = parser.parse_args()
    if args.child:
        child()
        return
    if not args.trees:
        parser.error("name at least one tree")
    rounds = []
    for r in range(args.rounds):
        order = args.trees[r % len(args.trees):] + args.trees[: r % len(args.trees)]
        row = {}
        for tree in order:
            env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
            done = subprocess.run([sys.executable, __file__, "--child"], env=env, check=True,
                                  capture_output=True, text=True)
            row[str(tree)] = json.loads(done.stdout)
        rounds.append({"order": [str(t) for t in order], "s": row})
        print(json.dumps({"round": r, "order": rounds[-1]["order"]}), file=sys.stderr)
    names = list(rounds[0]["s"][str(args.trees[0])])
    best = {name: {str(t): min(rd["s"][str(t)][name] for rd in rounds) for t in args.trees} for name in names}
    out = {"python": platform.python_version(), "machine": platform.machine(), "rounds": rounds, "min_s": best}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
