"""Timings of free_basis_verify on the free_basis workload's templates, paired across source trees by ``harness``.

    python3 bench/free_basis_ops.py [--rounds R] TREE [TREE ...] > timings.json

Only ``free_basis_verify`` is timed; the generators are built before, through
the public API.  Cases, as the workload draws them (``perfbench/workloads.py``,
``Sizes.fb``):

* ``free``: F, DF, ..., D^(p-1)F of the fundamental system at each
  (N, k_max) level of its order, for one low- and one high-height exponent
  set of orders 2 and 3 and one set of order 1 (all with k_0 >= 0), checked
  free of full rank;
* ``partial``: the proper sub-towers [F] and [F, DF] of each order-3 set at
  its first level, checked free of rank 1 and 2 for a rep of dimension 3;
* ``dependent``: the negative control [F, Q F] at the first level of each
  order, with k_max raised to k_0 + 4, checked to raise DependentGenerators
  at k_0 + 4;
* ``criterion_9``: ``free_basis_verify([F, DF], 60, 64)`` for (0, 5/6).
"""

from __future__ import annotations

from fractions import Fraction

import harness
from harness import Case

#: Exponent sets in twelfths, by order; orders 2 and 3 list a low- and a high-height set.
SETS = {1: [(6,)], 2: [(0, 2), (0, 10)], 3: [(1, 5, 9), (0, 2, 7)]}
#: (N, k_max) levels per order, the workload's.
LEVELS = {1: ((32, 24), (40, 28)), 2: ((24, 20), (32, 24)), 3: ((20, 16), (24, 20))}


def tower(twelfths, n):
    """F, DF, ..., D^(p-1)F for the fundamental system with exponents i/12, i in twelfths, through q^n."""
    from modforms.mlde import fundamental_system, mlde_from_exponents
    from modforms.vvmf import serre_vvmf

    gens = [fundamental_system(mlde_from_exponents([Fraction(i, 12) for i in twelfths]), n)]
    for _ in twelfths[1:]:
        gens.append(serre_vvmf(gens[-1]))
    return gens


def raised_weight(gens, k_max, n):
    """The weight DependentGenerators names for free_basis_verify(gens, k_max, n), or None if it returns."""
    from modforms.errors import DependentGenerators
    from modforms.structure import free_basis_verify

    try:
        free_basis_verify(gens, k_max, n)
    except DependentGenerators as err:
        return err.weight
    return None


def cases():
    from modforms.classical import eisenstein
    from modforms.structure import free_basis_verify
    from modforms.vvmf import module_action

    def free(name, gens, k_max, n):
        return Case(
            name,
            lambda: free_basis_verify(gens, k_max, n),
            check=lambda report: report.ok and report.rank == len(gens),
        )

    for p, sets in SETS.items():
        for twelfths in sets:
            label = ",".join(map(str, twelfths))
            for n, k_max in LEVELS[p]:
                yield free(f"free p{p} ({label})/12 N{n} k{k_max}", tower(twelfths, n), k_max, n)
        n, k_max = LEVELS[p][0]
        if p == 3:
            for twelfths in sets:
                gens = tower(twelfths, n)
                label = ",".join(map(str, twelfths))
                for r in (1, 2):
                    yield free(f"partial r{r} p{p} ({label})/12 N{n} k{k_max}", gens[:r], k_max, n)
        gens = tower(sets[0], n)
        pair = [gens[0], module_action(eisenstein("Q", n), 4, gens[0])]
        label = ",".join(map(str, sets[0]))
        k_max = max(k_max, gens[0].weight + 4)
        yield Case(
            f"dependent p{p} ({label})/12 N{n} k{k_max}",
            lambda: raised_weight(pair, k_max, n),
            check=lambda weight: weight == gens[0].weight + 4,
        )
    yield free("criterion_9 (0,10)/12 N64 k60", tower((0, 10), 64)[:2], 60, 64)


if __name__ == "__main__":
    harness.main(cases)
