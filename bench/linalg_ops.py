"""Timings of exact rank and of from_qexpansion at several truncations.

    PYTHONPATH=src python3 bench/linalg_ops.py > timings.json

Point PYTHONPATH at any source tree to time it.  For every truncation N in
``SIZES`` it times ``from_qexpansion``, families ``M40`` and ``M120``: the
series through q^N of sum Q^u R^v / (1 + u + 2v) over every monomial of
M_w, for w = 40 and 120, mapped back to that element (shape: N + 1 checked
coefficients by dim M_w).

At one N each, family ``delta3`` (N 64) and ``delta4`` (N 128) time the
dependent sweep of ``free_basis_verify``: [F, DF, Delta^3 F] for
(0, 1/12, 2/12), which raises DependentGenerators(35), and [F, Delta^4 F]
for (0, 5/6), which raises DependentGenerators(52).  Op ``rank`` ranks
every matrix of the sweep, one per weight up to the dependent one; op
``echelon`` does the same without the column-gcd pass of ``rank`` (the
private ``linalg._echelon`` on copies); op ``free_basis_verify`` times the
whole call.  It also times criterion 9, ``free_basis_verify([F, DF], 60,
64)``.  Every time is the median of runs repeated until about 0.5 s has
been spent (at least 3, at most 200).
"""

from __future__ import annotations

import json
import math
import platform
import statistics
import sys
import time
from fractions import Fraction

from modforms.classical import PolynomialQR, eta_power, from_qexpansion, monomial_basis, to_qexpansion
from modforms.errors import DependentGenerators
from modforms.linalg import _echelon, rank
from modforms.mlde import fundamental_system, mlde_from_exponents
from modforms.structure import free_basis_verify
from modforms.vvmf import module_action, serre_vvmf

SIZES = (64, 128, 256, 512)
#: N -> (family, exponents, length of the tower prefix F, DF, ..., power j of Delta^j F, dependent weight)
SWEEPS = {
    64: ("delta3", [0, Fraction(1, 12), Fraction(2, 12)], 2, 3, 35),
    128: ("delta4", [0, Fraction(5, 6)], 1, 4, 52),
}


def median_time(fn, budget=0.5):
    times = []
    while len(times) < 3 or (len(times) < 200 and sum(times) < budget):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def weight_rows(gens, w, n):
    """The int rows free_basis_verify hands to rank at weight w (components leading at their lattice base).

    Slot j of a row holds the coefficients of Q^u R^v f_j times the lcm of slot j's
    denominators over all generators, the same ints the library builds.
    """
    lead = [min(g.components[j].leading for g in gens) for j in range(gens[0].p)]
    dens = [math.lcm(*(g.components[j].den for g in gens)) for j in range(gens[0].p)]
    rows = []
    for g in gens:
        if w < g.weight or (w - g.weight) % 2:
            continue
        for u, v in monomial_basis(w - g.weight):
            mono = to_qexpansion(PolynomialQR.monomial(u, v), n)
            row = []
            for f, low, den in zip(g.components, lead, dens):
                p = mono * f  # p.den divides f.den, which divides den
                zeros = min(int(p.leading - low), n + 1)
                row += [0] * zeros + [x * (den // p.den) for x in p.nums[: n + 1 - zeros]]
            rows.append(row)
    return rows


def tower(exponents, n):
    """F, DF, ..., D^(p-1)F for the fundamental system with the given exponents."""
    gens = [fundamental_system(mlde_from_exponents(exponents), n)]
    for _ in exponents[1:]:
        gens.append(serre_vvmf(gens[-1]))
    return gens


def weight_form(w, n):
    """sum Q^u R^v / (1 + u + 2v) over the monomials of M_w, and its series through q^n."""
    m = PolynomialQR.make(w, {(u, v): Fraction(1, 1 + u + 2 * v) for u, v in monomial_basis(w)})
    return m, to_qexpansion(m, n)


def sweep(n):
    """The generators of the dependent sweep at N n, its dependent weight, and the matrix of every weight up to it."""
    family, exponents, prefix, power, dependent = SWEEPS[n]
    gens = tower(exponents, n)[:prefix]
    gens.append(module_action(eta_power(24 * power, n), 12 * power, gens[0]))  # Delta = eta^24
    low = min(g.weight for g in gens)
    mats = [m for m in (weight_rows(gens, w, n) for w in range(low, dependent + 1)) if m]
    assert [rank(m) < len(m) for m in mats] == [False] * (len(mats) - 1) + [True], family
    return family, gens, dependent, mats


def verify_dependent(gens, dependent, n):
    try:
        free_basis_verify(gens, dependent, n)
    except DependentGenerators as err:
        assert err.weight == dependent, err
    else:
        raise AssertionError("the sweep must raise DependentGenerators")


def cases(n):
    if n in SWEEPS:
        family, gens, dependent, mats = sweep(n)
        shape = f"{len(mats)} up to {max(map(len, mats))}x{len(mats[0][0])}"
        yield "rank", family, shape, lambda: [rank(m) for m in mats]
        yield "echelon", family, shape, lambda: [_echelon([list(r) for r in m]) for m in mats]
        yield "free_basis_verify", family, shape, lambda: verify_dependent(gens, dependent, n)
    for w in (40, 120):
        m, f = weight_form(w, n)
        assert from_qexpansion(f, w) == m
        yield "from_qexpansion", f"M{w}", f"{n + 1}x{len(m.coords)}", lambda f=f, w=w: from_qexpansion(f, w)


def main():
    rows = []
    for n in SIZES:
        for op, family, shape, fn in cases(n):
            rows.append({"op": op, "family": family, "n": n, "shape": shape, "s": median_time(fn)})
            print(json.dumps(rows[-1]), file=sys.stderr)
    gens = tower([0, Fraction(5, 6)], 64)
    crit9 = median_time(lambda: free_basis_verify(gens, 60, 64), budget=3.0)
    print(json.dumps({"criterion_9_s": crit9}), file=sys.stderr)
    out = {"python": platform.python_version(), "machine": platform.machine(), "rows": rows, "criterion_9_s": crit9}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
