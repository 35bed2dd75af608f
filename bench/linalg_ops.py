"""Timings of exact rank and of from_qexpansion at several truncations, paired across source trees by ``harness``.

    python3 bench/linalg_ops.py [--rounds R] TREE [TREE ...] > timings.json

At every N in ``SIZES`` it times ``from_qexpansion``, families ``M40`` and
``M120``: the series through q^N of sum Q^u R^v / (1 + u + 2v) over every
monomial of M_w, for w = 40 and 120, mapped back to that element (checked;
shape: N + 1 checked coefficients by dim M_w).

At one N each, family ``delta3`` (N 64) and ``delta4`` (N 128) time the
dependent sweep of ``free_basis_verify``: [F, DF, Delta^3 F] for
(0, 1/12, 2/12), which raises DependentGenerators(35), and [F, Delta^4 F]
for (0, 5/6), which raises DependentGenerators(52).  Op ``rank`` ranks
every matrix of the sweep, one per weight up to the dependent one (checked:
only the last is rank deficient); op ``echelon`` does the same without the
column-gcd pass of ``rank`` (the private ``linalg._echelon`` on copies); op
``free_basis_verify`` times the whole call (checked: it names the weight).
"""

from __future__ import annotations

import math
from fractions import Fraction

import harness
from free_basis_ops import raised_weight, tower
from harness import Case

SIZES = (64, 128, 256, 512)
#: N -> (family, exponents in twelfths, length of the tower prefix F, DF, ..., power j of Delta^j F, dependent weight)
SWEEPS = {
    64: ("delta3", (0, 1, 2), 2, 3, 35),
    128: ("delta4", (0, 10), 1, 4, 52),
}


def weight_rows(gens, w, n):
    """The int rows free_basis_verify hands to rank at weight w (components leading at their lattice base).

    Slot j of a row holds the coefficients of Q^u R^v f_j times the lcm of slot j's
    denominators over all generators, the same ints the library builds.
    """
    from modforms.classical import PolynomialQR, monomial_basis, to_qexpansion

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


def cases():
    from modforms.classical import PolynomialQR, eta_power, from_qexpansion, monomial_basis, to_qexpansion
    from modforms.linalg import _echelon, rank
    from modforms.vvmf import module_action

    for n in SIZES:
        if n in SWEEPS:
            family, twelfths, prefix, power, dependent = SWEEPS[n]
            gens = tower(twelfths, n)[:prefix]
            gens.append(module_action(eta_power(24 * power, n), 12 * power, gens[0]))  # Delta = eta^24
            low = min(g.weight for g in gens)
            mats = [m for m in (weight_rows(gens, w, n) for w in range(low, dependent + 1)) if m]
            shape = f"{len(mats)} up to {max(map(len, mats))}x{len(mats[0][0])}"
            deficient = [False] * (len(mats) - 1) + [True]
            yield Case(
                f"rank {family} N{n} {shape}",
                lambda: [rank(m) for m in mats],
                check=lambda ranks: [r < len(m) for r, m in zip(ranks, mats)] == deficient,
            )
            yield Case(f"echelon {family} N{n} {shape}", lambda: [_echelon([list(r) for r in m]) for m in mats])
            yield Case(
                f"free_basis_verify {family} N{n} {shape}",
                lambda: raised_weight(gens, dependent, n),
                check=lambda weight: weight == dependent,
            )
        for w in (40, 120):
            m = PolynomialQR.make(w, {(u, v): Fraction(1, 1 + u + 2 * v) for u, v in monomial_basis(w)})
            f = to_qexpansion(m, n)
            yield Case(
                f"from_qexpansion M{w} N{n} {n + 1}x{len(m.coords)}",
                lambda: from_qexpansion(f, w),
                check=lambda out: out == m,
            )


if __name__ == "__main__":
    harness.main(cases)
