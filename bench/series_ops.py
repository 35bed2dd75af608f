"""Timings of the q-series operations at several truncations, paired across source trees by ``harness``.

    python3 bench/series_ops.py [--rounds R] TREE [TREE ...] > timings.json

``SIZES`` runs from the short products of a few terms (N >= 3, so that
``from_qexpansion`` of M_40, of dimension 4, is determined) to N 512.  At
every N it times ``*``, ``+``, ``scale``, ``theta``, ``to_qexpansion`` and
``serre_derivative`` on two operand families:

* ``integral``: E4 * E6, E4 + E6, E4 scaled by -1/6, theta of eta^13
  (leading exponent 13/24), and the Serre derivative of eta^13 at weight
  13/2 (checked to vanish);
* ``rational``: F and theta F for the first component F of the fundamental
  system of the MLDE with exponents (0, 5/6), whose coefficients have
  hundreds to thousands of bits; F * theta F, F + theta F, F scaled by -1/6,
  theta F and the Serre derivative of F at weight 4.

The records' own costs are timed too: ``==``, ``hash`` and ``_from_ints`` of
E4 at every N (``==`` against an equal copy with its own numerator tuple),
and, once, the init, ``hash`` and ``==`` of the coefficient Q of the MLDE
with exponents (0, 5/6) and a hit of ``_theta_form``'s cache at N 64 for its
operator, looked up with equal but freshly built terms (checked to return the
first build itself).  These operations take well under a microsecond, so each
timed call of a record case makes ``LOOPS`` of them (``looped``).

``to_qexpansion`` maps the weight-40 element m = sum Q^u R^v / (1 + u + 2v)
of M_40 (every monomial) to a series, ``from_qexpansion`` maps that series
back to m (checked), and ``delta`` builds the discriminant; these cases have
no family and run with warm caches.  The ``cold`` cases of ``to_qexpansion``
and ``delta`` clear every cache in the library before each call, untimed,
the way ``perfbench``'s ``Library.clear_caches`` does: every ``modforms``
module attribute that has, or wraps a function that has, ``cache_clear``.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import harness
from harness import Case

SIZES = (4, 8, 15, 64, 256, 512)
LOOPS = 1000


def clear_caches():
    for name, mod in list(sys.modules.items()):
        if name.startswith("modforms"):
            for obj in list(vars(mod).values()):
                while obj is not None and not hasattr(obj, "cache_clear"):
                    obj = getattr(obj, "__wrapped__", None)
                if obj is not None:
                    obj.cache_clear()


def looped(op):
    """A call that makes op() LOOPS times and returns its last result."""

    def run():
        for _ in range(LOOPS - 1):
            op()
        return op()

    return run


def cases():
    from modforms.classical import (
        PolynomialQR,
        _theta_form,
        delta,
        eisenstein,
        eta_power,
        from_qexpansion,
        monomial_basis,
        serre_derivative,
        to_qexpansion,
    )
    from modforms.mlde import fundamental_system, mlde_from_exponents
    from modforms.qseries import QExpansion

    m = PolynomialQR.make(40, {(u, v): Fraction(1, 1 + u + 2 * v) for u, v in monomial_basis(40)})
    for n in SIZES:
        e4, e6, eta13 = eisenstein("Q", n), eisenstein("R", n), eta_power(13, n)
        f = fundamental_system(mlde_from_exponents([0, Fraction(5, 6)]), n).components[0]
        g = f.theta()
        f40 = to_qexpansion(m, n)
        yield Case(f"mul integral N{n}", lambda: e4 * e6)
        yield Case(f"mul rational N{n}", lambda: f * g)
        yield Case(f"add integral N{n}", lambda: e4 + e6)
        yield Case(f"add rational N{n}", lambda: f + g)
        yield Case(f"scale integral N{n}", lambda: e4.scale(Fraction(-1, 6)))
        yield Case(f"scale rational N{n}", lambda: f.scale(Fraction(-1, 6)))
        yield Case(f"theta integral N{n}", eta13.theta)
        yield Case(f"theta rational N{n}", f.theta)
        yield Case(
            f"serre_derivative integral N{n}",
            lambda: serre_derivative(eta13, Fraction(13, 2)),
            check=lambda out: out.is_zero,
        )
        yield Case(f"serre_derivative rational N{n}", lambda: serre_derivative(f, 4))
        yield Case(f"to_qexpansion N{n}", lambda: to_qexpansion(m, n))
        yield Case(f"from_qexpansion N{n}", lambda: from_qexpansion(f40, 40), check=lambda out: out == m)
        yield Case(f"delta N{n}", lambda: delta(n))
        yield Case(f"to_qexpansion cold N{n}", lambda: to_qexpansion(m, n), before=clear_caches)
        yield Case(f"delta cold N{n}", lambda: delta(n), before=clear_caches)
        e4_copy = QExpansion._from_ints(e4.leading, list(e4.nums), e4.den)
        yield Case(f"series == N{n}", looped(lambda: e4 == e4_copy), check=bool)
        yield Case(f"series hash N{n}", looped(lambda: hash(e4)))
        yield Case(f"series _from_ints N{n}", looped(lambda: QExpansion._from_ints(e4.leading, e4.nums, e4.den)))
    equation = mlde_from_exponents([0, Fraction(5, 6)])
    g = equation.coeffs[0]
    g_copy = PolynomialQR(g.weight, tuple(list(g.coords)))
    yield Case("polynomial init", looped(lambda: PolynomialQR(g.weight, g.coords)))
    yield Case("polynomial hash", looped(lambda: hash(g)))
    yield Case("polynomial ==", looped(lambda: g == g_copy), check=bool)
    built = _theta_form(equation.to_skew().terms, equation.weight, 64)
    terms = equation.to_skew().terms
    hit = looped(lambda: _theta_form(terms, equation.weight, 64))
    yield Case("theta_form cache hit N64", hit, check=lambda out: out is built)


if __name__ == "__main__":
    harness.main(cases)
