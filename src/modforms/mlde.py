"""Modular linear differential equations in the Serre derivative.

An order-p MLDE at weight k_0 is the monic operator

    L = D^p + g_{p-2} D^{p-2} + ... + g_1 D + g_0,   g_j in M_{2(p-j)},

with no D^{p-1} term since M_2 = 0.  Its indicial polynomial at the cusp,
in Newton form on the offsets o_l = (k_0+2l)/12, is

    I(lambda) = prod_{l<p} (lambda - o_l) + sum_j g_j(oo) prod_{l<j} (lambda - o_l),

whose roots are the leading exponents of a fundamental system.  In
mu = 12 lambda the offsets are ints, so `indicial_polynomial` sums int
partial products (`_partial_products`) and divides once per coefficient;
`mlde_from_exponents` inverts it on the same partials.  The rational roots
come from bisection under Descartes' rule of signs (`_rational_roots`): no
factoring and no divisor search, so the time is polynomial in the size of
the coefficients.  Solving and verifying share the operator's theta-form
sum_l h_l theta^l / den on integers (`classical._theta_form`), built once
per fundamental system: the Frobenius recursion is integer dot products
against the h_l, and `verify_solution` applies the form.  The converse
direction rebuilds the operator from prescribed exponents while the
coefficient spaces M_4..M_10 are one-dimensional.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, mul, ne, sub

from . import skew
from .classical import PolynomialQR, _theta_form, monomial_basis
from .errors import (
    IrrationalRoots,
    NonIntegralWeight,
    NotARoot,
    OrderTooLarge,
    Record,
    ResonantRoot,
    RootsNotDistinct,
    RootsOutOfRange,
)
from .linalg import _poly_divmod, _poly_eval, _poly_shift
from .qseries import QExpansion
from .vvmf import VVMF, RepData


def _descartes_signs(poly: list, lo: int, hi: int) -> list:
    """Signs (True for > 0) of the nonzero coefficients of (1 + y)^deg poly((hi + lo y) / (1 + y)).

    Its positive roots are poly's roots in the open interval (lo, hi), and by
    Descartes' rule of signs they number the sign changes of this list less
    an even count: none for no change, exactly one, simple, for one.  The
    first sign is poly's just below hi, the last its sign just above lo.
    """
    scaled = [c * (hi - lo) ** i for i, c in enumerate(_poly_shift(poly, lo))]
    return [c > 0 for c in _poly_shift(scaled[::-1], 1) if c]


def _rational_roots(poly) -> list:
    """All rational roots with multiplicity, sorted; nothing is factored.

    With d the lcm of the denominators of the monic I, J(x) = d^p I(x / d)
    is a monic int polynomial, so its rational roots are integers, and each
    lies below b = 2 max_l 2^ceil(bitlen(J_l) / (p - l)), above the Fujiwara
    bound.  Bisecting (-b, b) keeps an interval while Descartes' rule allows
    a root in it (Collins-Akritas) and tests each integer midpoint exactly.
    An interval with one sign change holds one simple root, so it is halved
    by the sign of J at the midpoint alone.  Each root found is divided out
    as often as it divides.
    """
    work = list(poly)
    while work and not work[-1]:
        work.pop()
    p = len(work) - 1
    if p < 1:
        return []
    work = [Fraction(c) / work[-1] for c in work]
    d = lcm(*(c.denominator for c in work))
    J = [int(c * d ** (p - l)) for l, c in enumerate(work)]
    b = 2 * max(2 ** -(-c.bit_length() // (p - l)) for l, c in enumerate(J[:-1]))
    found, intervals = [], [(-b, b)]
    while intervals:
        lo, hi = intervals.pop()
        if hi - lo < 2:
            continue
        signs = _descartes_signs(J, lo, hi)
        changes = sum(map(ne, signs, signs[1:]))
        if changes == 1:
            # J keeps the sign signs[-1] from lo up to its one root in (lo, hi)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                value = _poly_eval(J, mid)
                if not value:
                    found.append(mid)
                    break
                if (value > 0) == signs[-1]:
                    lo = mid
                else:
                    hi = mid
        elif changes:
            mid = (lo + hi) // 2
            if not _poly_eval(J, mid):
                found.append(mid)
            intervals += [(lo, mid), (mid, hi)]
    roots = []
    for r in found:
        quot, rem = _poly_divmod(J, [-r, 1])
        while not rem[0]:
            roots.append(Fraction(r, d))
            J = quot
            quot, rem = _poly_divmod(J, [-r, 1])
    return sorted(roots)


# -- the equation ------------------------------------------------------------

_ONE = PolynomialQR.monomial(0, 0)


class MLDE(Record):
    """Monic order-p operator at weight k_0; coeffs are g_0..g_{p-2}."""

    __slots__ = ("weight", "order", "coeffs")  # coeffs: PolynomialQR, index j of modular weight 2(order - j)

    @staticmethod
    def make(weight: int, order: int, coeffs) -> MLDE:
        coeffs = tuple(coeffs)
        if order < 1:
            raise ValueError("order must be >= 1")
        if len(coeffs) != max(order - 1, 0):
            raise ValueError(f"order {order} needs {order - 1} coefficients g_0..g_{order - 2}")
        for j, g in enumerate(coeffs):
            want = 2 * (order - j)
            if not g.is_zero and g.weight != want:
                raise ValueError(f"g_{j} must have weight {want}, got {g.weight}")
        if Fraction(weight).denominator != 1:
            raise NonIntegralWeight(f"weight {weight} is not an integer")
        return MLDE(int(weight), order, coeffs)

    def exponent_offsets(self):
        """The cusp exponents (k_0 + 2l)/12 of the iterated Serre derivative."""
        return [Fraction(self.weight + 2 * l, 12) for l in range(self.order)]

    def to_skew(self) -> skew.SkewPolynomial:
        # already in normal form: ascending powers, no zero coefficient
        return skew.SkewPolynomial((*((j, g) for j, g in enumerate(self.coeffs) if g), (self.order, _ONE)))


class IndicialData(Record):
    # poly: Fractions, ascending in lambda; roots: the rational roots with multiplicity, sorted
    __slots__ = ("poly", "roots", "all_rational")


def _partial_products(offsets) -> list:
    """[prod_{l<j} (x - offsets[l]) for j = 0..len(offsets)], ascending, on int offsets."""
    partial = [[1]]
    for w in offsets:
        prev = partial[-1]
        partial.append([a - w * b for a, b in zip([0, *prev], [*prev, 0])])
    return partial


def indicial_polynomial(equation: MLDE) -> IndicialData:
    """Exact indicial polynomial at the cusp, by its Newton form, and its rational roots."""
    p = equation.order
    partial = _partial_products(range(equation.weight, equation.weight + 2 * p, 2))
    consts = [g.constant_term() for g in equation.coeffs]
    d = lcm(*(c.denominator for c in consts))
    # 12^p d I(mu / 12): d P_p + sum_j 12^(p-j) d g_j(oo) P_j, on the int partial products P_j
    acc = [d * x for x in partial[p]]
    for j, c in enumerate(consts):
        acc[: j + 1] = map(add, acc, map(mul, repeat(c.numerator * (d // c.denominator) * 12 ** (p - j)), partial[j]))
    poly = tuple(Fraction(x, d * 12 ** (p - i)) for i, x in enumerate(acc))
    roots = _rational_roots(poly)
    return IndicialData(poly, tuple(roots), len(roots) == p)


def solve_frobenius(equation: MLDE, root, n_terms: int) -> QExpansion:
    """The unique solution q^root (1 + a_1 q + ...) by exact recursion.

    With L = sum_l h_l theta^l / den, coefficient n of L f vanishes when
    a_n = -(sum_l sum_{i<n} h_{l,n-i} (root + i)^l a_i) / (den I(root + n)).
    For root = r/s and a_i = A_i / den_a, column l holds the ints
    (r + s i)^l A_i (column 0 holds the result), so the O(p N^2) work is
    C-level integer dot products.  Raises NotARoot if root misses the indicial
    polynomial and ResonantRoot if I(root + n) vanishes for some 1 <= n <= N.
    """
    root = Fraction(root)
    r, s = root.numerator, root.denominator
    _, h = _theta_form(equation.to_skew().terms, equation.weight, n_terms)
    p = equation.order
    # den s^p I(x / s), an integer polynomial in x
    indicial = [hl[0] * s ** (p - l) for l, hl in enumerate(h)]
    if _poly_eval(indicial, r) != 0:
        raise NotARoot(f"{root} is not an indicial root")
    # column l against s^(p-l) h_l from q^1 on, for each h_l with terms past q^0
    pairs = [(l, [x * s ** (p - l) for x in hl[1:]]) for l, hl in enumerate(h) if any(hl[1:])]
    cols = [[r**l] for l in range(max((l for l, _ in pairs), default=0) + 1)]
    pairs = [(cols[l], table) for l, table in pairs]
    den_a = 1
    for n in range(1, n_terms + 1):
        total = sum(sum(map(mul, table, reversed(col))) for col, table in pairs)
        x = r + s * n
        denom = _poly_eval(indicial, x)
        if denom == 0:
            raise ResonantRoot(f"indicial polynomial vanishes again at {root} + {n}")
        q = denom * den_a  # a_n = -total / q; den_a grows to a multiple of its denominator
        m = lcm(den_a, abs(q) // gcd(total, q)) // den_a
        if m != 1:
            for col in cols:
                col[:] = map(mul, col, repeat(m))
            den_a *= m
        num = -total * den_a // q
        for col in cols:  # num x^l, by a running product
            col.append(num)
            num *= x
    return QExpansion._from_ints(root, cols[0], den_a)


def fundamental_system(equation: MLDE, n_terms: int) -> VVMF:
    """One Frobenius solution per indicial root, packaged as a vvmf.

    Requires rational, distinct roots inside [0, 1); distinctness there rules
    out resonance since no two roots can differ by a nonzero integer.  The
    roots are checked before anything of size N is built; the first solve
    builds the operator's theta-form and the others read it from the cache.
    """
    ind = indicial_polynomial(equation)
    if not ind.all_rational:
        raise IrrationalRoots(f"only {len(ind.roots)} of {equation.order} indicial roots are rational")
    roots = list(ind.roots)
    if len(set(roots)) != len(roots):
        raise RootsNotDistinct(f"indicial roots {', '.join(map(str, roots))} are not distinct")
    if any(not 0 <= r < 1 for r in roots):
        raise RootsOutOfRange(f"indicial roots {', '.join(map(str, roots))} not all in [0, 1)")
    return VVMF.make(equation.weight, RepData.make(roots), [solve_frobenius(equation, r, n_terms) for r in roots])


def weight_relation_check(weight: int, exponents) -> bool:
    """Exact test of 12 sum(m_j) = p(p + k_0 - 1)."""
    ms = [Fraction(m) for m in exponents]
    p = len(ms)
    return 12 * sum(ms, Fraction(0)) == p * (p + weight - 1)


def mlde_from_exponents(exponents) -> MLDE:
    """Rebuild the unique MLDE with the given indicial roots (p <= 5).

    The weight comes from the root sum.  The constants g_j(oo) come from
    matching I to prod (lambda - m_j).  In mu = d lambda, d = lcm(12,
    denominators), the partial products are monic int polynomials of
    degree j, so each c_j = d^(p-j) g_j(oo), j = p-2 down to 0, is an int
    read off the difference once the terms above it are subtracted.
    Through order 5 each g_j lies in a one-dimensional M_{2(p-j)} whose
    monomial has constant term 1, so the constants determine the operator.
    """
    ms = [Fraction(m) for m in exponents]
    p = len(ms)
    if p < 1:
        raise ValueError("need at least one exponent")
    if p > 5:
        raise OrderTooLarge("order > 5: coefficient spaces gain dimensions, supply coefficients")
    if len(set(ms)) != p:
        raise RootsNotDistinct(f"exponents {', '.join(map(str, ms))} are not distinct")
    if any(not 0 <= m < 1 for m in ms):
        raise RootsOutOfRange(f"exponents {', '.join(map(str, ms))} not all in [0, 1)")
    k0 = Fraction(12, p) * sum(ms, Fraction(0)) - p + 1
    if k0.denominator != 1:
        raise NonIntegralWeight(f"weight relation gives k_0 = {k0}")
    k0 = int(k0)
    d = lcm(12, *(m.denominator for m in ms))
    partial = _partial_products([(k0 + 2 * l) * d // 12 for l in range(p)])
    rest = list(map(sub, _partial_products([m.numerator * (d // m.denominator) for m in ms])[p], partial[p]))
    consts = [0] * (p - 1)
    for j in range(p - 2, -1, -1):
        # partial[j] is monic of degree j: c partial[j] clears mu^j, and rest keeps the degrees below
        c = consts[j] = rest[j]
        rest = list(map(sub, rest, map(mul, repeat(c), partial[j])))
    coeffs = []
    for j in range(p - 1):
        basis = monomial_basis(2 * (p - j))
        if len(basis) != 1:
            raise OrderTooLarge(f"M_{2 * (p - j)} is not one-dimensional; supply coefficients")
        u, v = basis[0]
        coeffs.append(PolynomialQR.monomial(u, v, Fraction(consts[j], d ** (p - j))))
    return MLDE.make(k0, p, coeffs)


class ResidualReport(Record):
    __slots__ = ("ok", "order_checked", "first_nonzero_exponent", "first_nonzero_value")  # the last two Fraction or None


def verify_solution(equation: MLDE, f: QExpansion, n_terms: int) -> ResidualReport:
    """Apply the operator through the skew ring and report the residual."""
    residual = equation.to_skew().apply(f, equation.weight, n_terms)
    for n, x in enumerate(residual.nums):
        if x:
            return ResidualReport(False, residual.truncation_order, residual.leading + n, Fraction(x, residual.den))
    return ResidualReport(True, residual.truncation_order, None, None)
