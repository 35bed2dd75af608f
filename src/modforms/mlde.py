"""Modular linear differential equations in the Serre derivative.

An order-p MLDE at weight k_0 is the monic operator

    L = D^p + g_{p-2} D^{p-2} + ... + g_1 D + g_0,   g_j in M_{2(p-j)},

with no D^{p-1} term since M_2 = 0.  Its indicial polynomial at the cusp is

    I(lambda) = prod_{l<p} (lambda - (k_0+2l)/12)
              + sum_j g_j(oo) prod_{l<j} (lambda - (k_0+2l)/12),

whose roots are the leading exponents of a fundamental system.  The solver
runs the Frobenius recursion exactly: its table of D^j f coefficients is
kept as integer numerators over one denominator per column, so the O(p N^2)
convolutions are integer dot products and only O(p N) steps touch
Fractions.  The converse direction rebuilds the operator from prescribed
exponents while the coefficient spaces M_4..M_10 are one-dimensional.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd
from operator import mul

from . import skew
from .classical import PolynomialQR, eisenstein, monomial_basis, to_qexpansion
from .errors import (
    IrrationalRoots,
    NonIntegralWeight,
    NotARoot,
    OrderTooLarge,
    ResonantRoot,
    RootsNotDistinct,
    RootsOutOfRange,
)
from .qseries import QExpansion, _clear_denominators
from .vvmf import VVMF, RepData


# -- dense polynomials over Fraction, ascending coefficients ----------------

def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] += y
    return out


def _poly_eval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _deflate(a, root):
    """Synthetic division by (x - root); the root must be exact."""
    out = [Fraction(0)] * (len(a) - 1)
    acc = Fraction(0)
    for i in range(len(a) - 1, 0, -1):
        acc = a[i] if i == len(a) - 1 else a[i] + acc * root
        out[i - 1] = acc
    return out


def _divisors(n: int):
    n = abs(n)
    out = set()
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.add(i)
            out.add(n // i)
        i += 1
    return out


def _rational_roots(poly):
    """All rational roots with multiplicity, by the rational root theorem."""
    roots = []
    work = list(poly)
    while len(work) > 1:
        while work and work[-1] == 0:
            work.pop()
        if len(work) <= 1:
            break
        if work[0] == 0:
            roots.append(Fraction(0))
            work = work[1:]
            continue
        denom_lcm = 1
        for c in work:
            denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
        ints = [int(c * denom_lcm) for c in work]
        found = None
        for num in sorted(_divisors(ints[0])):
            for den in sorted(_divisors(ints[-1])):
                for sgn in (1, -1):
                    cand = Fraction(sgn * num, den)
                    if _poly_eval(work, cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        roots.append(found)
        work = _deflate(work, found)
    return sorted(roots)


# -- the equation ------------------------------------------------------------

@dataclass(frozen=True)
class MLDE:
    """Monic order-p operator at weight k_0; coeffs are g_0..g_{p-2}."""

    weight: int
    order: int
    coeffs: tuple  # PolynomialQR, index j has modular weight 2(order - j)

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
        return MLDE(int(weight), order, coeffs)

    def exponent_offsets(self):
        """The cusp exponents (k_0 + 2l)/12 of the iterated Serre derivative."""
        return [Fraction(self.weight + 2 * l, 12) for l in range(self.order)]

    def to_skew(self) -> skew.SkewPolynomial:
        terms = {self.order: PolynomialQR.monomial(0, 0)}
        for j, g in enumerate(self.coeffs):
            if not g.is_zero:
                terms[j] = g
        return skew.SkewPolynomial.make(terms)


@dataclass(frozen=True)
class IndicialData:
    poly: tuple  # Fractions, ascending in lambda
    roots: tuple  # rational roots with multiplicity, sorted
    all_rational: bool


def _indicial_coefficients(equation: MLDE) -> tuple:
    """I(lambda) as Fractions, ascending in lambda."""
    offsets = equation.exponent_offsets()
    partial = [[Fraction(1)]]  # partial[j] = prod_{l<j} (lambda - offset_l)
    for w in offsets:
        partial.append(_poly_mul(partial[-1], [-w, Fraction(1)]))
    poly = partial[equation.order]
    for j, g in enumerate(equation.coeffs):
        c = g.constant_term()
        if c:
            poly = _poly_add(poly, [x * c for x in partial[j]])
    return tuple(poly)


def indicial_polynomial(equation: MLDE) -> IndicialData:
    """Exact indicial polynomial at the cusp and its rational roots."""
    poly = _indicial_coefficients(equation)
    roots = _rational_roots(poly)
    return IndicialData(poly, tuple(roots), len(roots) == equation.order)


def solve_frobenius(equation: MLDE, root, n_terms: int) -> QExpansion:
    """The unique solution q^root (1 + a_1 q + ...) by exact recursion.

    Coefficient n costs O(p n) convolution work; the whole call is O(p N^2).
    That quadratic part runs on integers: each column of the D^j f table is
    one common denominator and a list of int numerators, and every
    convolution with 2 sigma_1 or with g_j is a C-level integer dot product.
    Only the O(p) values of column n, a_n and I(root + n) are Fractions.
    Raises NotARoot if root misses the indicial polynomial and ResonantRoot
    if I(root + n) vanishes for some 1 <= n <= N.
    """
    root = Fraction(root)
    poly = _indicial_coefficients(equation)
    if _poly_eval(poly, root) != 0:
        raise NotARoot(f"{root} is not an indicial root")
    p = equation.order
    weights = [equation.weight + 2 * l for l in range(p)]
    # Integer tables are stored reversed, so that table[N - n:] starts with
    # the coefficient of q^n and runs down to q^1 (or q^0) as a slice.
    sig = [c.numerator for c in eisenstein("P", n_terms).coeffs[:0:-1]]  # 2 sigma_1(m)
    gq = []  # (j, g_j(oo), common denominator, reversed numerators)
    for j, g in enumerate(equation.coeffs):
        if g.is_zero:
            continue
        coeffs = to_qexpansion(g, n_terms).coeffs
        den, nums = _clear_denominators(coeffs)
        gq.append((j, coeffs[0], den, nums[::-1]))

    # Column j holds coefficients 0..n-1 of D^j f (j < p) as dens[j] and the
    # numerators cols[j].  Column n is first computed with a_n = 0; the
    # correction for a_n is a_n prod_{l<j} (root + n - offsets[l]), and the
    # tentative D^p f plus the g_j terms, divided by -I(root + n), is a_n.
    starts = [root - w for w in equation.exponent_offsets()]
    value = Fraction(1)
    dens, cols = [], []
    for j in range(p):
        dens.append(value.denominator)
        cols.append([value.numerator])
        value *= starts[j]
    a = [Fraction(1)]
    for n in range(1, n_terms + 1):
        lo = n_terms - n
        window = sig[lo:]
        steps = [x + n for x in starts]  # root + n - offsets[j]
        tentative = [Fraction(0)]  # D^j f at q^n with a_n = 0
        for j in range(p):
            conv = sum(map(mul, window, cols[j]))
            tentative.append(steps[j] * tentative[j] + Fraction(weights[j] * conv, dens[j]))
        c_n = tentative[p]
        for j, g0, den, nums in gq:
            c_n += g0 * tentative[j] + Fraction(sum(map(mul, nums[lo:], cols[j])), den * dens[j])
        denom = _poly_eval(poly, root + n)
        if denom == 0:
            raise ResonantRoot(f"indicial polynomial vanishes again at {root} + {n}")
        a_n = -c_n / denom
        a.append(a_n)
        factor = a_n
        for j in range(p):
            value = tentative[j] + factor
            factor *= steps[j]
            den, vden = dens[j], value.denominator
            if den % vden:
                merged = den // gcd(den, vden) * vden
                cols[j] = list(map(mul, cols[j], repeat(merged // den)))
                dens[j] = den = merged
            cols[j].append(value.numerator * (den // vden))
    return QExpansion(root, tuple(a))


def fundamental_system(equation: MLDE, n_terms: int) -> VVMF:
    """One Frobenius solution per indicial root, packaged as a vvmf.

    Requires rational, distinct roots inside [0, 1); distinctness there rules
    out resonance since no two roots can differ by a nonzero integer.
    """
    ind = indicial_polynomial(equation)
    if not ind.all_rational:
        raise IrrationalRoots(f"only {len(ind.roots)} of {equation.order} indicial roots are rational")
    roots = list(ind.roots)
    if len(set(roots)) != len(roots):
        raise RootsNotDistinct(f"repeated indicial root in {roots}")
    if any(not 0 <= r < 1 for r in roots):
        raise RootsOutOfRange(f"indicial roots {roots} not all in [0, 1)")
    rep = RepData.make(roots)
    comps = [solve_frobenius(equation, r, n_terms) for r in roots]
    return VVMF.make(equation.weight, rep, comps)


def weight_relation_check(weight: int, exponents) -> bool:
    """Exact test of 12 sum(m_j) = p(p + k_0 - 1)."""
    ms = [Fraction(m) for m in exponents]
    p = len(ms)
    return 12 * sum(ms, Fraction(0)) == p * (p + weight - 1)


def mlde_from_exponents(exponents) -> MLDE:
    """Rebuild the unique MLDE with the given indicial roots (p <= 5).

    The weight comes from the root sum; the constant terms g_j(oo) come from
    matching the indicial polynomial to prod (lambda - m_j), solved back to
    front against the triangular partial products.  Through order 5 each g_j
    lies in a one-dimensional M_{2(p-j)} whose monomial has constant term 1,
    so the constants determine the operator.
    """
    ms = [Fraction(m) for m in exponents]
    p = len(ms)
    if p < 1:
        raise ValueError("need at least one exponent")
    if p > 5:
        raise OrderTooLarge("order > 5: coefficient spaces gain dimensions, supply coefficients")
    if len(set(ms)) != p:
        raise RootsNotDistinct(f"exponents {ms} are not distinct")
    if any(not 0 <= m < 1 for m in ms):
        raise RootsOutOfRange(f"exponents {ms} not all in [0, 1)")
    k0 = Fraction(12, p) * sum(ms, Fraction(0)) - p + 1
    if k0.denominator != 1:
        raise NonIntegralWeight(f"weight relation gives k_0 = {k0}")
    k0 = int(k0)
    offsets = [Fraction(k0 + 2 * l, 12) for l in range(p)]
    partial = [[Fraction(1)]]
    for w in offsets:
        partial.append(_poly_mul(partial[-1], [-w, Fraction(1)]))
    target = [Fraction(1)]
    for m in ms:
        target = _poly_mul(target, [-m, Fraction(1)])
    rem = _poly_add(target, [-c for c in partial[p]])
    rem = rem + [Fraction(0)] * (p - len(rem))
    consts = [Fraction(0)] * max(p - 1, 0)
    for j in range(p - 2, -1, -1):
        consts[j] = rem[j]
        if consts[j]:
            rem = _poly_add(rem, [-consts[j] * c for c in partial[j]])
    if any(c != 0 for c in rem):
        raise ValueError("indicial matching left a nonzero remainder")  # unreachable
    coeffs = []
    for j in range(p - 1):
        basis = monomial_basis(2 * (p - j))
        if len(basis) != 1:
            raise OrderTooLarge(f"M_{2 * (p - j)} is not one-dimensional; supply coefficients")
        u, v = basis[0]
        coeffs.append(PolynomialQR.monomial(u, v, consts[j]))
    return MLDE.make(k0, p, coeffs)


@dataclass(frozen=True)
class ResidualReport:
    ok: bool
    order_checked: int
    first_nonzero_exponent: Fraction | None
    first_nonzero_value: Fraction | None


def verify_solution(equation: MLDE, f: QExpansion, n_terms: int) -> ResidualReport:
    """Apply the operator through the skew ring and report the residual."""
    residual = equation.to_skew().apply(f, equation.weight, n_terms)
    for n, c in enumerate(residual.coeffs):
        if c != 0:
            return ResidualReport(False, residual.truncation_order, residual.leading + n, c)
    return ResidualReport(True, residual.truncation_order, None, None)
