"""The graded algebra M of classical holomorphic modular forms on SL(2,Z).

M is the weighted polynomial algebra C[Q, R] on the Eisenstein series
Q = E4 (weight 4) and R = E6 (weight 6).  This module provides exact
q-expansions of the generators, the discriminant Delta and eta-powers,
dimension and basis bookkeeping for each graded piece M_w, conversion
between the polynomial picture and q-expansions through one cached table of
the integer series Q^u R^v (`_monomial`), and the Serre derivative

    D(f) = theta(f) + k * P * f      (f of weight k)

which raises weight by 2.  P is the weight-2 quasimodular series
-1/12 + 2*sum_n sigma_1(n) q^n; this normalization is the one pinned down
by the identities D(Delta) = 0 and D(eta^2k) = 0.  Every operator of M[d]
acts through one integer theta-form sum_l h_l theta^l (`_theta_form`).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import repeat, zip_longest
from operator import add, mul, sub

from .errors import AmbiguousTruncation, NotInM, OddWeight, Record, _set
from .qseries import DEFAULT_TERMS, QExpansion, _coerce, _int_product, _nonnegative


def _sigma(power: int, n: int) -> int:
    """Divisor power sum sigma_power(n)."""
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d**power
            e = n // d
            if e != d:
                total += e**power
        d += 1
    return total


@functools.lru_cache(maxsize=None)
def eisenstein(kind: str, terms: int = DEFAULT_TERMS) -> QExpansion:
    """Exact expansion of P (quasimodular E2, as 12P over 12), Q = E4 or R = E6 to ``terms``."""
    _nonnegative(terms)
    if kind == "Q":
        nums, den = [1] + [240 * _sigma(3, n) for n in range(1, terms + 1)], 1
    elif kind == "R":
        nums, den = [1] + [-504 * _sigma(5, n) for n in range(1, terms + 1)], 1
    elif kind == "P":
        nums, den = [-1] + [24 * _sigma(1, n) for n in range(1, terms + 1)], 12
    else:
        raise ValueError(f"unknown Eisenstein kind {kind!r} (expected P, Q or R)")
    return QExpansion._from_ints(Fraction(0), nums, den)


def _power(f: QExpansion, e: int) -> QExpansion:
    """f^e to the truncation of f, by binary powering from the top bit of e."""
    acc = f if e else QExpansion.one(f.truncation_order)
    for bit in bin(e)[3:]:
        acc = acc * acc * f if bit == "1" else acc * acc
    return acc


@functools.lru_cache(maxsize=None)
def _monomial(u: int, v: int, terms: int) -> tuple:
    """Int numerators of the integer series Q^u R^v through q^terms; keyed on terms like `eisenstein`.

    Only a factor with a nonzero exponent is built, so Q^u alone never expands R.
    """
    factors = [_power(eisenstein(kind, terms), e) for kind, e in (("Q", u), ("R", v)) if e]
    return functools.reduce(mul, factors or [QExpansion.one(terms)]).nums


def delta(terms: int = DEFAULT_TERMS) -> QExpansion:
    """The discriminant cusp form (Q^3 - R^2)/1728 = q - 24q^2 + ..."""
    rows = _monomial(3, 0, terms), _monomial(0, 2, terms)
    return QExpansion._from_ints(Fraction(0), list(map(sub, *rows)), 1728)


@functools.lru_cache(maxsize=None)
def euler_product(terms: int = DEFAULT_TERMS) -> QExpansion:
    """prod_{n>=1} (1 - q^n) via the pentagonal number theorem."""
    _nonnegative(terms)
    coeffs = [0] * (terms + 1)
    k = 0
    while True:
        done = True
        for kk in (k, -k) if k else (0,):
            e = kk * (3 * kk - 1) // 2
            if e <= terms:
                coeffs[e] += (-1) ** (kk % 2)
                done = False
        if done:
            break
        k += 1
    return QExpansion._from_ints(Fraction(0), coeffs)


@functools.lru_cache(maxsize=None)
def eta_power(h: int, terms: int = DEFAULT_TERMS) -> QExpansion:
    """q-expansion of eta^h = q^(h/24) * prod(1-q^n)^h, by binary powering."""
    if h < 0:
        raise ValueError("eta exponent must be nonnegative")
    return QExpansion._from_ints(Fraction(h, 24), _power(euler_product(terms), h).nums)


def dim_M(weight: int) -> int:
    """dim M_w: floor(k/6) or floor(k/6)+1 (w = 2k) according as w = 2 mod 12 or not."""
    if weight % 2:
        raise OddWeight(f"classical forms have even weight, got {weight}")
    if weight < 0:
        return 0
    k = weight // 2
    return k // 6 + (0 if weight % 12 == 2 else 1)


def monomial_basis(weight: int) -> list[tuple[int, int]]:
    """All (u, v) with 4u + 6v = weight, in lexicographic order."""
    if weight % 2:
        raise OddWeight(f"classical forms have even weight, got {weight}")
    basis = []
    for u in range(weight // 4 + 1):
        rem = weight - 4 * u
        if rem % 6 == 0:
            basis.append((u, rem // 6))
    return basis


def _collect(terms) -> tuple:
    """Sum (key, value) pairs by key: the sorted pairs whose sum is nonzero (truthy).

    Every sparse sum of M, M[d] (`skew`) and Poincare numerators (`structure`) is built here.
    """
    sums: dict = {}
    for key, value in terms:
        sums[key] = sums[key] + value if key in sums else value
    return tuple(sorted((key, value) for key, value in sums.items() if value))


class PolynomialQR(Record):
    """Element of M = C[Q, R] on the monomial basis {Q^u R^v}, with a weight.

    ``coords`` maps (u, v) with 4u + 6v = weight to an exact rational
    coefficient; zero coefficients are dropped on construction.
    """

    __slots__ = ("weight", "coords")  # int; sorted tuple of ((u, v), Fraction) pairs

    def __init__(self, weight: int, coords: tuple):
        # written out: every sum and product in M builds one, and Record's loop costs twice as much
        _set(self, "weight", weight)
        _set(self, "coords", coords)

    @staticmethod
    def make(weight: int, coords) -> PolynomialQR:
        items = []
        for (u, v), c in dict(coords).items():
            c = _coerce(c)
            if c == 0:
                continue
            if u < 0 or v < 0 or 4 * u + 6 * v != weight:
                raise ValueError(f"monomial Q^{u} R^{v} does not have weight {weight}")
            items.append(((u, v), c))
        return PolynomialQR(weight, tuple(sorted(items)))

    @staticmethod
    def monomial(u: int, v: int, c=1) -> PolynomialQR:
        return PolynomialQR.make(4 * u + 6 * v, {(u, v): c})

    @staticmethod
    def zero(weight: int = 0) -> PolynomialQR:
        return PolynomialQR(weight, ())

    @property
    def is_zero(self) -> bool:
        return not self.coords

    def __bool__(self) -> bool:
        return bool(self.coords)

    def constant_term(self) -> Fraction:
        """Value at the cusp: every monomial Q^u R^v starts 1 + O(q)."""
        return sum((c for _, c in self.coords), Fraction(0))

    def __add__(self, other: PolynomialQR) -> PolynomialQR:
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.weight != other.weight:
            raise ValueError(f"cannot add weights {self.weight} and {other.weight}")
        return PolynomialQR(self.weight, _collect(self.coords + other.coords))

    def __sub__(self, other: PolynomialQR) -> PolynomialQR:
        return self + (-other)

    def __neg__(self) -> PolynomialQR:
        return PolynomialQR(self.weight, tuple((k, -c) for k, c in self.coords))

    def __mul__(self, other):
        if isinstance(other, PolynomialQR):
            terms = [((u1 + u2, v1 + v2), c1 * c2) for (u1, v1), c1 in self.coords for (u2, v2), c2 in other.coords]
            return PolynomialQR(self.weight + other.weight, _collect(terms))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> PolynomialQR:
        c = _coerce(c)
        if c == 0:
            return PolynomialQR.zero(self.weight)
        return PolynomialQR(self.weight, tuple((k, c * x) for k, x in self.coords))


def to_qexpansion(m: PolynomialQR, terms: int = DEFAULT_TERMS) -> QExpansion:
    """Substitute the Eisenstein expansions for Q and R: a sum of `_monomial` rows over one lcm."""
    _nonnegative(terms)
    den = math.lcm(*(c.denominator for _, c in m.coords))
    acc = [0] * (terms + 1)
    for (u, v), c in m.coords:
        scale = repeat(c.numerator * (den // c.denominator))
        acc = list(map(add, acc, map(mul, scale, _monomial(u, v, terms))))
    return QExpansion._from_ints(Fraction(0), acc, den)


def from_qexpansion(f: QExpansion, weight: int, terms: int | None = None) -> PolynomialQR:
    """Recover the unique element of M_weight matching f to ``terms`` coefficients.

    With d = dim M_weight, Miller's basis B_j = Delta^j Q^(a - 3j) R^b (j < d,
    4a + 6b = weight, b = 0 or 1) has j-th member q^j + O(q^(j+1)) with
    integer coefficients, so forward substitution on the first d
    coefficients of f gives the coordinates without a division.  Raises
    NotInM when that form differs from f through q^terms (f is not a form of
    this weight, at least to the checked depth) and AmbiguousTruncation when
    fewer than d coefficients are known.
    """
    if terms is None:
        terms = f.truncation_order
    d = dim_M(weight)
    if f.is_zero:
        return PolynomialQR.zero(weight)
    if not d:
        raise NotInM(f"M_{weight} is zero and the series is not")
    if terms + 1 < d:
        raise AmbiguousTruncation(
            f"{terms + 1} coefficients cannot determine a form in the {d}-dimensional M_{weight}"
        )
    if f.leading.denominator != 1 or f.leading < 0:
        raise NotInM(f"leading exponent {f.leading} is not a nonnegative integer")
    if f.horizon < terms:
        raise AmbiguousTruncation(f"series only known through q^{f.horizon}, need q^{terms}")
    # the numerators of f at q^0..q^terms
    lead = int(f.leading)
    known = [0] * min(lead, terms + 1) + list(f.nums[: max(terms + 1 - lead, 0)])
    # Delta^j = (Q^3 - R^2)^j / 1728^j, so B_j = sum_i (-1)^i C(j, i) Q^(a - 3i) R^(b + 2i) / 1728^j
    b = weight % 4 // 2
    a = (weight - 6 * b) // 4
    rest, members = known[:d], []
    for j in range(d):
        x = rest[j]
        if x:
            # i from j down to 0 lists the monomials Q^(a - 3i) R^(b + 2i) in sorted order
            coords = tuple(
                ((a - 3 * i, b + 2 * i), Fraction((-1) ** i * math.comb(j, i), 1728**j)) for i in range(j, -1, -1)
            )
            # B_j = q^j + O(q^(j+1)) over the integers: subtracting x B_j clears q^j
            series = to_qexpansion(PolynomialQR(weight, coords), d - 1)
            rest[j:] = map(sub, rest[j:], map(mul, repeat(x), series.nums[j:]))
            members += [(key, c * Fraction(x, f.den)) for key, c in coords]
    result = PolynomialQR(weight, _collect(members))
    g = to_qexpansion(result, terms)
    if any(map(sub, map(mul, repeat(f.den), g.nums), map(mul, repeat(g.den), known))):
        raise NotInM(f"series does not match any form of weight {weight} to q^{terms}")
    return result


def _apply_theta_form(den: int, h: tuple, f: QExpansion) -> QExpansion:
    """(sum_l h[l] theta^l f) / den, for int numerator sequences h[l] as long as f.

    With f = q^(r/s) sum A_i q^i / d, theta^l f has numerators (r + s i)^l A_i
    over s^l d: one integer product per nonconstant h[l], a scalar multiply
    per constant one, and one reduction of the result.
    """
    d, col = f.den, f.nums
    r, s = f.leading.numerator, f.leading.denominator
    steps = range(r, r + s * len(col), s)
    acc = _int_product(h[0], col)
    for hl in h[1:]:
        col = list(map(mul, col, steps))
        # Horner in s: once every l is in, term l carries s^(top - l)
        acc = list(map(add, map(mul, repeat(s), acc), _int_product(hl, col)))
    return QExpansion._from_ints(f.leading, acc, den * s ** (len(h) - 1) * d)


@functools.lru_cache(maxsize=4)
def _theta_form(terms, k, n: int) -> tuple[int, tuple]:
    """Skew polynomial ``terms`` ((j, c_j) pairs) at weight k as sum_l h[l] theta^l / den.

    Returns (den, h), each h[l] a tuple of n + 1 int numerators.  T_0 = 1 and
    T_{j+1} = D T_j, by the one Serre step D = theta + w P, w = k + 2j: with
    a = 12 den(w) and b = num(w), h_l -> a theta(h_l) + b (12P h_l) + a h_{l-1},
    den -> a den.  Each c_j enters as to_qexpansion(c_j) times T_j.  Cached:
    a fundamental system builds its form once, in the solve of its first
    root, and the other roots' solves and `verify_solution` on every
    component read it (the indicial polynomial comes from the equation's
    constants, not from a form).  The result is all tuples, so no caller can
    change a cached form.
    """
    k = Fraction(k)
    p12 = eisenstein("P", n).nums
    zero, ramp = [0] * (n + 1), range(n + 1)
    tower, tower_den = [[1] + zero[1:]], 1
    den, h = 1, []
    for j, c in terms:
        while len(tower) <= j:
            w = k + 2 * (len(tower) - 1)
            a, b = 12 * w.denominator, w.numerator
            tower = [
                [a * (i * x + z) + b * y for i, x, y, z in zip(ramp, hl, _int_product(hl, p12), prev)]
                for hl, prev in zip(tower + [zero], [zero] + tower)
            ]
            tower_den *= a
        c = to_qexpansion(c, n)
        u = math.lcm(den, c.den * tower_den) // den
        v = den * u // (c.den * tower_den)
        h = [
            [u * x + v * y for x, y in zip(hl, _int_product(c.nums, t))]
            for hl, t in zip_longest(h, tower, fillvalue=zero)
        ]
        den *= u
    return den, tuple(map(tuple, h))


def serre_derivative(f: QExpansion, k, terms: int | None = None) -> QExpansion:
    """D(f) = theta(f) + k P f, with f regarded at weight k; raises weight by 2.

    With k = k_num / k_den the operator is (k_num 12P + 12 k_den theta) /
    (12 k_den), and P holds the integers 12P: one integer multiply.
    """
    k = _coerce(k)
    p12 = eisenstein("P", f.truncation_order).nums
    if terms is not None and terms < f.truncation_order:
        f = f.truncate(terms)
    n, scale = len(f.nums), 12 * k.denominator
    # One level, written here rather than built by `_theta_form`: through its
    # tower an uncached call took 127 instead of 72 us at N 64, 325 instead of
    # 215 us at N 176 (E4 at weight 4, best of 300; 2-core VM, Python 3.11).
    h = (list(map(mul, repeat(k.numerator), p12[:n])), [scale] + [0] * (n - 1))
    return _apply_theta_form(scale, h, f)


def serre_derivative_poly(m: PolynomialQR) -> PolynomialQR:
    """The graded derivation of C[Q, R] with D(Q) = -R/3 and D(R) = -Q^2/2."""
    terms = [((u - 1, v + 1), Fraction(-u, 3) * c) for (u, v), c in m.coords if u]
    terms += [((u + 2, v - 1), Fraction(-v, 2) * c) for (u, v), c in m.coords if v]
    return PolynomialQR(m.weight + 2, _collect(terms))
