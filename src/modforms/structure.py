"""Module structure over M = C[Q, R]: Poincare series and classifications.

Everything here is graded bookkeeping.  A module of vector-valued forms is
free of rank p over M with fundamental weights e_1..e_p, so its
Hilbert-Poincare series is (t^{e_1} + ... + t^{e_p}) / ((1-t^4)(1-t^6)).
The classification of reducible indecomposable 2-dimensional representations
runs over 24 classes (a, b) with a - b = +-2 mod 12, split between direct
sums and cyclic modules, with exactly two cyclic classes carrying a
1-dimensional cokernel.

`free_basis_verify` proves its verdict for any r generators of a
p-dimensional representation from their r x r minors, the components of
F_1 ^ ... ^ F_r, a holomorphic form of weight K = sum k_i: all of them
vanish through q^((K + C(p, r) - 1)/12) iff the generators are dependent.
An echelon basis of the span of the minors has e <= C(p, r) distinct leading
exponents lambda; its Wronskian has weight eK + e(e - 1), leads at q^(sum lambda).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub

from . import linalg
from .classical import EtaPower, _collect, _monomial, dim_M, monomial_basis
from .errors import DependentGenerators, InsufficientTruncation, NotIndecomposable, OutOfRange
from .qseries import _int_product
from .vvmf import VVMF, validate

#: Denominator of every series here, as dense ascending coefficients; it is
#: monic (leading coefficient +1), so `linalg._poly_divmod` divides by it.
DENOMINATOR = (1, 0, 0, 0, -1, 0, -1, 0, 0, 0, 1)  # (1-t^4)(1-t^6)


def _dim(w: int) -> int:
    if w < 0 or w % 2:
        return 0
    return dim_M(w)


@dataclass(frozen=True)
class PoincareSeries:
    """Integer numerator over the fixed denominator (1-t^4)(1-t^6)."""

    numerator: tuple  # sorted (exponent, coefficient), zeros removed

    @staticmethod
    def make(num: dict) -> PoincareSeries:
        return PoincareSeries(_collect(num.items()))

    def __add__(self, other: PoincareSeries) -> PoincareSeries:
        return PoincareSeries(_collect(self.numerator + other.numerator))

    def __sub__(self, other: PoincareSeries) -> PoincareSeries:
        return PoincareSeries(_collect(self.numerator + tuple((e, -c) for e, c in other.numerator)))

    def __str__(self) -> str:
        if not self.numerator:
            return "0"
        parts = []
        for e, c in self.numerator:
            t = "1" if e == 0 else "t" if e == 1 else f"t^{e}"
            parts.append(t if c == 1 else f"{c}*{t}")
        return f"({' + '.join(parts)})/((1-t^4)*(1-t^6))"


@dataclass(frozen=True)
class FundamentalWeights:
    """The multiset of weights of a free generating set."""

    weights: tuple

    @staticmethod
    def make(weights) -> FundamentalWeights:
        return FundamentalWeights(tuple(sorted(int(w) for w in weights)))

    @property
    def p(self) -> int:
        return len(self.weights)


def _weight_list(weights):
    if isinstance(weights, FundamentalWeights):
        return list(weights.weights)
    return [int(w) for w in weights]


def ps_from_weights(weights) -> PoincareSeries:
    """Series of a free module with the given generator weight multiset."""
    return PoincareSeries(_collect((e, 1) for e in _weight_list(weights)))


def ps_cyclic(k0: int, p: int) -> PoincareSeries:
    """Series of the cyclic module generated in weight k0 with order-p MLDE.

    t^{k0}(1-t^{2p})/((1-t^2)(1-t^4)(1-t^6)) with the (1-t^2) cancelled,
    leaving numerator t^{k0}(1 + t^2 + ... + t^{2(p-1)}).
    """
    if p < 1:
        raise ValueError("rank p must be >= 1")
    return PoincareSeries.make({k0 + 2 * l: 1 for l in range(p)})


def ps_coefficient(ps: PoincareSeries, w: int) -> int:
    """Coefficient of t^w: the dimension of the weight-w graded piece.

    Negative weights are allowed from the lowest generator weight on (a
    fundamental system can have k_0 < 0); below it they are rejected.
    """
    lowest = ps.numerator[0][0] if ps.numerator else 0
    if w < min(lowest, 0):
        raise ValueError(f"weight {w} is below every generator weight")
    return sum(c * _dim(w - e) for e, c in ps.numerator)


def character_module(k0: int):
    """Generator and series of the rank-1 module for the character chi^{k0}."""
    if not 0 <= k0 <= 11:
        raise OutOfRange(f"character exponent {k0} outside 0..11")
    return EtaPower(2 * k0), PoincareSeries.make({k0: 1})


@dataclass(frozen=True)
class TwoDimClass:
    a: int
    b: int
    kind: str  # "split" | "cyclic"
    k0: int
    weights: FundamentalWeights
    coker_weight: int | None


def classify_2dim(a: int, b: int) -> TwoDimClass:
    """Classify the extension of chi^b by chi^a with T-eigenvalue ratio a
    primitive sixth root of unity.

    b - a in {2, 10} is the split branch (the extension is a direct sum,
    weights a and b); a - b in {2, 10} is the cyclic branch with
    k_0 = (a+b)/2 - 1 and weights k_0, k_0 + 2.  The classes (10, 0) and
    (11, 1) are the only ones where the cyclic module overshoots the sum of
    the character modules, by one dimension in weight b.
    """
    if not (0 <= a <= 11 and 0 <= b <= 11):
        raise NotIndecomposable(f"exponents ({a}, {b}) outside 0..11")
    if (a - b) % 12 not in (2, 10):
        raise NotIndecomposable(f"eigenvalue ratio for ({a}, {b}) is not a primitive sixth root")
    if b - a in (2, 10):
        return TwoDimClass(a, b, "split", min(a, b), FundamentalWeights.make((a, b)), None)
    k0 = (a + b) // 2 - 1
    coker = b if a - b == 10 else None
    return TwoDimClass(a, b, "cyclic", k0, FundamentalWeights.make((k0, k0 + 2)), coker)


def all_2dim_classes():
    """The 24 admissible ordered pairs, classified."""
    out = []
    for a in range(12):
        for b in range(12):
            if (a - b) % 12 in (2, 10):
                out.append(classify_2dim(a, b))
    return out


def coker_ps_difference(cls: TwoDimClass) -> dict:
    """ps_from_weights({a,b}) - ps_cyclic(k0, 2), as an exact polynomial in t.

    Zero for ten of the twelve cyclic classes; t^b for (10, 0) and (11, 1).
    """
    if cls.kind != "cyclic":
        raise ValueError("cokernel comparison only makes sense for cyclic classes")
    diff = ps_from_weights((cls.a, cls.b)) - ps_cyclic(cls.k0, 2)
    num = dict(diff.numerator)
    dense = [num.get(e, 0) for e in range(max(num, default=-1) + 1)]
    quot, rem = linalg._poly_divmod(dense, DENOMINATOR)
    if any(rem):
        raise ValueError("difference is not divisible by the denominator")
    return {i: c for i, c in enumerate(quot) if c}


@dataclass(frozen=True)
class FreeBasisReport:
    ok: bool
    rank: int
    max_weight: int
    dims: tuple  # (weight, dimension) pairs, nonzero weights only
    spans: bool  # proved: the generators are a free basis of H(rho)
    message: str


def _det_series(cells, n: int) -> dict:
    """First n coefficients of every maximal minor of an r x p matrix of int series.

    cells[i][j] holds the first n coefficients of entry (i, j).  The result
    maps each set of r columns, as a bit mask, to its minor; a set left out
    has a zero entry in every Leibniz term, and r > p leaves none.  Laplace
    expansion along the rows: the minor on the first i rows and a set of
    columns is formed once and shared by every term of the Leibniz sum that
    extends it, so p x p costs p 2^(p-1) series products, not p! (p - 1).
    """
    minors = {0: [1] + [0] * (n - 1)}
    for row in cells:
        grown = {}
        for cols, minor in minors.items():
            for j, entry in enumerate(row):
                if cols >> j & 1 or not any(entry):
                    continue
                term = _int_product(minor, entry)
                key = cols | 1 << j
                # cofactor sign: (-1)^(number of the minor's columns right of j)
                grown[key] = list(map(sub if (cols >> j).bit_count() & 1 else add, grown.get(key, [0] * n), term))
        minors = grown
    return minors


def free_basis_verify(generators, k_max: int, n_terms: int) -> FreeBasisReport:
    """Freeness check for r proposed generators F_1..F_r of H(rho), rho of dimension p.

    The r x r minors of F = [f_ij] are the components of F_1 ^ ... ^ F_r, a
    holomorphic form of weight K = sum k_i; the one on the column set J lies
    in q^(L_J) C[[q]], L_J the sum of those slots' lowest leading exponents.
    If some minor is nonzero, one has a nonzero coefficient at or below q^B,
    B = (K + C(p, r) - 1)/12: an echelon basis of their span has e <= C(p, r)
    distinct leading exponents lambda, and its Wronskian has weight
    eK + e(e - 1) and leads at q^(sum lambda) (Mason, IJNT 3, 2007; for r = p
    B is the Sturm bound K/12, LNM 1240, 1987).  So, for every r:

    - a known nonzero coefficient in any minor proves the generators
      independent over M; `dims` then come from the Poincare series of the
      weights, and no rank is computed;
    - every minor zero at q^(L_J + t), t <= floor(B - L_J), proves them
      dependent (for r > p there is no minor).  A rank sweep of the monomial
      multiples up to k_max then only names the first dependent weight in
      DependentGenerators; if none up to k_max shows it, ok is False;
    - anything else raises InsufficientTruncation.

    Slot j is known through q^(low_j + depth_j), depth_j the least horizon of
    its components less low_j, capped at n_terms; the minors use the least
    depth_j.  InsufficientTruncation is raised first when a weight has more
    candidate multiples than known coefficients.

    `spans` is True exactly when F is proved a free basis of H(rho).  By
    the paper that holds iff r = p, K = 12 sum m_j and the coefficient of
    q^(sum m_j) in det F is nonzero (det F is then c eta^(2K)).  Independence
    rests on the coefficients alone; a proof of dependence and the `spans`
    claim also rest on the inputs being holomorphic forms for one rho, as
    fundamental systems and their D- and M-images are.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    rep = gens[0].rep
    for g in gens:
        if g.rep.exponents != rep.exponents:
            raise ValueError("generators must share representation data")
        if not validate(g).ok:
            raise ValueError("generators must pass holomorphy validation")
    r, p = len(gens), rep.p
    weights = [g.weight for g in gens]
    series = ps_from_weights(weights)
    dims = [(w, ps_coefficient(series, w)) for w in range(min(weights), k_max + 1)]
    dims = tuple((w, d) for w, d in dims if d)
    # Cells of slot j are the coefficients of q^(low_j + t), t <= depth_j, over the lcm of the
    # slot's denominators (a column scaling, which keeps the rank and whether a minor vanishes).
    # Nonzero components of slot j lie on m_j + Z; zero ones carry no exponent.  slots[i][j]
    # holds generator i's count of leading zero cells in slot j and its int numerators after them.
    slots = [[] for _ in gens]
    lows, depths = [], []
    for column in zip(*(g.components for g in gens)):
        low = min((f.leading for f in column if not f.is_zero), default=0)
        shifts = [math.floor(f.leading - low) for f in column]
        depth = max(min(n_terms, *(s + f.truncation_order for s, f in zip(shifts, column))), -1)
        den = math.lcm(*(f.den for f in column))
        lows.append(low)
        depths.append(depth)
        for slot, f, s in zip(slots, column, shifts):
            zeros = depth + 1 if f.is_zero else min(s, depth + 1)
            slot.append((zeros, [x * (den // f.den) for x in f.nums[: depth + 1 - zeros]]))
    depth, columns = min(depths), sum(depths) + p
    for w, d in dims:
        if columns < d:
            raise InsufficientTruncation(
                f"weight {w} has {d} candidate multiples but only {columns} "
                f"known coefficients; raise the truncation above {depth}"
            )
    wedge = "det F" if r == p else " ^ ".join(f"F_{i}" for i in range(1, r + 1))
    weight, low = sum(weights), sum(sorted(lows)[:r])  # the least L_J
    reach = math.floor(Fraction(weight + math.comb(p, r) - 1, 12) - low) if r <= p else -1
    n = min(depth, reach) + 1
    minors = _det_series([[([0] * z + nums)[:n] for z, nums in slot] for slot in slots], n) if n > 0 else {}
    leads = []
    for cols, minor in minors.items():
        first = next((t for t, c in enumerate(minor) if c), None)
        if first is not None:
            leads.append(sum([x for j, x in enumerate(lows) if cols >> j & 1], first))
    if leads:
        m = sum(rep.exponents)
        top = int(m - low)  # index of q^(sum m_j) in det F for r = p, where every slot has a nonzero component
        spans = r == p and weight == 12 * m and 0 <= top < n and minors[(1 << r) - 1][top] != 0
        claim = "a basis of H(rho)" if spans else "does not span H(rho)"
        message = f"free of rank {r}: {wedge} is nonzero at q^({min(leads)}); {claim}"
        return FreeBasisReport(True, r, k_max, dims, spans, message)
    if depth < reach:
        raise InsufficientTruncation(
            f"{wedge} vanishes through q^({low + depth}) but is decided only at its Sturm "
            f"bound q^({low + reach}); raise the truncation above {depth}"
        )
    deepest = max(*depths, 0)
    for w, d in dims:
        rows = []
        for i, g in enumerate(gens):
            gap = w - weights[i]
            if gap < 0 or gap % 2:
                continue
            for u, v in monomial_basis(gap):
                # Q^u R^v starts at q^0, so a product keeps its slot's leading zeros (empty nums, empty product)
                row = []
                for zeros, nums in slots[i]:
                    row += [0] * zeros + _int_product(_monomial(u, v, deepest)[: len(nums)], nums)
                rows.append(row)
        if linalg.rank(rows) != d:
            raise DependentGenerators(w)
    message = f"{wedge} vanishes, so the generators are dependent over M, but no weight up to {k_max} shows it"
    return FreeBasisReport(False, r, k_max, dims, False, message)


def growth_bound(ps: PoincareSeries, p: int, k0: int, k_range: int) -> Fraction:
    """max over 0 <= k <= K of |dim(k0 + 2k) - pk/6|."""
    best = Fraction(0)
    for k in range(k_range + 1):
        gap = abs(Fraction(ps_coefficient(ps, k0 + 2 * k)) - Fraction(p * k, 6))
        if gap > best:
            best = gap
    return best


def cyclic_criterion(form: VVMF) -> bool:
    """True iff every component leads exactly at its m_j and the m_j are distinct.

    This is the desk test for H(V) being cyclic over the skew ring, generated
    by the form itself.
    """
    ms = form.rep.exponents
    if len(set(ms)) != len(ms):
        return False
    for f, m in zip(form.components, ms):
        if f.is_zero or f.normalized().leading != m:
            return False
    return True
