"""Module structure over M = C[Q, R]: Poincare series and classifications.

Everything here is graded bookkeeping.  A module of vector-valued forms is
free of rank p over M with fundamental weights e_1..e_p, so its
Hilbert-Poincare series is (t^{e_1} + ... + t^{e_p}) / ((1-t^4)(1-t^6)).
The classification of reducible indecomposable 2-dimensional representations
runs over 24 classes (a, b) with a - b = +-2 mod 12, split between direct
sums and cyclic modules, with exactly two cyclic classes carrying a
1-dimensional cokernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .classical import EtaPower, PolynomialQR, dim_M, monomial_basis, to_qexpansion
from .errors import DependentGenerators, InsufficientTruncation, NotIndecomposable, OutOfRange
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
        return PoincareSeries(tuple(sorted((e, c) for e, c in num.items() if c)))

    def numerator_dict(self) -> dict:
        return dict(self.numerator)

    def __add__(self, other: PoincareSeries) -> PoincareSeries:
        acc = self.numerator_dict()
        for e, c in other.numerator:
            acc[e] = acc.get(e, 0) + c
        return PoincareSeries.make(acc)

    def __sub__(self, other: PoincareSeries) -> PoincareSeries:
        acc = self.numerator_dict()
        for e, c in other.numerator:
            acc[e] = acc.get(e, 0) - c
        return PoincareSeries.make(acc)

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
    num: dict = {}
    for e in _weight_list(weights):
        num[e] = num.get(e, 0) + 1
    return PoincareSeries.make(num)


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
    num = diff.numerator_dict()
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
    message: str


def free_basis_verify(generators, k_max: int, n_terms: int) -> FreeBasisReport:
    """Desk-scale freeness check for a proposed generating set.

    For every weight w <= k_max, spans the weight-w piece by monomial
    multiples of the generators and checks, in exact arithmetic, that they
    are linearly independent; the count then automatically matches the
    Poincare coefficient.  Consistency up to k_max is evidence, not a proof,
    of freeness.  Raises InsufficientTruncation when a weight has more
    candidate multiples than known coefficients, since rank could then never
    reach the member count whatever the generators are.
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
    weights = [g.weight for g in gens]
    series = ps_from_weights(weights)
    depth = min(min(f.truncation_order for f in g.components) for g in gens)
    depth = min(depth, n_terms)
    lead = [
        min(g.components[j].leading for g in gens) for j in range(rep.p)
    ]
    dims = []
    for w in range(min(weights), k_max + 1):
        members = []
        for i, g in enumerate(gens):
            gap = w - weights[i]
            if gap < 0 or gap % 2:
                continue
            for u, v in monomial_basis(gap):
                members.append((i, u, v))
        if not members:
            continue
        columns = rep.p * (depth + 1)
        if columns < len(members):
            raise InsufficientTruncation(
                f"weight {w} has {len(members)} candidate multiples but only {columns} "
                f"known coefficients; raise the truncation above {depth}"
            )
        rows = []
        for i, u, v in members:
            mono = to_qexpansion(PolynomialQR.monomial(u, v), depth)
            row = []
            for j in range(rep.p):
                prod = mono * gens[i].components[j]
                # Cells are the coefficients of q^(lead[j] + n), n <= depth.  prod
                # starts shift >= 0 steps in and has truncation depth, so it is
                # known through lead[j] + depth.  A zero component of another
                # generator can put lead[j] off prod's lattice: then every cell is 0.
                shift = prod.leading - lead[j]
                if prod.is_zero or shift.denominator != 1:
                    row.extend([Fraction(0)] * (depth + 1))
                else:
                    zeros = min(int(shift), depth + 1)
                    row.extend([Fraction(0)] * zeros)
                    row.extend(prod.coeffs[: depth + 1 - zeros])
            rows.append(row)
        if linalg.rank(rows) != len(members):
            raise DependentGenerators(w)
        count = len(members)
        if count != ps_coefficient(series, w):
            raise DependentGenerators(w, "spanning count disagrees with Poincare coefficient")
        dims.append((w, count))
    return FreeBasisReport(
        True,
        len(gens),
        k_max,
        tuple(dims),
        f"consistent with free of rank {len(gens)} up to weight {k_max}",
    )


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
