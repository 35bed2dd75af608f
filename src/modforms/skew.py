"""The skew polynomial ring R = M[d] and its action on graded forms.

Elements are finite sums ``sum_j f_j d^j`` with f_j in C[Q, R], kept in the
normal form with all coefficients to the left of the d-powers.  Products
are written ``a * b`` (as operators, a applied after b) and normalized
with the commutation rule

    d f = f d + D(f)

iterated via d^i f = sum_r binom(i, r) D^r(f) d^(i-r).  Applied to a
q-expansion regarded at weight k, each d acts as the Serre derivative at
the current weight (rightmost d first, weight climbing by 2 per step).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .classical import PolynomialQR, serre_derivative, serre_derivative_poly, to_qexpansion
from .qseries import QExpansion


@dataclass(frozen=True)
class SkewPolynomial:
    """Normal form sum of (coefficient in C[Q,R]) * d^power terms."""

    terms: tuple  # sorted tuple of (power, PolynomialQR), zero coefficients removed

    @staticmethod
    def make(terms) -> SkewPolynomial:
        acc: dict[int, PolynomialQR] = {}
        for power, coeff in dict(terms).items():
            if coeff.is_zero:
                continue
            if power < 0:
                raise ValueError("d-power must be nonnegative")
            acc[power] = acc[power] + coeff if power in acc else coeff
        return SkewPolynomial(tuple(sorted((p, c) for p, c in acc.items() if not c.is_zero)))

    @staticmethod
    def from_poly(coeff: PolynomialQR) -> SkewPolynomial:
        return SkewPolynomial.make({0: coeff})

    @staticmethod
    def d(power: int = 1) -> SkewPolynomial:
        return SkewPolynomial.make({power: PolynomialQR.monomial(0, 0)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> int:
        return max((p for p, _ in self.terms), default=0)

    def weight(self) -> int:
        """Total weight of a homogeneous element (coefficient weight + 2 * d-power)."""
        weights = {c.weight + 2 * p for p, c in self.terms}
        if len(weights) > 1:
            raise ValueError(f"skew polynomial is not homogeneous: weights {sorted(weights)}")
        return weights.pop() if weights else 0

    def __add__(self, other: SkewPolynomial) -> SkewPolynomial:
        acc = dict(self.terms)
        for p, c in other.terms:
            acc[p] = acc[p] + c if p in acc else c
        return SkewPolynomial(tuple(sorted((p, c) for p, c in acc.items() if not c.is_zero)))

    def __sub__(self, other: SkewPolynomial) -> SkewPolynomial:
        return self + (-other)

    def __neg__(self) -> SkewPolynomial:
        return SkewPolynomial(tuple((p, -c) for p, c in self.terms))

    def __mul__(self, other):
        if isinstance(other, SkewPolynomial):
            acc: dict[int, PolynomialQR] = {}
            for i, f in self.terms:
                for j, g in other.terms:
                    dg = g
                    for r in range(i + 1):
                        power = i + j - r
                        term = (f * dg).scale(comb(i, r))
                        acc[power] = acc[power] + term if power in acc else term
                        if r < i:
                            dg = serre_derivative_poly(dg)
            return SkewPolynomial(
                tuple(sorted((p, c) for p, c in acc.items() if not c.is_zero))
            )
        if isinstance(other, PolynomialQR):
            return self * SkewPolynomial.from_poly(other)
        return SkewPolynomial(tuple((p, c.scale(other)) for p, c in self.terms))

    def __rmul__(self, other):
        if isinstance(other, PolynomialQR):
            return SkewPolynomial.from_poly(other) * self
        return SkewPolynomial(tuple((p, c.scale(other)) for p, c in self.terms))

    def apply(self, f: QExpansion, k, terms: int | None = None) -> QExpansion:
        """Act on a q-expansion regarded at weight k.

        The weight is threaded through the d-tower explicitly, so the same
        series may be regarded at different weights by different calls.
        """
        if terms is None:
            terms = f.truncation_order
        f = f.truncate(min(terms, f.truncation_order))
        if self.is_zero:
            return QExpansion.zero(terms)
        tower = {0: f}
        weight = Fraction(k)
        for j in range(1, self.order() + 1):
            tower[j] = serre_derivative(tower[j - 1], weight + 2 * (j - 1))
        acc = None
        for power, coeff in self.terms:
            piece = to_qexpansion(coeff, terms) * tower[power]
            acc = piece if acc is None else acc + piece
        return acc


#: The derivation generator of M[d].
d = SkewPolynomial.d()

