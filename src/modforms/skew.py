"""The skew polynomial ring R = M[d] and its action on graded forms.

Elements are finite sums ``sum_j f_j d^j`` with f_j in C[Q, R], kept in the
normal form with all coefficients to the left of the d-powers.  Products
are written ``a * b`` (as operators, a applied after b) and normalized
with the commutation rule

    d f = f d + D(f)

iterated via d^i f = sum_r binom(i, r) D^r(f) d^(i-r).  Applied to a
q-expansion regarded at weight k, each d acts as the Serre derivative at
the current weight, rightmost first: `apply` acts by the integer theta-form
sum_l h_l theta^l (`classical._theta_form`) on the shared D^j levels at k.
"""

from __future__ import annotations

from math import comb

from .classical import PolynomialQR, _apply_theta_form, _collect, _theta_form, serre_derivative_poly
from .errors import Record
from .qseries import QExpansion


class SkewPolynomial(Record):
    """Normal form sum of (coefficient in C[Q,R]) * d^power terms."""

    __slots__ = ("terms",)  # sorted tuple of (power, PolynomialQR), zero coefficients removed

    @staticmethod
    def make(terms) -> SkewPolynomial:
        terms = dict(terms)
        if any(power < 0 for power, coeff in terms.items() if coeff):
            raise ValueError("d-power must be nonnegative")
        return SkewPolynomial(_collect(terms.items()))

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
        return SkewPolynomial(_collect(self.terms + other.terms))

    def __sub__(self, other: SkewPolynomial) -> SkewPolynomial:
        return self + (-other)

    def __neg__(self) -> SkewPolynomial:
        return SkewPolynomial(tuple((p, -c) for p, c in self.terms))

    def __mul__(self, other):
        if isinstance(other, SkewPolynomial):
            terms = []
            for i, f in self.terms:
                for j, g in other.terms:
                    dg = g
                    for r in range(i + 1):
                        terms.append((i + j - r, (f * dg).scale(comb(i, r))))
                        if r < i:
                            dg = serre_derivative_poly(dg)
            return SkewPolynomial(_collect(terms))
        if isinstance(other, PolynomialQR):
            return self * SkewPolynomial.from_poly(other)
        return SkewPolynomial(tuple((p, c.scale(other)) for p, c in self.terms))

    def __rmul__(self, other):
        if isinstance(other, PolynomialQR):
            return SkewPolynomial.from_poly(other) * self
        return SkewPolynomial(tuple((p, c.scale(other)) for p, c in self.terms))

    def apply(self, f: QExpansion, k, terms: int | None = None) -> QExpansion:
        """Act on a q-expansion regarded at weight k.

        The operator is written in theta-form at weight k, so the same
        series may be regarded at different weights by different calls.
        """
        if terms is None:
            terms = f.truncation_order
        f = f.truncate(min(terms, f.truncation_order))
        if self.is_zero:
            return QExpansion.zero(terms)
        return _apply_theta_form(*_theta_form(self.terms, k, f.truncation_order), f)


#: The derivation generator of M[d].
d = SkewPolynomial.d()

