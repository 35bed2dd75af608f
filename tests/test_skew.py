import random
from fractions import Fraction

import pytest

from modforms.classical import (
    PolynomialQR,
    delta,
    eisenstein,
    from_qexpansion,
    monomial_basis,
    serre_derivative_poly,
    to_qexpansion,
)
from modforms.qseries import QExpansion
from modforms.skew import SkewPolynomial, d

F = Fraction


def poly(u, v, c=1):
    return PolynomialQR.monomial(u, v, c)


def test_commutation_rule():
    # d*Q = Q*d + D(Q) with D(Q) = -R/3
    out = d * SkewPolynomial.from_poly(poly(1, 0))
    assert dict(out.terms) == {
        0: poly(0, 1, F(-1, 3)),
        1: poly(1, 0),
    }


def test_d_times_constant():
    out = d * SkewPolynomial.from_poly(poly(0, 0))
    assert dict(out.terms) == {1: poly(0, 0)}


def test_associativity():
    q = SkewPolynomial.from_poly(poly(1, 0))
    assert (d * q) * d == d * (q * d)
    r = SkewPolynomial.from_poly(poly(0, 1))
    # homogeneous weight-8 operators
    a = d * r + SkewPolynomial.make({2: poly(1, 0)})
    b = SkewPolynomial.d(2) * q
    assert a.weight() == b.weight() == 8
    assert (a * b) * a == a * (b * a)


def test_weight():
    assert d.weight() == 2
    assert (d * SkewPolynomial.from_poly(poly(1, 0))).weight() == 6
    mixed = d + SkewPolynomial.from_poly(poly(1, 0))
    with pytest.raises(ValueError):
        mixed.weight()


def test_apply_annihilates_delta():
    assert d.apply(delta(24), 12).is_zero


def test_apply_defining_identity_on_series():
    rng = random.Random(7)
    g = QExpansion.make([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(12)])
    q = SkewPolynomial.from_poly(poly(1, 0))
    lhs = (d * q - q * d).apply(g, 8)
    rhs = to_qexpansion(poly(0, 1, F(-1, 3)), g.truncation_order) * g
    assert (lhs - rhs.truncate(lhs.truncation_order)).is_zero


def test_apply_second_derivative_of_e4():
    out = SkewPolynomial.d(2).apply(eisenstein("Q", 20), 4)
    want = to_qexpansion(poly(2, 0, F(1, 6)), 20)
    assert (out - want).is_zero


def _random_homogeneous(rng, max_weight=16):
    """A homogeneous skew polynomial with random monomial coefficients."""
    weight = rng.choice(range(0, max_weight + 1, 2))
    terms = {}
    for power in range(0, weight // 2 + 1):
        coeff_weight = weight - 2 * power
        basis = monomial_basis(coeff_weight)
        if basis and rng.random() < 0.7:
            u, v = rng.choice(basis)
            terms[power] = poly(u, v, F(rng.randint(-6, 6), rng.randint(1, 4)))
    if not terms:
        terms = {weight // 2: poly(0, 0)}
    return SkewPolynomial.make(terms)


def test_operator_faithfulness():
    # apply(a*b, f, k) = apply(a, apply(b, f, k), k + weight(b))
    rng = random.Random(20260823)
    for _ in range(25):
        a = _random_homogeneous(rng)
        b = _random_homogeneous(rng)
        f = QExpansion.make([F(rng.randint(-9, 9)) for _ in range(14)])
        k = rng.randint(0, 12)
        lhs = (a * b).apply(f, k)
        rhs = a.apply(b.apply(f, k), k + b.weight())
        n = min(lhs.truncation_order, rhs.truncation_order)
        assert (lhs.truncate(n) - rhs.truncate(n)).is_zero


def test_weight_bookkeeping_lands_in_M():
    s = d * SkewPolynomial.from_poly(poly(1, 0)) + SkewPolynomial.from_poly(poly(0, 1))
    assert s.weight() == 6
    out = s.apply(eisenstein("Q", 16), 4)
    m = from_qexpansion(out, 10)
    assert m.weight == 10
