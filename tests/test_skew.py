import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from test_classical import theta_plus_kpf

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


# -- apply through the theta-form against the Serre tower it replaced --

def tower_apply(op, f, k, terms=None):
    """Reference: apply as it was before the theta-form, p Serre derivatives and a product per term.

    Each Serre derivative is theta f + k P f in series arithmetic, not `serre_derivative`, which
    reads the Serre tower that apply's theta-form is summed from.
    """
    if terms is None:
        terms = f.truncation_order
    f = f.truncate(min(terms, f.truncation_order))
    if op.is_zero:
        return QExpansion.zero(terms)
    tower = {0: f}
    weight = Fraction(k)
    for j in range(1, op.order() + 1):
        tower[j] = theta_plus_kpf(tower[j - 1], weight + 2 * (j - 1))
    acc = None
    for power, coeff in op.terms:
        piece = to_qexpansion(coeff, terms) * tower[power]
        acc = piece if acc is None else acc + piece
    return acc


DENOMINATORS = (1, 2, 7, 1728, 2**61 - 1)


@st.composite
def skew_polynomials(draw):
    """Up to order 4, any top coefficient, powers missing at random, not homogeneous."""
    terms = {}
    for power in range(draw(st.integers(-1, 4)) + 1):
        if draw(st.booleans()):
            continue
        weight = draw(st.sampled_from((0, 4, 6, 8, 10, 12, 14, 16)))
        u, v = draw(st.sampled_from(monomial_basis(weight)))
        num = draw(st.integers(-9, 9).filter(bool))
        terms[power] = poly(u, v, F(num, draw(st.sampled_from(DENOMINATORS))))
    return SkewPolynomial.make(terms)


@st.composite
def series(draw):
    """A series at leading exponent 0, 1/24, 7/5 or -1/3, sometimes zero, to q^0..q^40."""
    leading = draw(st.sampled_from((F(0), F(1, 24), F(7, 5), F(-1, 3))))
    n = draw(st.integers(0, 40))
    if draw(st.integers(0, 9)) == 0:
        return QExpansion(leading, (F(0),) * (n + 1))
    nums = draw(st.lists(st.integers(-(10**6), 10**6), min_size=n + 1, max_size=n + 1))
    return QExpansion(leading, tuple(F(x, draw(st.sampled_from((1, 3, 1000003)))) for x in nums))


@settings(max_examples=150, deadline=None)
@given(
    skew_polynomials(),
    series(),
    st.sampled_from((F(13, 2), F(-1, 3), F(5, 12), F(0), F(4), F(12))),
    st.sampled_from((None, -5, 0, 4)),
)
@example(SkewPolynomial.make({}), eisenstein("Q", 12), F(4), None)
@example(SkewPolynomial.make({}), eisenstein("Q", 12), F(4), 4)
@example(SkewPolynomial.d(3) + SkewPolynomial.from_poly(poly(0, 1)), QExpansion.zero(20), F(-1, 3), -5)
@example(
    SkewPolynomial.make({4: poly(1, 0, F(3, 2**61 - 1)), 1: poly(0, 2, F(-5, 1728))}),
    QExpansion.make([F(i * i - 7, 1000003) for i in range(40)], F(-1, 3)),
    F(5, 12),
    0,
)
def test_apply_matches_serre_tower(op, f, k, shift):
    terms = None if shift is None else max(f.truncation_order + shift, 0)
    got = op.apply(f, k, terms)
    assert got == tower_apply(op, f, k, terms)
    assert all(type(c) is Fraction for c in got.coeffs)
