import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modforms.errors import CannotExtend, NonConvergent, NonIntegralOffset
from modforms.classical import eisenstein, euler_product
from modforms.qseries import QExpansion

F = Fraction

# frozen oracles: E4(2i) by direct sigma_3 summation, eta(i)^2 = Gamma(1/4)^2/(4 pi^(3/2))
E4_AT_2I = 1.0008369884347377
ETA_SQ_AT_I = 0.5901702995080482


def series(*coeffs, leading=0):
    return QExpansion.make(coeffs, leading)


def test_make_coerces_scalars():
    f = series(1, "5/6", F(2, 3))
    assert f.coeffs == (F(1), F(5, 6), F(2, 3))
    # exact coefficients only: there is no floating-point domain
    with pytest.raises(TypeError):
        series(1.5, 2)


def test_coefficient_lattice():
    f = series(1, 2, 3, leading=F(5, 12))
    assert f.coefficient(F(5, 12)) == 1
    assert f.coefficient(F(17, 12)) == 2
    # below the leading exponent the series is exactly zero
    assert f.coefficient(F(-7, 12)) == 0
    # off-lattice exponents are exactly zero as well
    assert f.coefficient(F(1, 2)) == 0
    with pytest.raises(CannotExtend):
        f.coefficient(F(5, 12) + 3)


def test_truncation_is_knowledge():
    f = series(*range(10))
    assert f.truncation_order == 9
    assert f.truncate(4).coeffs == (F(0), F(1), F(2), F(3), F(4))
    with pytest.raises(CannotExtend):
        f.truncate(10)
    # the zero series extends freely: absent terms of zero are still zero
    assert QExpansion.zero(3).truncate(10).truncation_order == 10


def test_add_same_lattice():
    f = series(1, 2, 3)
    g = series(10, 20, 30, 40)
    assert (f + g).coeffs == (F(11), F(22), F(33))  # clipped to shared horizon


def test_add_integral_offset():
    f = series(1, 1, leading=1)
    g = series(5, 0, 0, 0)
    out = g + f
    assert out.leading == 0
    assert out.coeffs == (F(5), F(1), F(1))


def test_add_non_integral_offset_rejected():
    with pytest.raises(NonIntegralOffset):
        series(1, leading=F(1, 12)) + series(1, leading=0)


def test_add_zero_aligns_to_any_lattice():
    z = QExpansion.zero(64)
    f = series(1, 2, leading=F(5, 6))
    out = f + z
    assert out.leading == F(5, 6)
    assert out.coeffs == (F(1), F(2))


def test_mul_convolution():
    f = series(1, 1)
    assert (f * f).coeffs == (F(1), F(2))  # truncation order 1 is preserved
    g = series(1, 1, 0)
    assert (g * g).coeffs == (F(1), F(2), F(1))


def test_mul_leading_exponents_add():
    f = series(2, leading=F(1, 12))
    g = series(3, leading=F(5, 12))
    assert (f * g).leading == F(1, 2)
    assert (f * g).coeffs == (F(6),)


def test_scale_zero_keeps_the_horizon():
    f = series(1, 2, leading=F(7, 12))
    z = f.scale(0)
    assert z.is_zero and z.horizon == f.horizon


def test_theta():
    f = series(4, 5, leading=F(1, 2))
    assert f.theta().coeffs == (F(2), F(15, 2))


def test_normalized_shifts_leading():
    f = series(0, 0, 7, 1)
    assert f.normalized().leading == 2
    assert f.normalized().coeffs == (F(7), F(1))


def test_evaluate_against_frozen_oracles():
    e4 = QExpansion.make(
        [1] + [240 * sum(d**3 for d in range(1, n + 1) if n % d == 0) for n in range(1, 41)]
    )
    assert abs(e4.evaluate(2j) - E4_AT_2I) < 1e-12
    assert abs(ETA_SQ_AT_I - math.gamma(0.25) ** 2 / (4 * math.pi**1.5)) < 1e-15


def test_evaluate_domain():
    f = series(1, 1)
    with pytest.raises(ValueError):
        f.evaluate(1.0)
    with pytest.raises(ValueError):
        f.evaluate(1 - 1j)
    with pytest.warns(NonConvergent):
        f.evaluate(0.001j)


def test_canonical_form():
    # truncation can shrink the common denominator: the fields stay canonical
    short = QExpansion.make([1, F(1, 3)]).truncate(0)
    assert short == QExpansion.make([1]) and hash(short) == hash(QExpansion.make([1]))
    assert short.den == 1 and short.nums == (1,)


def test_evaluate_huge_numerators():
    f = QExpansion.make([F(2**1100 + 1, 2**1100)])
    assert abs(f.evaluate(1j) - 1) < 1e-15


def test_evaluate_fractional_leading():
    # q^(1/2) at tau = i is e^(-pi)
    f = series(1, leading=F(1, 2))
    assert abs(f.evaluate(1j) - math.exp(-math.pi)) < 1e-15


rational = st.fractions(min_value=-50, max_value=50, max_denominator=9)
coeff_lists = st.lists(rational, min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists)
def test_add_commutes(a, b):
    f, g = QExpansion.make(a), QExpansion.make(b)
    assert f + g == g + f


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists, coeff_lists)
def test_mul_distributes(a, b, c):
    f, g, h = QExpansion.make(a), QExpansion.make(b), QExpansion.make(c)
    n = min(f.truncation_order, g.truncation_order, h.truncation_order)
    lhs = (f * (g + h)).truncate(n)
    rhs = (f * g + f * h).truncate(n)
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists)
def test_theta_is_a_derivation(a, b):
    f, g = QExpansion.make(a), QExpansion.make(b)
    n = min(f.truncation_order, g.truncation_order)
    lhs = (f * g).theta().truncate(n)
    rhs = (f.theta() * g + f * g.theta()).truncate(n)
    assert lhs == rhs


# -- the integer multiply kernel against the Fraction convolution it replaced --

def fraction_convolution(f: QExpansion, g: QExpansion) -> QExpansion:
    """Reference product: coefficient pairs multiplied in Fraction arithmetic."""
    n_out = min(f.truncation_order, g.truncation_order)
    coeffs = [Fraction(0)] * (n_out + 1)
    for i, a in enumerate(f.coeffs[: n_out + 1]):
        if a == 0:
            continue
        for j in range(min(n_out - i, g.truncation_order) + 1):
            b = g.coeffs[j]
            if b != 0:
                coeffs[i + j] += a * b
    return QExpansion(f.leading + g.leading, tuple(coeffs))


# 1000003 and 2^89 - 1 are prime
DENOMINATORS = (1, 12, 1728, 1000003, 2**89 - 1)


@st.composite
def kernel_operands(draw):
    """Series of 1 to 40 terms: dense, sparse or zero, integral or over mixed
    denominators, up to hundreds of bits per coefficient."""
    n = draw(st.integers(1, 2 * 16 + 8))
    shape = draw(st.sampled_from(("dense", "sparse", "zero")))
    top = 2 ** draw(st.sampled_from((1, 20, 64, 400)))
    denominators = draw(st.lists(st.sampled_from(DENOMINATORS), min_size=1, max_size=3))
    coeff = st.builds(Fraction, st.integers(-top, top), st.sampled_from(denominators))
    if shape == "sparse":
        coeff = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), coeff)
    elif shape == "zero":
        coeff = st.just(Fraction(0))
    leading = draw(st.fractions(min_value=0, max_value=3, max_denominator=24))
    return QExpansion(leading, tuple(draw(st.lists(coeff, min_size=n, max_size=n))))


def high_height(n: int, leading) -> QExpansion:
    """n dense coefficients with 256-bit numerators of both signs over 1728 and 7."""
    return QExpansion.make([F((-1) ** i * (2**255 + 7 * i), 1728 if i % 2 else 7) for i in range(n)], leading)


@settings(max_examples=150, deadline=None)
@given(kernel_operands(), kernel_operands())
@example(
    QExpansion.make([2**300 - 1] * (16 + 5), F(1, 12)),
    QExpansion.make([F(-(2**299), 1728)] * (16 + 9), F(5, 6)),
)
@example(QExpansion.zero(16 + 3), QExpansion.make(range(1, 16 + 2)))
@example(high_height(2, F(1, 12)), high_height(2, F(5, 6)))
@example(high_height(8, 0), high_height(8, F(13, 24)))
@example(high_height(15, F(1, 3)), high_height(15, 2))
@example(euler_product(1), eisenstein("R", 1))
@example(euler_product(7), eisenstein("R", 7))
@example(euler_product(14), eisenstein("R", 14))
@example(QExpansion.make([F(-7, 12)] + [0] * 7), high_height(8, F(1, 12)))
@example(QExpansion.make([F(1, 2**89 - 1)]), QExpansion.make([F(-7, 12), 5]))
def test_mul_matches_fraction_convolution(f, g):
    expected = fraction_convolution(f, g)
    for product in (f * g, g * f):
        assert product == expected
        assert all(type(c) is Fraction for c in product.coeffs)


def assert_series(series, leading, coeffs):
    """series is q^leading * coeffs, as reduced Fractions and in canonical form."""
    assert series.leading == leading
    assert series.coeffs == tuple(coeffs)
    assert all(type(c) is Fraction for c in series.coeffs)
    assert series.den > 0 and math.gcd(series.den, *series.nums) == 1


def fraction_add(f: QExpansion, g: QExpansion):
    """Reference sum of two nonzero series on one lattice, in Fraction arithmetic."""
    low = min(f.leading, g.leading)
    n_out = int(min(f.horizon, g.horizon) - low)
    coeffs = [Fraction(0)] * (n_out + 1)
    for series in (f, g):
        shift = int(series.leading - low)
        for i, c in enumerate(series.coeffs[: max(n_out + 1 - shift, 0)]):
            coeffs[shift + i] += c
    return low, coeffs


@settings(max_examples=100, deadline=None)
@given(
    kernel_operands(),
    kernel_operands(),
    st.integers(0, 3),
    st.one_of(st.just(Fraction(0)), st.fractions(max_denominator=2**70)),
    st.integers(0, 2 * 16 + 8),
)
@example(QExpansion.make([0, 0, F(2, 3), F(1, 3)], F(1, 3)), QExpansion.make([F(1, 3)]), 1, F(3, 2), 2)
def test_ops_match_fraction_arithmetic(f, g, lift, c, order):
    a = list(f.coeffs)
    # g moved onto f's lattice, lift whole steps above or below it
    g = QExpansion(f.leading + lift - 1, g.coeffs)
    assert_series(-f, f.leading, [-x for x in a])
    assert_series(f.scale(c), f.leading, [c * x for x in a])
    assert_series(f.theta(), f.leading, [(f.leading + n) * x for n, x in enumerate(a)])
    if order <= f.truncation_order:
        assert_series(f.truncate(order), f.leading, a[: order + 1])
    shift = next((n for n, x in enumerate(a) if x), None)
    if shift is None:
        assert_series(f.normalized(), 0, [Fraction(0)] * (max(math.floor(f.horizon), 0) + 1))
    else:
        assert_series(f.normalized(), f.leading + shift, a[shift:])
    for n, x in enumerate(a):
        assert f.coefficient(f.leading + n) == x
    assert f.coefficient(f.leading - 1) == 0 and f.coefficient(f.leading - F(1, 2)) == 0
    if f.truncation_order:
        assert f.coefficient(f.leading + F(1, 2)) == 0
    if not (f.is_zero or g.is_zero):
        assert_series(f + g, *fraction_add(f, g))
        assert_series(f - g, *fraction_add(f, QExpansion(g.leading, [-x for x in g.coeffs])))
