import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modforms.classical import (
    PolynomialQR,
    _apply_theta_form,
    _monomial,
    _serre_tower,
    _theta_form,
    delta,
    dim_M,
    eisenstein,
    eta_power,
    euler_product,
    from_qexpansion,
    monomial_basis,
    serre_derivative,
    serre_derivative_poly,
    to_qexpansion,
)
from modforms.errors import AmbiguousTruncation, CannotExtend, NotInM, OddWeight
from modforms.mlde import fundamental_system, mlde_from_exponents, solve_frobenius, verify_solution
from modforms.qseries import QExpansion

F = Fraction


def _sigma(k, n):
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def test_eisenstein_against_divisor_sums():
    n = 20
    q4 = eisenstein("Q", n)
    q6 = eisenstein("R", n)
    p2 = eisenstein("P", n)
    assert q4.coeffs[0] == 1 and q6.coeffs[0] == 1 and p2.coeffs[0] == F(-1, 12)
    for m in range(1, n + 1):
        assert q4.coeffs[m] == 240 * _sigma(3, m)
        assert q6.coeffs[m] == -504 * _sigma(5, m)
        # the factor 2 here is what makes D(delta) = 0; the more common
        # normalization -E2/12 has sigma_1 with coefficient 2 after scaling
        assert p2.coeffs[m] == 2 * _sigma(1, m)


def test_delta_expansion():
    d = delta(6)
    assert [d.coefficient(n) for n in range(6)] == [0, 1, -24, 252, -1472, 4830]


def test_euler_product_pentagonal():
    e = euler_product(15)
    expect = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1}
    for n in range(16):
        assert e.coeffs[n] == expect.get(n, 0)


def test_eta_powers():
    assert (eta_power(24, 20) - delta(20)).is_zero
    e2 = eta_power(2, 12)
    assert e2.leading == F(1, 12)
    prod = euler_product(12) * euler_product(12)
    assert e2.coeffs == prod.coeffs
    assert eta_power(0, 8) == QExpansion.one(8)
    with pytest.raises(ValueError):
        eta_power(-2, 8)


def test_dim_M():
    table = {0: 1, 2: 0, 4: 1, 6: 1, 8: 1, 10: 1, 12: 2, 14: 1, 16: 2, 24: 3, 26: 2}
    for w, d in table.items():
        assert dim_M(w) == d
    assert dim_M(-4) == 0
    with pytest.raises(OddWeight):
        dim_M(5)


def test_monomial_basis():
    assert monomial_basis(0) == [(0, 0)]
    assert monomial_basis(12) == [(0, 2), (3, 0)]
    assert monomial_basis(2) == []
    for w in range(0, 60, 2):
        assert len(monomial_basis(w)) == dim_M(w)


def test_polynomial_algebra():
    q = PolynomialQR.monomial(1, 0)
    r = PolynomialQR.monomial(0, 1)
    sq = q * q
    assert sq.weight == 8 and dict(sq.coords) == {(2, 0): F(1)}
    mixed = q * r
    assert mixed.weight == 10
    s = PolynomialQR.make(12, {(0, 2): 1, (3, 0): -1})
    assert dict((s + s).coords) == {(0, 2): F(2), (3, 0): F(-2)}
    assert (s - s).is_zero
    assert s.scale(F(1, 2)).constant_term() == 0
    with pytest.raises(ValueError):
        PolynomialQR.make(10, {(1, 0): 1})  # weight mismatch


def test_to_from_qexpansion_round_trip():
    m = PolynomialQR.make(12, {(0, 2): F(3, 7), (3, 0): F(-2)})
    f = to_qexpansion(m, 12)
    assert from_qexpansion(f, 12) == m


def test_from_qexpansion_rejects_non_forms():
    f = QExpansion.make([1, 1, 0, 0, 0, 0, 0])
    with pytest.raises(NotInM):
        from_qexpansion(f, 4)
    with pytest.raises(NotInM):
        from_qexpansion(eta_power(2, 12), 2)  # fractional leading exponent
    with pytest.raises(AmbiguousTruncation):
        from_qexpansion(QExpansion.make([1]), 12)


def test_from_qexpansion_identifies_delta():
    m = from_qexpansion(delta(16), 12)
    assert dict(m.coords) == {(0, 2): F(-1, 1728), (3, 0): F(1, 1728)}


def test_serre_derivative_ramanujan():
    n = 24
    q4, q6 = eisenstein("Q", n), eisenstein("R", n)
    assert (serre_derivative(q4, 4) + q6.scale(F(1, 3))).is_zero
    assert (serre_derivative(q6, 6) + (q4 * q4).scale(F(1, 2))).is_zero


def test_serre_derivative_kills_eta_powers():
    assert serre_derivative(delta(24), 12).is_zero
    for k in (1, 3, 7):
        assert serre_derivative(eta_power(2 * k, 24), k).is_zero


def theta_plus_kpf(f, k, terms=None):
    """Reference Serre derivative: theta(f) + k P f through the series arithmetic."""
    out = f.theta() + (eisenstein("P", f.truncation_order) * f).scale(k)
    return out.truncate(terms) if terms is not None and terms < out.truncation_order else out


SERRE_SIZES = (16 - 5, 16, 16 + 40)


@pytest.mark.parametrize("n", SERRE_SIZES)
@pytest.mark.parametrize("k", [12, F(13, 2), 4, F(-1, 3), -1])  # -1: k_0 of (0, 1/12, 2/12)
def test_serre_derivative_matches_theta_plus_kPf(n, k):
    frobenius = solve_frobenius(mlde_from_exponents([0, F(5, 6)]), F(5, 6), n)
    forms = [
        delta(n),
        eta_power(13, n),  # leading exponent 13/24
        eisenstein("Q", n),
        frobenius,  # rational coefficients, leading exponent 5/6
        QExpansion.zero(n),
        QExpansion.make([0, 0, F(3, 7)] + [F(-1, 1728)] * (n - 2), F(7, 5)),
    ]
    for f in forms:
        for terms in (None, n // 2, n + 3):
            got = serre_derivative(f, k, terms)
            assert got == theta_plus_kpf(f, k, terms)
            assert all(type(c) is Fraction for c in got.coeffs)


def test_serre_derivative_poly_matches_series():
    for m in [
        PolynomialQR.monomial(1, 0),
        PolynomialQR.monomial(0, 1),
        PolynomialQR.make(12, {(0, 2): 1, (3, 0): F(5, 3)}),
    ]:
        dm = serre_derivative_poly(m)
        assert dm.weight == m.weight + 2
        lhs = to_qexpansion(dm, 16)
        rhs = serre_derivative(to_qexpansion(m, 16), m.weight)
        assert (lhs - rhs).is_zero


def test_serre_derivative_poly_leibniz():
    q = PolynomialQR.monomial(1, 0)
    r = PolynomialQR.monomial(0, 1)
    lhs = serre_derivative_poly(q * r)
    rhs = serre_derivative_poly(q) * r + q * serre_derivative_poly(r)
    assert (lhs - rhs).is_zero


def test_theta_form_is_immutable():
    # the form is cached and shared, so it must be all tuples
    eq = mlde_from_exponents([F(1, 12), F(5, 12), F(9, 12)])
    den, h = _theta_form(eq.to_skew().terms, eq.weight, 8)
    assert type(den) is int and type(h) is tuple
    assert len(h) == 4 and all(type(hl) is tuple and len(hl) == 9 for hl in h)
    assert _theta_form(eq.to_skew().terms, eq.weight, 8)[1] is h


def test_tower_levels_are_tuples_and_monic():
    # levels are cached and shared by every operator of their weight, so they must be all tuples
    for k, j, n in ((4, 0, 6), (F(13, 2), 3, 6), (-2, 4, 0), (F(-1, 2), 2, 17)):
        den, rows = _serre_tower(k, j, n)
        assert type(den) is int and type(rows) is tuple and len(rows) == j + 1
        assert all(type(row) is tuple and len(row) == n + 1 for row in rows)
        assert rows[-1] == (den,) + (0,) * n  # D^j = theta^j + lower powers


@pytest.mark.parametrize("k", [0, 3, 4, -5, F(13, 2), F(-1, 2)])
def test_tower_matches_chained_serre_derivatives(k):
    # level j applied to f is D^j f = D_{k+2(j-1)} ... D_{k+2} D_k f; each step is theta f + k P f in
    # series arithmetic, since serre_derivative reads level 1 of the tower under test
    rng = random.Random(25)
    for n in (0, 1, 7, 24):
        leading = F(rng.randint(-12, 24), rng.choice((1, 2, 12, 24)))
        f = QExpansion.make([F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(n + 1)], leading)
        chained = f
        for j in range(5):
            den, rows = _serre_tower(k, j, n)
            assert _apply_theta_form(den, rows, f) == chained, (k, n, j)
            chained = theta_plus_kpf(chained, k + 2 * j)


def reference_to_qexpansion(m, terms):
    """The M -> series map through series arithmetic, one power dict per call."""
    if m.is_zero:
        return QExpansion.zero(terms)
    q4 = eisenstein("Q", terms)
    q6 = eisenstein("R", terms)
    powers_q = {0: QExpansion.one(terms)}
    powers_r = {0: QExpansion.one(terms)}
    acc = QExpansion.zero(terms)
    for (u, v), c in m.coords:
        for powers, base, e in ((powers_q, q4, u), (powers_r, q6, v)):
            while e not in powers:
                top = max(powers)
                powers[top + 1] = powers[top] * base
        acc = acc + (powers_q[u] * powers_r[v]).scale(c)
    return acc


@st.composite
def polynomials(draw):
    """Random subsets of the monomial basis of M_w, w <= 60, with large or shared denominators."""
    w = 2 * draw(st.integers(0, 30))
    basis = monomial_basis(w)
    chosen = draw(st.lists(st.sampled_from(basis), unique=True, max_size=len(basis))) if basis else []
    dens = st.sampled_from([1, 7, 1728, 2**61 - 1])
    return PolynomialQR.make(w, {b: F(draw(st.integers(-(10**6), 10**6)), draw(dens)) for b in chosen})


@settings(max_examples=100, deadline=None)
@given(polynomials(), st.integers(0, 40), st.integers(0, 40))
@example(PolynomialQR.zero(12), 16, 16 - 1)
@example(PolynomialQR.make(60, {(15, 0): F(1, 7), (0, 10): F(-3, 1728)}), 16 - 1, 40)
def test_to_qexpansion_matches_reference(m, n1, n2):
    # two truncations per example, so one N's table cannot stand in for another's
    for n in (n1, n2):
        assert to_qexpansion(m, n) == reference_to_qexpansion(m, n)
    for n in (n1, n2):
        if n + 1 >= dim_M(m.weight):
            assert from_qexpansion(to_qexpansion(m, n), m.weight) == m


def test_to_qexpansion_of_a_high_power():
    m = PolynomialQR.monomial(1200, 0)
    f = to_qexpansion(m, 4)
    assert f.nums[:3] == (1, 288000, 41440032000)
    assert f == reference_to_qexpansion(m, 4)


@pytest.mark.parametrize("n", [0, 1, 16 - 1, 16, 70])
def test_delta_matches_series_arithmetic(n):
    q4, q6 = eisenstein("Q", n), eisenstein("R", n)
    assert delta(n) == (q4 * q4 * q4 - q6 * q6).scale(F(1, 1728))


def test_eta_power_matches_repeated_multiplication():
    for n in (0, 16 - 3, 16 + 20):
        acc = QExpansion.one(n)
        for h in range(31):
            assert eta_power(h, n) == QExpansion.make(acc.coeffs, F(h, 24))
            acc = acc * euler_product(n)


def test_round_trip_through_the_table():
    m = PolynomialQR.make(60, {(u, v): F(u - v, 1 + u * 1728) for u, v in monomial_basis(60)})
    for n in (16, 40):
        assert from_qexpansion(to_qexpansion(m, n), 60) == m


def test_monomial_expands_only_nonzero_powers():
    for (u, v), entries in (((3, 0), 1), ((0, 2), 1), ((0, 0), 0)):
        eisenstein.cache_clear()
        _monomial.cache_clear()
        _monomial(u, v, 20)
        assert eisenstein.cache_info().currsize == entries
    assert _monomial(0, 0, 20) == (1,) + (0,) * 20


def test_from_qexpansion_where_M_w_is_zero():
    for w in (2, -4):
        with pytest.raises(NotInM):
            from_qexpansion(delta(10), w)
        assert from_qexpansion(QExpansion.zero(10), w) == PolynomialQR.zero(w)


DELTA_SQUARED = PolynomialQR.make(24, {(6, 0): F(1, 1728**2), (3, 2): F(-2, 1728**2), (0, 4): F(1, 1728**2)})


@pytest.mark.parametrize(
    "form, known_through",
    [(PolynomialQR.make(12, {(3, 0): F(1, 1728), (0, 2): F(-1, 1728)}), 0), (DELTA_SQUARED, 1)],
    ids=["delta_to_q0", "delta_squared_to_q1"],
)
def test_from_qexpansion_refuses_a_zero_known_below_dim_M(form, known_through):
    # every known coefficient is 0, but dim M_w of them are needed to tell the form from zero
    f = to_qexpansion(form, known_through)
    assert f.is_zero
    with pytest.raises(AmbiguousTruncation):
        from_qexpansion(f, form.weight)
    assert from_qexpansion(to_qexpansion(form, known_through + 1), form.weight) == form


def test_polynomial_rejects_floats():
    q = PolynomialQR.monomial(1, 0)
    for bad in (
        lambda: PolynomialQR.make(4, {(1, 0): 0.1}),
        lambda: PolynomialQR.monomial(1, 0, 0.5),
        lambda: q.scale(0.5),
        lambda: q * 0.5,
    ):
        with pytest.raises(TypeError):
            bad()
    third = PolynomialQR.make(4, {(1, 0): "1/3"})
    assert third == PolynomialQR.monomial(1, 0, F(1, 3)) == q.scale("1/3")
    assert q.scale(3) == PolynomialQR.make(4, {(1, 0): 3})


README_EQUATION = mlde_from_exponents([0, F(5, 6)])


@pytest.mark.parametrize(
    "call",
    [
        lambda: solve_frobenius(README_EQUATION, 0, -1),
        lambda: fundamental_system(README_EQUATION, -1),
        lambda: eisenstein("Q", -1),
        lambda: delta(-1),
        lambda: eta_power(3, -1),
        lambda: euler_product(-2),
        lambda: to_qexpansion(PolynomialQR.monomial(1, 0), -1),
        lambda: to_qexpansion(PolynomialQR.zero(4), -1),
        lambda: serre_derivative(eisenstein("Q", 8), 4, -1),
        lambda: verify_solution(README_EQUATION, eisenstein("Q", 8), -1),
        lambda: QExpansion.zero(-2),
        lambda: QExpansion.one(-1),
    ],
    ids=[
        "solve_frobenius", "fundamental_system", "eisenstein", "delta", "eta_power", "euler_product",
        "to_qexpansion", "to_qexpansion_zero", "serre_derivative", "verify_solution", "zero", "one",
    ],
)
def test_negative_truncation_is_refused(call):
    with pytest.raises(CannotExtend, match="truncation order must be nonnegative"):
        call()
