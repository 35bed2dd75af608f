import cmath
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modforms.classical import delta, eisenstein, eta_power, serre_derivative
from modforms.errors import InsufficientTruncation, SingularSampleMatrix
from modforms.qseries import QExpansion
from modforms.vvmf import (
    _inverse,
    _matmul,
    _norm1,
    VVMF,
    RepData,
    check_relations,
    default_sample_points,
    evaluate_vec,
    is_essential,
    module_action,
    recover_rho_S,
    serre_vvmf,
    validate,
)

F = Fraction

ETA_SQ_AT_I = 0.5901702995080482


def eta_form(k0, terms=32):
    rep = RepData.make([F(k0, 12)])
    return VVMF.make(k0, rep, [eta_power(2 * k0, terms)])


def two_dim(terms=16):
    rep = RepData.make([0, 0])
    return VVMF.make(4, rep, [eisenstein("Q", terms), eisenstein("R", terms).truncate(terms)])


def test_rep_data_validation():
    with pytest.raises(ValueError):
        RepData.make([F(3, 2)])
    with pytest.raises(ValueError):
        RepData.make([F(-1, 12)])
    rep = RepData.make([0, F(5, 6)], rho_S=[[1, 0], [0, -1]])
    assert rep.p == 2 and rep.rho_S[1][1] == -1
    with pytest.raises(ValueError):
        RepData.make([0], rho_S=[[1, 0]])


def test_validate_pass_and_fail():
    rep = RepData.make([F(5, 12)])
    good = VVMF.make(5, rep, [eta_power(10, 8)])
    assert validate(good).ok
    shifted = VVMF.make(5, rep, [QExpansion.make([1, 3], leading=F(5, 12) + 3)])
    assert validate(shifted).ok
    bad = VVMF.make(5, rep, [QExpansion.make([1], leading=F(5, 12) - 1)])
    report = validate(bad)
    assert not report.ok
    assert "meromorphic" in report.components[0].message
    off = VVMF.make(5, rep, [QExpansion.make([1], leading=F(1, 2))])
    assert not validate(off).ok
    zero = VVMF.make(5, rep, [QExpansion.zero(8)])
    assert validate(zero).ok


def test_validate_reads_the_first_nonzero_term():
    # leading zeros shift the exponent the messages report, as normalizing the series would
    rep = RepData.make([F(5, 12)])
    cases = [
        (QExpansion.make([0, 0, 1, 3], leading=F(5, 12) - 1), True, "leading = m_j + 1"),
        (QExpansion.make([0, 2], leading=F(5, 12) - 2), False, "meromorphic at infinity: leading below 5/12"),
        (QExpansion.make([0, 0, 0, 7], leading=F(1, 3)), False, "leading 10/3 not congruent to 5/12 mod 1"),
    ]
    for f, ok, message in cases:
        check = validate(VVMF.make(5, rep, [f])).components[0]
        assert (check.ok, check.message) == (ok, message)


def test_module_action():
    form = eta_form(1, 16)
    one = QExpansion.one(16)
    assert module_action(one, 0, form).components[0] == form.components[0]
    shifted = module_action(delta(16), 12, form)
    assert shifted.weight == 13
    assert shifted.components[0].normalized().leading == form.components[0].leading + 1
    rep = RepData.make([F(1, 12), 0])
    pair = VVMF.make(1, rep, [eta_power(2, 16), QExpansion.zero(16)])
    out = module_action(eisenstein("Q", 16), 4, pair)
    assert out.weight == 5
    assert (out.components[0] - eisenstein("Q", 16) * eta_power(2, 16)).is_zero
    assert out.components[1].is_zero
    with pytest.raises(ValueError):
        module_action(eta_power(2, 16), 1, form)


def test_serre_vvmf():
    form = eta_form(3, 24)
    out = serre_vvmf(form)
    assert out.weight == 5
    assert out.components[0].is_zero


def test_leibniz_compatibility():
    form = two_dim(20)
    for g, w in [(delta(20), 12), (eisenstein("Q", 20), 4)]:
        lhs = serre_vvmf(module_action(g, w, form))
        rhs_a = module_action(serre_derivative(g, w), w + 2, form)
        rhs_b = module_action(g, w, serre_vvmf(form))
        assert lhs.weight == rhs_a.weight == rhs_b.weight == form.weight + w + 2
        for left, ra, rb in zip(lhs.components, rhs_a.components, rhs_b.components):
            n = min(left.truncation_order, ra.truncation_order, rb.truncation_order)
            assert (left.truncate(n) - (ra + rb).truncate(n)).is_zero


def test_is_essential():
    assert is_essential(two_dim(), 10)
    rep = RepData.make([0, 0])
    dep = VVMF.make(4, rep, [eisenstein("Q", 16), eisenstein("Q", 16).scale(2)])
    assert not is_essential(dep, 10)
    single = VVMF.make(4, RepData.make([0]), [eisenstein("Q", 16)])
    assert is_essential(single, 4)
    withzero = VVMF.make(4, rep, [eisenstein("Q", 16), QExpansion.zero(16)])
    assert not is_essential(withzero, 10)
    with pytest.raises(InsufficientTruncation):
        is_essential(two_dim(), 0)


def test_is_essential_of_an_unknown_component_is_no_verdict():
    # delta(0) knows only its zero constant term; Delta is nonzero at q^1, its Wronskian bound
    with pytest.raises(InsufficientTruncation):
        is_essential(VVMF(12, RepData.make([0]), [delta(0)]), 0)
    assert is_essential(VVMF(12, RepData.make([0]), [delta(1)]), 1)


def test_is_essential_below_the_wronskian_bound():
    # E4^6 and E4^6 + Delta^2 agree through q^1; the weight-50 Wronskian bound is q^(50/12)
    e4 = eisenstein("Q", 16)
    e4_6, d = e4 * e4 * e4 * e4 * e4 * e4, delta(16)
    rep = RepData.make([0, 0])
    form = VVMF.make(24, rep, [e4_6, e4_6 + d * d])
    with pytest.raises(InsufficientTruncation):
        is_essential(form, 1)
    for n in range(2, 12):
        assert is_essential(form, n)
    # a dependent pair is proved dependent only from q^5 on
    twice = VVMF.make(24, rep, [e4_6, e4_6.scale(2)])
    with pytest.raises(InsufficientTruncation):
        is_essential(twice, 4)
    assert not is_essential(twice, 5)


def test_evaluate_vec():
    rep = RepData.make([F(1, 12), 0])
    form = VVMF.make(1, rep, [eta_power(2, 64), QExpansion.zero(64)])
    vals = evaluate_vec(form, 1j)
    assert abs(vals[0] - ETA_SQ_AT_I) < 1e-10
    assert vals[1] == 0


def test_default_sample_points():
    pts = default_sample_points(3)
    assert len(pts) == 3 and len(set(pts)) == 3
    for t in pts:
        assert abs(abs(t) - 1) < 1e-15 and t.imag > 0
    assert len(default_sample_points(1)) == 1


@pytest.mark.parametrize("k0,want", [(1, -1j), (2, -1), (5, -1j)])
def test_recover_rho_s_eta_powers(k0, want):
    # oracle: eta(-1/tau) = sqrt(-i tau) eta(tau), so rho(S) = (-i)^{k0}
    rho = recover_rho_S(eta_form(k0, 80))
    assert abs(rho[0][0] - (-1j) ** k0) < 1e-6
    assert abs(rho[0][0] - want) < 1e-6


def test_recover_rho_s_e4():
    form = VVMF.make(4, RepData.make([0]), [eisenstein("Q", 80)])
    rho = recover_rho_S(form)
    assert abs(rho[0][0] - 1) < 1e-6


def test_recover_rho_s_singular_points():
    form = two_dim(40)
    t = cmath.exp(1.3j)
    with pytest.raises(SingularSampleMatrix):
        recover_rho_S(form, [t, t])


def test_check_relations_eta_case():
    for k0 in (1, 2, 5, 7):
        rep = RepData.make([F(k0, 12)], rho_S=[[(-1j) ** k0]])
        report = check_relations(rep, 1e-9)
        assert report.ok
        assert report.sign == (-1) ** k0


def test_check_relations_identity():
    rep = RepData.make([0, 0], rho_S=np.eye(2))
    report = check_relations(rep)
    assert report.ok and report.sign == 1


def test_check_relations_failure():
    rep = RepData.make([F(1, 12)], rho_S=[[1]])
    report = check_relations(rep)
    assert not report.ok
    assert report.braid_residual > 0.1


# -- numpy as the reference for the pure-Python p x p numerics ------------------

PART = st.floats(-1, 1).map(lambda x: x if abs(x) > 1e-6 else 0.0)  # no subnormal scales
ENTRY = st.one_of(st.just(0j), st.builds(complex, PART, PART))


@st.composite
def value_pairs(draw, min_p=1):
    """(V, W): p x p complex matrices, V from well-conditioned to nearly singular."""
    p = draw(st.integers(min_p, 5))
    v, w = (draw(st.lists(st.lists(ENTRY, min_size=p, max_size=p), min_size=p, max_size=p)) for _ in "vw")
    if p > 1 and draw(st.booleans()):  # column dst moves within eps of column src
        src, dst = draw(st.permutations(range(p)))[:2]
        eps = 10.0 ** -draw(st.integers(0, 14))
        for row in v:
            row[dst] = row[src] + eps * row[dst]
    return v, w


@settings(max_examples=300, deadline=None)
@given(value_pairs())
@example(([[0j, 1], [1, 0]], [[1, 2j], [3, 4]]))  # a zero leading entry needs a row swap
@example(([[1e-20, 1], [1, 1]], [[1, 0], [0, 1]]))  # a tiny leading entry needs one too
@example(([[1, 0, 0], [0, 0, 1], [0, 1e-3, 0]], [[1, 1, 1], [0, 1, 0], [1j, 0, 2]]))
def test_inverse_matches_numpy(pair):
    v, w = pair
    kappa_2 = np.linalg.cond(np.array(v))
    if kappa_2 < 1e6:
        inverse = _inverse(v)
        want = np.linalg.solve(np.array(v).T, np.array(w).T).T
        x = np.array(_matmul(w, inverse))
        assert np.linalg.norm(x - want) <= 1e-8 * np.linalg.norm(want)
        kappa_1 = _norm1(v) * _norm1(inverse)
        assert abs(kappa_1 - np.linalg.cond(np.array(v), 1)) <= 1e-8 * kappa_1
    elif kappa_2 > 1e10:  # kappa_1 >= kappa_2 / p
        with pytest.raises(SingularSampleMatrix):
            _inverse(v)


@settings(max_examples=100, deadline=None)
@given(value_pairs(min_p=2), st.data())
def test_inverse_rejects_a_repeated_column(pair, data):
    v, _ = pair
    src, dst = data.draw(st.permutations(range(len(v))))[:2]
    for row in v:
        row[dst] = row[src]
    with pytest.raises(SingularSampleMatrix):
        _inverse(v)


def test_inverse_threshold_is_the_one_norm():
    # ||V||_1 = ||V^-1||_1 = 1 + a (column sums), ||V||_inf = ||V^-1||_inf = 1 + 2a (row sums)
    def upper(a):
        return [[1, a, a], [0, 1, 0], [0, 0, 1]]

    inverse = _inverse(upper(6000.0))  # kappa_1 = 3.6e7, kappa_inf = 1.44e8
    assert np.allclose(np.array(inverse), np.linalg.inv(np.array(upper(6000.0))))
    with pytest.raises(SingularSampleMatrix):
        _inverse(upper(12000.0))  # kappa_1 = 1.44e8


def _reference_residuals(rho_s, exponents):
    s = np.array(rho_s)
    eye = np.eye(len(exponents))
    s2 = s @ s
    res_plus, res_minus = np.max(np.abs(s2 - eye)), np.max(np.abs(s2 + eye))
    s_t = s @ np.diag([cmath.exp(2j * cmath.pi * float(m)) for m in exponents])
    return res_plus, res_minus, np.max(np.abs(s_t @ s_t @ s_t - s2))


@settings(max_examples=150, deadline=None)
@given(value_pairs(), st.lists(st.integers(0, 11), min_size=5, max_size=5))
@example(([[-1j]], None), [1, 0, 0, 0, 0])
def test_check_relations_matches_numpy(pair, twelfths):
    rho_s, _ = pair
    exponents = [F(i, 12) for i in twelfths[: len(rho_s)]]
    report = check_relations(RepData.make(exponents, rho_S=rho_s))
    res_plus, res_minus, braid_res = _reference_residuals(rho_s, exponents)
    if abs(res_plus - res_minus) > 1e-12 * max(1, res_plus):  # a near tie may round either way
        assert report.sign == (1 if res_plus < res_minus else -1)
    s2_res = min(res_plus, res_minus)
    assert abs(report.s_squared_residual - s2_res) <= 1e-12 * max(1, s2_res)
    assert abs(report.braid_residual - braid_res) <= 1e-12 * max(1, braid_res)
