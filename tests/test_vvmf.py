import cmath
from fractions import Fraction

import numpy as np
import pytest

from modforms.classical import delta, eisenstein, eta_power, serre_derivative
from modforms.errors import InsufficientTruncation, SingularSampleMatrix
from modforms.qseries import QExpansion
from modforms.vvmf import (
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
    rep = RepData.make([0, F(5, 6)], rho_S=[[1, 0], [0, -1]], s_squared_sign=1)
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
    assert abs(rho[0, 0] - (-1j) ** k0) < 1e-6
    assert abs(rho[0, 0] - want) < 1e-6


def test_recover_rho_s_e4():
    form = VVMF.make(4, RepData.make([0]), [eisenstein("Q", 80)])
    rho = recover_rho_S(form)
    assert abs(rho[0, 0] - 1) < 1e-6


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
