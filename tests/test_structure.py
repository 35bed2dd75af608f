import random
import time
from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import pytest

from modforms.classical import dim_M, eisenstein, delta, eta_power
from modforms.errors import (
    DependentGenerators,
    InsufficientTruncation,
    NonIntegralWeight,
    NotIndecomposable,
    OutOfRange,
)
from modforms.mlde import fundamental_system, mlde_from_exponents
from modforms.structure import (
    _det_series,
    _ps_coefficients,
    PoincareSeries,
    all_2dim_classes,
    character_module,
    classify_2dim,
    coker_ps_difference,
    cyclic_criterion,
    free_basis_verify,
    growth_bound,
    ps_coefficient,
    ps_cyclic,
    ps_from_weights,
)
from modforms.qseries import QExpansion
from modforms.vvmf import VVMF, RepData, is_essential, module_action, serre_vvmf

F = Fraction


@pytest.fixture(scope="module")
def cyclic_system():
    eq = mlde_from_exponents([0, F(5, 6)])
    return fundamental_system(eq, 64)


def test_ps_from_weights():
    assert ps_from_weights([0]).numerator == ((0, 1),)
    assert ps_from_weights([4, 6]).numerator == ((4, 1), (6, 1))
    assert ps_from_weights([5]).numerator == ((5, 1),)
    assert ps_from_weights([4, 4]).numerator == ((4, 2),)
    assert ps_from_weights((w for w in (6, 4))).numerator == ((4, 1), (6, 1))
    # a weight is never rounded to an integer
    for weights in ([F(5, 2), 4.7], [4, F(9, 2)], [4.5]):
        with pytest.raises(NonIntegralWeight):
            ps_from_weights(weights)
    assert ps_from_weights([F(4), 6.0]).numerator == ((4, 1), (6, 1))
    # free_basis_verify reaches it with a form of half-integral weight (eta^5, weight 5/2)
    half = VVMF.make(F(5, 2), RepData.make([F(5, 24)]), [eta_power(5, 12)])
    with pytest.raises(NonIntegralWeight):
        free_basis_verify([half], 20, 12)


def test_ps_cyclic():
    assert ps_cyclic(4, 2) == ps_from_weights([4, 6])
    assert ps_cyclic(0, 1) == ps_from_weights([0])
    assert ps_cyclic(0, 3).numerator == ((0, 1), (2, 1), (4, 1))
    with pytest.raises(ValueError):
        ps_cyclic(4, 0)


def test_ps_cyclic_identity_sweep():
    for p in range(1, 11):
        for k0 in range(21):
            assert ps_cyclic(k0, p) == ps_from_weights([k0 + 2 * l for l in range(p)])


def test_ps_coefficient():
    m_series = ps_from_weights([0])
    assert [ps_coefficient(m_series, w) for w in (0, 2, 4, 12)] == [1, 0, 1, 2]
    assert ps_coefficient(ps_from_weights([4, 6]), 10) == 2
    assert ps_coefficient(ps_from_weights([4, 6]), 2) == 0
    for w in range(0, 201, 2):
        assert ps_coefficient(m_series, w) == dim_M(w)
    with pytest.raises(ValueError):
        ps_coefficient(m_series, -2)


def test_one_pass_coefficients_match_each_weight():
    for k0 in range(12):
        for p in range(1, 5):
            ps = ps_cyclic(k0, p)
            for lo in (0, k0, 59, 60, 61):
                assert _ps_coefficients(ps, lo, 60) == [ps_coefficient(ps, w) for w in range(lo, 61)]
    # a generator below weight 0 (k_0 < 0) starts the pass there
    ps = ps_from_weights([-2, 0, 5])
    assert _ps_coefficients(ps, -2, 60) == [ps_coefficient(ps, w) for w in range(-2, 61)]


def reference_coefficients(ps, lo, hi):
    """a_w for w in lo..hi by the plain recurrence, run from the lowest weight."""
    num = dict(ps.numerator)
    start = min([lo, *num])
    a = [0] * 10
    for w in range(start, hi + 1):
        a.append(num.get(w, 0) + a[-4] + a[-6] - a[-10])
    return a[10 + lo - start :]


def test_far_window_matches_the_recurrence_from_the_lowest_weight():
    # the window seeded from dim M at lo, below, at or far above the lowest weight, against the full pass
    rng = random.Random(27)
    for _ in range(400):
        ps = PoincareSeries.make({rng.randint(-60, 60): rng.randint(-3, 3) for _ in range(rng.randint(1, 5))})
        lowest = ps.numerator[0][0] if ps.numerator else 0
        lo = rng.randint(min(lowest, 0), 90)
        hi = lo + rng.randint(-1, 30)
        assert _ps_coefficients(ps, lo, hi) == reference_coefficients(ps, lo, hi), (ps, lo, hi)


def test_ps_coefficient_far_above_the_lowest_weight():
    # the pass starts near w, not at -10^12: a pass from there would not end
    ps = ps_from_weights([-(10**12), 4])
    start = time.perf_counter()
    # dim M_(10^12 + 8) = (10^12 + 8)/12 + 1, since 10^12 + 8 = 0 mod 12; dim M_4 = 1
    assert ps_coefficient(ps, 8) == (10**12 + 8) // 12 + 1 + 1
    assert ps_coefficient(ps, 7) == 0
    assert _ps_coefficients(ps, 0, 8) == [dim_M(w + 10**12) + dim_M(w - 4) if w % 2 == 0 else 0 for w in range(9)]
    assert time.perf_counter() - start < 1


def test_character_module():
    assert character_module(0) == (0, ps_from_weights([0]))
    h, ps = character_module(5)
    assert h == 10 and ps.numerator == ((5, 1),)
    # the generator eta^h has weight h/2 = 5 and leads at q^(h/24) = q^(5/12)
    assert eta_power(h, 12).leading == F(5, 12)
    with pytest.raises(OutOfRange):
        character_module(12)
    with pytest.raises(OutOfRange):
        character_module(-1)


def test_classify_examples():
    cls = classify_2dim(10, 0)
    assert cls.kind == "cyclic" and cls.k0 == 4 and cls.coker_weight == 0
    assert cls.weights == (4, 6)
    cls = classify_2dim(11, 9)
    assert cls.kind == "cyclic" and cls.k0 == 9 and cls.coker_weight is None
    cls = classify_2dim(0, 2)
    assert cls.kind == "split" and cls.weights == (0, 2) and cls.k0 == 0


def test_classify_rejections():
    for a, b in [(3, 0), (0, 0), (5, 5), (4, 0)]:
        with pytest.raises(NotIndecomposable):
            classify_2dim(a, b)
    with pytest.raises(NotIndecomposable):
        classify_2dim(12, 2)


def test_enumeration():
    classes = all_2dim_classes()
    assert len(classes) == 24
    assert sum(1 for c in classes if c.kind == "split") == 12
    assert sum(1 for c in classes if c.kind == "cyclic") == 12
    with_coker = {(c.a, c.b): coker_ps_difference(c) for c in classes if c.kind == "cyclic"}
    assert with_coker[(10, 0)] == {0: 1}
    assert with_coker[(11, 1)] == {1: 1}
    assert sum(1 for d in with_coker.values() if d) == 2


def test_coker_requires_cyclic():
    with pytest.raises(ValueError):
        coker_ps_difference(classify_2dim(0, 2))


def test_split_additivity():
    for cls in all_2dim_classes():
        if cls.kind != "split":
            continue
        _, ps_a = character_module(cls.a)
        _, ps_b = character_module(cls.b)
        assert ps_from_weights(cls.weights) == ps_a + ps_b


def test_free_basis_cyclic_pair(cyclic_system):
    generators = [cyclic_system, serre_vvmf(cyclic_system)]
    report = free_basis_verify(generators, 40, 64)
    assert report.ok
    series = ps_cyclic(4, 2)
    for w, count in report.dims:
        assert count == ps_coefficient(series, w)


def test_free_basis_single_generator():
    form = VVMF.make(4, RepData.make([0]), [eisenstein("Q", 48)])
    report = free_basis_verify([form], 30, 48)
    assert report.ok
    assert all(count == dim_M(w - 4) for w, count in report.dims)
    # one nonzero F of a larger rep is free whatever k_max; a rank sweep once reported
    # its multiples dependent at weights 64, 88 and 51 for want of terms
    for ms, k_max, n in (([0, F(5, 6)], 80, 4), ([0, F(5, 6)], 120, 6), ([F(1, 12), F(5, 12), F(9, 12)], 120, 3)):
        eq = mlde_from_exponents(ms)
        report = free_basis_verify([fundamental_system(eq, n)], k_max, n)
        assert report.ok and report.rank == 1 and not report.spans
        expected = [(w, dim_M(w - eq.weight)) for w in range(eq.weight, k_max + 1, 2)]
        assert list(report.dims) == [(w, d) for w, d in expected if d]


def test_free_basis_zero_components_keep_the_lattice():
    # the zero component of each generator leads at 0, off the 1/2 + Z lattice
    # of eta^12; only nonzero components may fix where a slot's cells start
    rep = RepData.make([0, F(1, 2)])
    q_form = VVMF.make(4, rep, [eisenstein("Q", 20), QExpansion.zero(20)])
    eta_form = VVMF.make(6, rep, [QExpansion.zero(20), eta_power(12, 20)])
    report = free_basis_verify([q_form, eta_form], 20, 20)
    assert report.ok and report.rank == 2
    series = ps_from_weights([4, 6])
    assert list(report.dims) == [(w, ps_coefficient(series, w)) for w in range(4, 21) if ps_coefficient(series, w)]


def test_free_basis_rejects_dependent(cyclic_system):
    q_mult = module_action(eisenstein("Q", 64), 4, cyclic_system)
    with pytest.raises(DependentGenerators) as err:
        free_basis_verify([cyclic_system, q_mult], 20, 64)
    assert err.value.weight == 8
    # normalized, Delta F leads one step above F in every component, so its
    # rows are its coefficients shifted right by one
    shifted = module_action(delta(64), 12, cyclic_system)
    delta_mult = VVMF.make(16, shifted.rep, [f.normalized() for f in shifted.components])
    assert [f.leading for f in delta_mult.components] == [1, F(11, 6)]
    with pytest.raises(DependentGenerators) as err:
        free_basis_verify([cyclic_system, delta_mult], 20, 64)
    assert err.value.weight == 16


def test_growth_bound():
    m_series = ps_from_weights([0])
    assert growth_bound(m_series, 1, 0, 100) <= 1
    assert growth_bound(ps_cyclic(4, 2), 2, 4, 100) <= 2
    # rank-0 numerator: the bound grows linearly, the lemma needs rank = p
    assert growth_bound(PoincareSeries.make({}), 1, 0, 100) == F(100, 6)


def test_cyclic_criterion(cyclic_system):
    assert cyclic_criterion(cyclic_system)
    shifted = module_action(delta(64), 12, cyclic_system)
    assert not cyclic_criterion(shifted)
    rep = RepData.make([0, 0])
    collide = VVMF.make(4, rep, [eisenstein("Q", 16), eisenstein("R", 16)])
    assert not cyclic_criterion(collide)


def test_cyclic_criterion_refuses_a_zero_component_known_below_its_exponent():
    rep = RepData.make([0, F(5, 6)])
    with pytest.raises(InsufficientTruncation):
        cyclic_criterion(VVMF.make(0, rep, [QExpansion.one(0), QExpansion.zero(0)]))
    # a component that proves False still decides, whatever the other one
    assert not cyclic_criterion(VVMF.make(0, rep, [QExpansion.zero(0), QExpansion.zero(0)]))


def test_cyclic_criterion_reads_a_zero_component_known_through_its_exponent():
    rep = RepData.make([0, F(5, 6)])
    assert not cyclic_criterion(VVMF.make(0, rep, [QExpansion.one(1), QExpansion.zero(1)]))


def test_free_basis_negative_k0():
    # exponents 0, 1/12, 2/12 give k0 = -1: generators of weight -1, 1, 3
    eq = mlde_from_exponents([0, F(1, 12), F(2, 12)])
    assert eq.weight == -1
    generators = [fundamental_system(eq, 24)]
    for _ in range(2):
        generators.append(serre_vvmf(generators[-1]))
    report = free_basis_verify(generators, 16, 24)
    assert report.ok and report.rank == 3
    series = ps_cyclic(-1, 3)
    expected = [(w, ps_coefficient(series, w)) for w in range(-1, 17)]
    assert list(report.dims) == [(w, d) for w, d in expected if d]
    assert ps_coefficient(series, -1) == 1
    with pytest.raises(ValueError):
        ps_coefficient(series, -3)


def test_free_basis_every_twelfth_root_set():
    # every set of 1-3 distinct exponents i/12 with an integral k_0, and the
    # generators F, DF, ... rescaled over large, unrelated denominators
    count = 0
    for p, n, k_max in ((1, 16, 16), (2, 16, 14), (3, 12, 10)):
        for idx in combinations(range(12), p):
            ms = [F(i, 12) for i in idx]
            if (F(12, p) * sum(ms) - p + 1).denominator != 1:
                continue
            count += 1
            eq = mlde_from_exponents(ms)
            generators = [fundamental_system(eq, n)]
            for _ in range(p - 1):
                generators.append(serre_vvmf(generators[-1]))
            report = free_basis_verify(generators, k_max, n)
            assert report.ok and report.rank == p
            series = ps_cyclic(eq.weight, p)
            weights = range(eq.weight, k_max + 1)
            assert list(report.dims) == [(w, ps_coefficient(series, w)) for w in weights if ps_coefficient(series, w)]
            # a proper sub-tower F, ..., D^(r-1)F is free: each r x r minor of its leading
            # coefficients is the Vandermonde product over its columns
            for r in range(1, p):
                for cols in combinations(range(p), r):
                    leading = [[[g.components[j].coefficient(ms[j])] for j in cols] for g in generators[:r]]
                    assert leibniz_series(leading, 1) == [prod(ms[b] - ms[a] for a, b in combinations(cols, 2))]
                sub = free_basis_verify(generators[:r], k_max, n)
                assert sub.ok and sub.rank == r and not sub.spans
                series = ps_from_weights([g.weight for g in generators[:r]])
                assert list(sub.dims) == [(w, ps_coefficient(series, w)) for w in weights if ps_coefficient(series, w)]
            base = generators[0]
            if p > 1:
                big = VVMF.make(base.weight, base.rep, [f.scale(12**40) for f in base.components])
                d = generators[1]
                small = VVMF.make(d.weight, d.rep, [f.scale(F(1, 2**61 - 1)) for f in d.components])
                assert free_basis_verify([big, small] + generators[2:], k_max, n) == report
            qf = module_action(eisenstein("Q", n), 4, base)
            tiny = VVMF.make(qf.weight, qf.rep, [f.scale(F(1, 2**89 - 1)) for f in qf.components])
            with pytest.raises(DependentGenerators) as err:
                free_basis_verify([base, tiny], eq.weight + 4, n)
            assert err.value.weight == eq.weight + 4
    assert count == 118
    # is_essential over components with different large denominators on different lattices
    components = [eisenstein("Q", 16).scale(F(3, 7)), eta_power(2, 16).scale(F(1, 2**61 - 1))]
    mixed = VVMF.make(4, RepData.make([0, F(1, 12)]), components)
    with pytest.raises(InsufficientTruncation):
        is_essential(mixed, 0)
    assert all(is_essential(mixed, n) for n in range(1, 12))
    e4 = eisenstein("Q", 16)
    e4_6 = e4 * e4 * e4 * e4 * e4 * e4
    twice = VVMF.make(24, RepData.make([0, 0]), [e4_6.scale(F(1, 2**61 - 1)), e4_6.scale(2 * 12**40)])
    with pytest.raises(InsufficientTruncation):
        is_essential(twice, 4)
    assert not is_essential(twice, 5)


def test_free_basis_proves_a_short_truncation():
    # weight 88 has 15 multiples of F, DF and only 2 * 7 known coefficients, but det F is
    # nonzero at q^(5/6): the generators are proved free, with no rank computed
    system = fundamental_system(mlde_from_exponents([0, F(5, 6)]), 6)
    report = free_basis_verify([system, serre_vvmf(system)], 120, 6)
    assert report.ok and report.spans and report.rank == 2
    series = ps_cyclic(4, 2)
    assert list(report.dims) == [(w, ps_coefficient(series, w)) for w in range(4, 121) if ps_coefficient(series, w)]


def test_free_basis_names_a_weight_only_past_the_bound():
    # four generators of weights 7, 7, 27, 17 in rank 3 are dependent at any N; at N 1 the
    # cells determine H(rho)_w only through w = 22, so the rank deficit at 27 names nothing
    eq = mlde_from_exponents([F(1, 12), F(5, 12), F(9, 12)])
    for n in range(1, 21):
        base = fundamental_system(eq, n)
        gens = [
            module_action(eisenstein("Q", n), 4, base),
            serre_vvmf(serre_vvmf(base)),
            module_action(delta(n) * delta(n), 24, base),
            module_action(delta(n), 12, serre_vvmf(base)),
        ]
        if n == 1:
            with pytest.raises(InsufficientTruncation):
                free_basis_verify(gens, 30, n)
            continue
        report = free_basis_verify(gens, 30, n)
        assert not report.ok and not report.spans and "no weight up to 30" in report.message


def leibniz_series(cells, n):
    """Reference: first n coefficients of det[cells[i][j]] summed over every permutation."""
    total = [0] * n
    for perm in permutations(range(len(cells))):
        sign = (-1) ** sum(a > b for a, b in combinations(perm, 2))
        term = [1] + [0] * (n - 1)
        for i, j in enumerate(perm):
            entry = cells[i][j]
            term = [sum(term[s] * entry[t - s] for s in range(t + 1)) for t in range(n)]
        total = [x + sign * y for x, y in zip(total, term)]
    return total


def test_det_series_matches_leibniz():
    rng = random.Random(14)
    for _ in range(300):
        p, n = rng.randint(1, 5), rng.randint(1, 4)
        r = rng.randint(1, p + 1)
        cells = [
            [[rng.choice((0, 0, rng.randint(-2**70, 2**70))) for _ in range(n)] for _ in range(p)]
            for _ in range(r)
        ]
        minors = _det_series(cells, n)
        if r > p:
            assert minors == {}
            continue
        for cols in combinations(range(p), r):
            want = leibniz_series([[row[j] for j in cols] for row in cells], n)
            assert minors.get(sum(1 << j for j in cols), [0] * n) == want
        assert set(minors) <= {sum(1 << j for j in cols) for cols in combinations(range(p), r)}
    # a singular matrix whose entries are all nonzero: row 2 is twice row 1
    cells = [[[1, 2], [3, 4]], [[2, 4], [6, 8]]]
    assert _det_series(cells, 2)[0b11] == [0, 0]


def test_free_basis_spans_only_for_a_basis(cyclic_system):
    # for (0, 5/6) a basis has weights summing to K = 12 (0 + 5/6) = 10
    d_form = serre_vvmf(cyclic_system)
    report = free_basis_verify([cyclic_system, d_form], 40, 64)
    assert report.ok and report.spans
    q_mult = module_action(eisenstein("Q", 64), 4, cyclic_system)
    delta_d = module_action(delta(64), 12, d_form)
    for generators in ([q_mult, d_form], [cyclic_system, delta_d]):
        report = free_basis_verify(generators, 40, 64)
        assert report.ok and not report.spans and report.rank == 2
        series = ps_from_weights([g.weight for g in generators])
        assert list(report.dims) == [(w, ps_coefficient(series, w)) for w in range(4, 41) if ps_coefficient(series, w)]
    # E4 alone is free for the trivial rep but misses 1 (K = 4, not 0)
    e4 = VVMF.make(4, RepData.make([0]), [eisenstein("Q", 48)])
    report = free_basis_verify([e4], 30, 48)
    assert report.ok and not report.spans
    # the zero-component pair: K = 10, 12 (0 + 1/2) = 6
    rep = RepData.make([0, F(1, 2)])
    q_form = VVMF.make(4, rep, [eisenstein("Q", 20), QExpansion.zero(20)])
    eta_form = VVMF.make(6, rep, [QExpansion.zero(20), eta_power(12, 20)])
    report = free_basis_verify([q_form, eta_form], 20, 20)
    assert report.ok and not report.spans


def test_free_basis_short_truncation_is_not_dependent():
    # F and Delta^3 DF are independent (det F = c eta^92 leads at q^(23/6)).  Normalized,
    # Delta^3 DF holds only N - 3 terms, but from q^3 and q^(23/6), so each slot is known
    # N terms past its lowest exponent and det F is proved nonzero from N 3 on; one depth
    # of N - 3 for all slots once made F's multiples look dependent at weights 16 (N 3)
    # and 28 (N 4).  At N 2 the lift is zero through q^2 and nothing is decided
    eq = mlde_from_exponents([0, F(5, 6)])
    for n in (2, 3, 4, 5, 6, 8):
        base = fundamental_system(eq, n)
        cube = delta(n) * delta(n) * delta(n)
        lifted = module_action(cube, 36, serre_vvmf(base))
        top = VVMF.make(42, lifted.rep, [f.normalized() for f in lifted.components])
        if n < 3:
            with pytest.raises(InsufficientTruncation):
                free_basis_verify([base, top], 50, n)
            continue
        report = free_basis_verify([base, top], 50, n)
        assert report.ok and not report.spans
        series = ps_from_weights([4, 42])
        assert list(report.dims) == [(w, ps_coefficient(series, w)) for w in range(4, 51) if ps_coefficient(series, w)]


def test_free_basis_dependent_beyond_k_max(cyclic_system):
    # det[F, Delta F] = 0, but the relation Delta * F - 1 * (Delta F) has weight 16
    shifted = module_action(delta(64), 12, cyclic_system)
    report = free_basis_verify([cyclic_system, shifted], 14, 64)
    assert not report.ok and not report.spans
    with pytest.raises(DependentGenerators) as err:
        free_basis_verify([cyclic_system, shifted], 16, 64)
    assert err.value.weight == 16


def test_free_basis_determinant_on_every_twelfth_root_set():
    # every set of 1-4 distinct exponents i/12 with an integral k_0: det[D^i F_j] leads at
    # q^(sum m_j) with the Vandermonde product, so F, DF, ... is a basis
    count = 0
    for p, n, k_max in ((1, 8, 16), (2, 8, 16), (3, 8, 14), (4, 8, 12)):
        for idx in combinations(range(12), p):
            ms = [F(i, 12) for i in idx]
            if (F(12, p) * sum(ms) - p + 1).denominator != 1:
                continue
            count += 1
            eq = mlde_from_exponents(ms)
            generators = [fundamental_system(eq, n)]
            for _ in range(p - 1):
                generators.append(serre_vvmf(generators[-1]))
            leading = [[[g.components[j].coefficient(m)] for j, m in enumerate(ms)] for g in generators]
            assert leibniz_series(leading, 1) == [prod(ms[j] - ms[i] for i, j in combinations(range(p), 2))]
            report = free_basis_verify(generators, k_max, n)
            assert report.ok and report.spans and report.rank == p
            series = ps_cyclic(eq.weight, p)
            weights = range(eq.weight, k_max + 1)
            assert list(report.dims) == [(w, ps_coefficient(series, w)) for w in weights if ps_coefficient(series, w)]
            scales = [12**40, F(1, 2**61 - 1), F(-7, 3**50), 5]
            rescaled = [VVMF.make(g.weight, g.rep, [f.scale(c) for f in g.components]) for g, c in zip(generators, scales)]
            assert free_basis_verify(rescaled, k_max, n) == report
    assert count == 244
