import random
import time
from fractions import Fraction
from itertools import combinations, zip_longest
from math import ceil, floor, isqrt, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modforms.classical import (
    PolynomialQR,
    _serre_tower,
    _sigma,
    _theta_form,
    eisenstein,
    eta_power,
    monomial_basis,
    to_qexpansion,
)
from modforms.errors import (
    IrrationalRoots,
    NonIntegralWeight,
    NotARoot,
    OrderTooLarge,
    ResonantRoot,
    RootsNotDistinct,
    RootsOutOfRange,
)
from modforms.linalg import _poly_divmod, _poly_eval, _poly_mul
from modforms.mlde import (
    MLDE,
    IndicialData,
    _brackets,
    _rational_roots,
    fundamental_system,
    indicial_polynomial,
    mlde_from_exponents,
    solve_frobenius,
    verify_solution,
    weight_relation_check,
)
from modforms.qseries import QExpansion, _int_product
from modforms.vvmf import serre_vvmf

F = Fraction


def theta_indicial(equation):
    """I(lambda) as the constant terms of the operator's theta-form: the oracle of the Newton form."""
    den, h = _theta_form(equation.to_skew().terms, equation.weight, 0)
    return tuple(Fraction(hl[0], den) for hl in h)


def order2(k0, c):
    return MLDE.make(k0, 2, [PolynomialQR.monomial(1, 0, c)])


E4_EQUATION = order2(4, F(-1, 6))


def test_make_validates():
    with pytest.raises(ValueError):
        MLDE.make(4, 0, [])
    with pytest.raises(ValueError):
        MLDE.make(4, 2, [])
    with pytest.raises(ValueError):
        MLDE.make(4, 2, [PolynomialQR.monomial(0, 1)])  # weight 6, needs 4
    for weight in (4.5, F(9, 2), "-1/3"):
        with pytest.raises(NonIntegralWeight):
            MLDE.make(weight, 1, [])
    assert MLDE.make(F(8, 2), 1, []).weight == 4


def test_indicial_order_one():
    for k0 in (0, 3, 5, 12):
        ind = indicial_polynomial(MLDE.make(k0, 1, []))
        assert list(ind.poly) == [F(-k0, 12), F(1)]
        assert ind.roots == (F(k0, 12),)


def test_indicial_order_two():
    ind = indicial_polynomial(E4_EQUATION)
    assert list(ind.poly) == [F(0), F(-5, 6), F(1)]
    assert ind.roots == (F(0), F(5, 6))
    ind = indicial_polynomial(order2(3, F(-1, 18)))
    assert ind.roots == (F(1, 12), F(7, 12))


def test_indicial_matches_skew_application():
    # independent oracle: I(lambda) is the q^lambda coefficient of L[q^lambda]
    rng = random.Random(5)
    for _ in range(10):
        k0 = rng.randint(0, 10)
        c = F(rng.randint(-8, 8), rng.randint(1, 6))
        eq = order2(k0, c)
        ind = indicial_polynomial(eq)
        for _ in range(3):
            lam = F(rng.randint(-10, 10), 12)
            stub = QExpansion.make([1], leading=lam)
            coeff = eq.to_skew().apply(stub, k0, 0).coefficient(lam)
            val = sum(p * lam**i for i, p in enumerate(ind.poly))
            assert coeff == val


def test_frobenius_reproduces_e4():
    sol = solve_frobenius(E4_EQUATION, 0, 48)
    assert (sol - eisenstein("Q", 48)).is_zero


def test_frobenius_order_one_eta_powers():
    for k0 in (1, 4, 7, 11):
        sol = solve_frobenius(MLDE.make(k0, 1, []), F(k0, 12), 32)
        assert (sol - eta_power(2 * k0, 32)).is_zero


def test_frobenius_not_a_root():
    with pytest.raises(NotARoot):
        solve_frobenius(E4_EQUATION, F(1, 2), 8)


def test_frobenius_resonant():
    # indicial roots {0, 1} differ by an integer, so I(0 + 1) = 0
    eq = order2(5, F(-35, 144))
    assert indicial_polynomial(eq).roots == (F(0), F(1))
    with pytest.raises(ResonantRoot):
        solve_frobenius(eq, 0, 8)


def test_fundamental_system():
    system = fundamental_system(E4_EQUATION, 24)
    assert system.weight == 4
    assert [f.leading for f in system.components] == [F(0), F(5, 6)]
    assert system.rep.exponents == (F(0), F(5, 6))


def test_fundamental_system_rejects_repeated_roots():
    # discriminant tuned to zero: double root at 5/12
    eq = order2(4, F(1, 144))
    with pytest.raises(RootsNotDistinct):
        fundamental_system(eq, 8)


def test_fundamental_system_rejects_roots_outside_range():
    eq = order2(5, F(-35, 144))  # roots {0, 1}
    with pytest.raises(RootsOutOfRange):
        fundamental_system(eq, 8)


def test_weight_relation():
    assert weight_relation_check(4, [0, F(5, 6)])
    assert weight_relation_check(7, [F(7, 12)])
    assert not weight_relation_check(2, [0, F(5, 6)])


def test_mlde_from_exponents_examples():
    eq = mlde_from_exponents([0, F(5, 6)])
    assert eq.weight == 4
    assert dict(eq.coeffs[0].coords) == {(1, 0): F(-1, 6)}
    eq = mlde_from_exponents([F(1, 12), F(7, 12)])
    assert eq.weight == 3
    assert dict(eq.coeffs[0].coords) == {(1, 0): F(-1, 18)}
    eq = mlde_from_exponents([0, F(1, 2)])
    assert eq.weight == 2
    assert dict(eq.coeffs[0].coords) == {(1, 0): F(-1, 18)}


def test_mlde_from_exponents_rejections():
    with pytest.raises(NonIntegralWeight):
        mlde_from_exponents([0, F(1, 4)])
    with pytest.raises(RootsNotDistinct):
        mlde_from_exponents([0, 0])
    with pytest.raises(RootsOutOfRange):
        mlde_from_exponents([0, F(3, 2)])
    with pytest.raises(OrderTooLarge):
        mlde_from_exponents([F(i, 12) for i in range(6)])


def test_round_trip_denominator_12():
    # all order-2 exponent pairs j/12 with integral weight, plus order-3 samples
    pairs = [
        (F(i, 12), F(j, 12))
        for i in range(12)
        for j in range(i + 1, 12)
        if (i + j) % 2 == 0
    ]
    triples = [
        (F(1, 12), F(5, 12), F(9, 12)),
        (F(0, 12), F(4, 12), F(8, 12)),
        (F(2, 12), F(6, 12), F(10, 12)),
    ]
    for exps in pairs + triples:
        eq = mlde_from_exponents(exps)
        assert weight_relation_check(eq.weight, exps)
        system = fundamental_system(eq, 48)
        assert tuple(f.leading for f in system.components) == tuple(sorted(exps))
        for f in system.components:
            assert verify_solution(eq, f, 48).ok


def test_verify_solution_examples():
    assert verify_solution(E4_EQUATION, eisenstein("Q", 32), 32).ok
    assert verify_solution(MLDE.make(2, 1, []), eta_power(4, 32), 32).ok
    report = verify_solution(E4_EQUATION, eisenstein("R", 32), 32)
    assert not report.ok
    # residual of E6: I(1)(a_1 - 240) = (1/6)(-504 - 240) = -124 at q^1
    assert report.first_nonzero_exponent == 1
    assert report.first_nonzero_value == -124


def test_weight_relation_is_automatic():
    # Vieta on the exact indicial polynomial, random operators of order <= 4
    rng = random.Random(11)
    for _ in range(60):
        p = rng.randint(1, 4)
        k0 = rng.randint(-6, 14)
        coeffs = []
        for j in range(p - 1):
            basis = monomial_basis(2 * (p - j))
            u, v = basis[0]
            coeffs.append(PolynomialQR.monomial(u, v, F(rng.randint(-20, 20), rng.randint(1, 12))))
        ind = indicial_polynomial(MLDE.make(k0, p, coeffs))
        root_sum = -ind.poly[p - 1] if p > 1 else -ind.poly[0]
        assert 12 * root_sum == p * (p + k0 - 1)


# -- the integer Frobenius recursion against the Fraction recursion it replaced --

def fraction_frobenius(equation, root, n_terms):
    """Reference solver: the b[j][n] table of D^j f coefficients in Fraction arithmetic."""
    root = F(root)
    poly = theta_indicial(equation)

    def indicial(x):
        return sum(c * x**i for i, c in enumerate(poly))

    if indicial(root) != 0:
        raise NotARoot(f"{root} is not an indicial root")
    p = equation.order
    offsets = equation.exponent_offsets()
    weights = [equation.weight + 2 * l for l in range(p)]
    gq = [to_qexpansion(g, n_terms).coeffs for g in equation.coeffs]
    sig = [F(0)] + [F(2 * _sigma(1, m)) for m in range(1, n_terms + 1)]
    b = [[F(0)] * (n_terms + 1) for _ in range(p + 1)]
    b[0][0] = F(1)
    for j in range(p):
        b[j + 1][0] = b[j][0] * (root - offsets[j])
    a = [F(1)] + [F(0)] * n_terms
    for n in range(1, n_terms + 1):
        for j in range(p):
            conv = sum(sig[m] * b[j][n - m] for m in range(1, n + 1))
            b[j + 1][n] = (root + n - offsets[j]) * b[j][n] + weights[j] * conv
        c_n = b[p][n]
        for j in range(p - 1):
            c_n += sum(gq[j][m] * b[j][n - m] for m in range(n + 1))
        denom = indicial(root + n)
        if denom == 0:
            raise ResonantRoot(f"indicial polynomial vanishes again at {root} + {n}")
        a[n] = -c_n / denom
        b[0][n] = a[n]
        for j in range(p):
            partial = F(1)
            for l in range(j + 1):
                partial *= root + n - offsets[l]
            b[j + 1][n] += a[n] * partial
    return QExpansion(root, tuple(a))


# every set of distinct exponents i/12 in [0, 1) of order 1-4 whose weight
# k_0 = sum(i)/p - p + 1 is an integer; (0, 1/12, 2/12) is the k_0 = -1 set
ADMISSIBLE = [
    tuple(F(i, 12) for i in c)
    for p in range(1, 5)
    for c in combinations(range(12), p)
    if sum(c) % p == 0
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ADMISSIBLE), st.integers(0, 60), st.integers(0, 3))
@example((F(0), F(1, 12), F(2, 12)), 60, 0)
@example((F(0), F(5, 6)), 60, 1)
@example((F(1, 12), F(4, 12), F(7, 12), F(8, 12)), 48, 3)
def test_frobenius_matches_fraction_recursion(exponents, n_terms, pick):
    eq = mlde_from_exponents(exponents)
    root = exponents[pick % len(exponents)]
    sol = solve_frobenius(eq, root, n_terms)
    assert sol == fraction_frobenius(eq, root, n_terms)
    assert all(type(c) is Fraction for c in sol.coeffs)


def test_frobenius_matches_fraction_recursion_large_denominators():
    # order 3 at weight 5, g_1 = Q/(2^61 - 1), g_0 a multiple of R chosen so
    # that 1000/1000003 is an indicial root
    root, k0, c1 = F(1000, 1000003), 5, F(1, 2**61 - 1)
    offsets = [F(k0 + 2 * l, 12) for l in range(3)]
    c0 = -((root - offsets[0]) * (root - offsets[1]) * (root - offsets[2]) + c1 * (root - offsets[0]))
    eq = MLDE.make(k0, 3, [PolynomialQR.monomial(0, 1, c0), PolynomialQR.monomial(1, 0, c1)])
    assert theta_indicial(eq)[0].denominator > 2**100
    sol = solve_frobenius(eq, root, 40)
    assert sol == fraction_frobenius(eq, root, 40)
    assert max(c.denominator for c in sol.coeffs).bit_length() > 1000


# -- the rational root search against the trial division it replaced --

def _divisors(n: int):
    n = abs(n)
    out = set()
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.add(i)
            out.add(n // i)
        i += 1
    return out


def reference_rational_roots(poly):
    """Reference search: every divisor of the cleared constant over every divisor of the leading coefficient."""
    roots = []
    work = list(poly)
    while len(work) > 1:
        while work and work[-1] == 0:
            work.pop()
        if len(work) <= 1:
            break
        if work[0] == 0:
            roots.append(Fraction(0))
            work = work[1:]
            continue
        d = lcm(*(c.denominator for c in work))
        found = None
        for num in sorted(_divisors(int(work[0] * d))):
            for den in sorted(_divisors(int(work[-1] * d))):
                for sgn in (1, -1):
                    cand = Fraction(sgn * num, den)
                    if _poly_eval(work, cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        roots.append(found)
        work = _poly_divmod(work, [-found, 1])[0]
    return sorted(roots)


def test_indicial_roots_match_reference_on_every_twelfth_root_set():
    for exponents in ADMISSIBLE:
        eq = mlde_from_exponents(exponents)
        poly = theta_indicial(eq)
        roots = tuple(reference_rational_roots(poly))
        assert indicial_polynomial(eq) == IndicialData(poly, roots, len(roots) == eq.order)


def planted_polynomial(rng, top, most):
    """A scaled product of up to ``most`` rational factors x - r, some repeated, with |num|, den <= top.

    Half the time it also has an irreducible quadratic factor: x^2 - 2 s^2 (roots +-s sqrt 2) or
    x^2 + x + s + 1 (no real roots).  Returns the polynomial and its sorted rational roots.
    """
    roots = [F(rng.randint(-top, top), rng.randint(1, top)) for _ in range(rng.randint(0, most))]
    roots += rng.sample(roots, rng.randint(0, len(roots)))
    poly = [F(rng.randint(1, top), rng.randint(1, top))]
    for r in roots:
        poly = _poly_mul(poly, [-r, F(1)])
    if rng.randint(0, 1):
        s = F(rng.randint(1, top), rng.randint(1, top))
        poly = _poly_mul(poly, rng.choice([[-2 * s * s, 0, 1], [s + 1, 1, 1]]))
    return poly, sorted(roots)


def test_rational_roots_match_reference_on_planted_polynomials():
    rng = random.Random(13)
    for _ in range(200):
        poly, roots = planted_polynomial(rng, 12, 3)
        assert _rational_roots(poly) == reference_rational_roots(poly) == roots


def test_rational_roots_find_planted_roots_over_large_denominators():
    # the reference would trial-divide numbers of hundreds of bits here
    rng = random.Random(17)
    for _ in range(200):
        poly, roots = planted_polynomial(rng, 2**61 - 1, 2)
        assert _rational_roots(poly) == roots


def test_indicial_roots_of_large_denominator_equation():
    # the equation of the large-denominator Frobenius test: only 1000/1000003 is rational
    root, k0, c1 = F(1000, 1000003), 5, F(1, 2**61 - 1)
    offsets = [F(k0 + 2 * l, 12) for l in range(3)]
    c0 = -((root - offsets[0]) * (root - offsets[1]) * (root - offsets[2]) + c1 * (root - offsets[0]))
    eq = MLDE.make(k0, 3, [PolynomialQR.monomial(0, 1, c0), PolynomialQR.monomial(1, 0, c1)])
    start = time.perf_counter()
    ind = indicial_polynomial(eq)
    assert time.perf_counter() - start < 1
    assert ind.roots == (root,) and not ind.all_rational
    with pytest.raises(IrrationalRoots):
        fundamental_system(eq, 8)


def cleared(poly):
    """(d, J, b) as `_rational_roots` forms them: J(x) = d^p I(x / d) for the monic I, and its root bound b."""
    monic = [F(c) / poly[-1] for c in poly]
    d = lcm(*(c.denominator for c in monic))
    p = len(monic) - 1
    J = [int(c * d ** (p - l)) for l, c in enumerate(monic)]
    return d, J, 2 * max(2 ** -(-c.bit_length() // (p - l)) for l, c in enumerate(J[:-1]))


def rolle_case(rng, kind):
    """A scaled polynomial whose cleared J has roots where Rolle brackets can go wrong, and its rational roots.

    "adjacent": n and n + 1/D.  Only the second has denominator D, so d = D and J has the adjacent
    roots D n and D n + 1, with a root of J' strictly between them.  "double": n twice next to
    n + 1/D.  "edge": the integers -1 and m, m = +-2^k or a neighbour, so d = 1 and m is the
    largest root of J, a bisection midpoint of its bound b or next to one, with |m| > b/8.
    Half the time an irreducible quadratic factor adds irrational or complex roots, and with
    them more roots of J' that are not integers.
    """
    D, n = rng.randint(2, 10**6), rng.randint(-50, 50)
    if kind == "adjacent":
        roots = [F(n), n + F(1, D)]
    elif kind == "double":
        roots = [F(n), F(n), n + F(1, D)]
    else:
        roots = [F(-1), F(rng.choice((-1, 1)) * (2 ** rng.randint(2, 60) + rng.randint(-1, 1)))]
    poly = [F(rng.randint(1, 10**6), rng.randint(1, 10**6))]
    for r in roots:
        poly = _poly_mul(poly, [-r, F(1)])
    if rng.randint(0, 1):
        t = rng.randint(1, 99)
        poly = _poly_mul(poly, rng.choice([[-2 * t * t, 0, 1], [t, 1, 1]]))
    return poly, sorted(roots)


@pytest.mark.parametrize("kind", ["adjacent", "double", "edge"])
def test_rational_roots_find_roots_where_rolle_brackets_can_fail(kind):
    rng = random.Random(29)
    for _ in range(150):
        poly, roots = rolle_case(rng, kind)
        d, J, b = cleared(poly)
        integer_roots = [r * d for r in roots]
        assert all(x.denominator == 1 and _poly_eval(J, x) == 0 for x in integer_roots)
        if kind == "edge":
            assert 8 * max(map(abs, integer_roots)) > b
        else:
            assert integer_roots[-1] - integer_roots[-2] == 1
        assert _rational_roots(poly) == roots


def test_brackets_hold_floor_and_ceil_of_every_real_root():
    # non-monic int polynomials (the derivatives are), with roots clustered in one unit gap, at
    # adjacent integers, repeated, and in the last unit below the bound
    rng = random.Random(31)
    for _ in range(300):
        base = rng.randint(-20, 20)
        roots = [base + F(rng.randint(0, 7), rng.randint(1, 7)) for _ in range(rng.randint(1, 5))]
        roots += rng.sample(roots, rng.randint(0, len(roots)))
        poly, moduli = [rng.choice((-1, 1)) * rng.randint(1, 5)], [abs(r) for r in roots]
        for r in roots:
            poly = _poly_mul(poly, [-r.numerator, r.denominator])
        real = list(roots)
        if rng.randint(0, 1):
            t = rng.randint(1, 30)
            if rng.randint(0, 1):
                poly = _poly_mul(poly, [-2 * t * t, 0, 1])  # +-t sqrt 2
                real += [F(isqrt(2 * t * t)) + F(1, 2), -F(isqrt(2 * t * t)) - F(1, 2)]  # same floor and ceil
                moduli.append(F(isqrt(2 * t * t) + 1))
            else:
                poly = _poly_mul(poly, [t, 1, 1])  # complex, |z| = sqrt t
                moduli.append(F(isqrt(t) + 1))
        b = floor(max(moduli)) + 1  # the largest root lies in the last unit below b
        brackets = _brackets(poly, b)
        assert brackets == sorted(set(brackets)) and all(-b <= x <= b for x in brackets)
        for r in real:
            assert floor(r) in brackets and ceil(r) in brackets, (poly, b, r)


@pytest.mark.parametrize(
    "equation, root, error",
    [(E4_EQUATION, F(1, 2), NotARoot), (order2(5, F(-35, 144)), 0, ResonantRoot)],
    ids=["not_a_root", "resonant"],
)
def test_frobenius_errors_match_fraction_recursion(equation, root, error):
    with pytest.raises(error) as new:
        solve_frobenius(equation, root, 8)
    with pytest.raises(error) as reference:
        fraction_frobenius(equation, root, 8)
    assert str(new.value) == str(reference.value)


# -- the equation's set-up: Newton form, one theta-form per system --

def random_equation(rng, p):
    """An order-p MLDE at a random weight with random constants g_j(oo), some zero."""
    coeffs = []
    for j in range(p - 1):
        u, v = monomial_basis(2 * (p - j))[0]
        c = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) if rng.randint(0, 4) else 0
        coeffs.append(PolynomialQR.monomial(u, v, c))
    return MLDE.make(rng.randint(-6, 14), p, coeffs)


def test_newton_form_matches_theta_form():
    for exponents in ADMISSIBLE:
        eq = mlde_from_exponents(exponents)
        assert indicial_polynomial(eq).poly == theta_indicial(eq), exponents
    rng = random.Random(23)
    for _ in range(120):
        eq = random_equation(rng, rng.randint(1, 5))
        assert indicial_polynomial(eq).poly == theta_indicial(eq), eq


def test_one_theta_form_per_system():
    eq = mlde_from_exponents([F(1, 12), F(5, 12), F(9, 12)])
    _theta_form.cache_clear()
    indicial_polynomial(eq)
    assert _theta_form.cache_info().misses == 0
    fundamental_system(eq, 20)
    assert _theta_form.cache_info().misses == 1


def per_call_theta_form(terms, k, n):
    """The theta-form as built before its tower levels were shared: D^0..D^j rebuilt for every operator."""
    k = F(k)
    p12 = eisenstein("P", n).nums
    zero, ramp = [0] * (n + 1), range(n + 1)
    tower, tower_den = [[1] + zero[1:]], 1
    den, h = 1, []
    for j, c in terms:
        while len(tower) <= j:
            w = k + 2 * (len(tower) - 1)
            a, b = 12 * w.denominator, w.numerator
            tower = [
                [a * (i * x + z) + b * y for i, x, y, z in zip(ramp, hl, _int_product(hl, p12), prev)]
                for hl, prev in zip(tower + [zero], [zero] + tower)
            ]
            tower_den *= a
        c = to_qexpansion(c, n)
        u = lcm(den, c.den * tower_den) // den
        v = den * u // (c.den * tower_den)
        h = [
            [u * x + v * y for x, y in zip(hl, _int_product(c.nums, t))]
            for hl, t in zip_longest(h, tower, fillvalue=zero)
        ]
        den *= u
    return den, tuple(map(tuple, h))


def test_theta_form_matches_per_call_tower():
    for n in (0, 1, 12, 40):
        for exponents in ADMISSIBLE:
            eq = mlde_from_exponents(exponents)
            terms = eq.to_skew().terms
            assert _theta_form(terms, eq.weight, n) == per_call_theta_form(terms, eq.weight, n), (exponents, n)


def test_tower_levels_are_shared_across_systems():
    # (0, 5/6) and (1/12, 9/12) are both order 2 at weight 4: the second system builds no level
    first, second = (mlde_from_exponents(exponents) for exponents in ([F(0), F(5, 6)], [F(1, 12), F(9, 12)]))
    assert first.weight == second.weight == 4
    _serre_tower.cache_clear()
    _theta_form.cache_clear()
    system = fundamental_system(first, 20)
    assert _serre_tower.cache_info().misses == 3  # D^0, D^1 and D^2 at weight 4 and N 20, each once
    hits = _serre_tower.cache_info().hits
    serre_vvmf(system)  # D of each component is level (4, 1, 20), which the solve built
    assert _serre_tower.cache_info().misses == 3 and _serre_tower.cache_info().hits == hits + 2
    fundamental_system(second, 20)
    assert _serre_tower.cache_info().misses == 3 and _serre_tower.cache_info().currsize == 3
    assert _theta_form.cache_info().misses == 2  # still one form per system


def test_verify_reads_the_systems_form():
    eq = mlde_from_exponents([F(0), F(2, 12), F(6, 12), F(8, 12)])
    _theta_form.cache_clear()
    system = fundamental_system(eq, 24)
    assert _theta_form.cache_info().misses == 1
    assert all(verify_solution(eq, f, 24).ok for f in system.components)
    assert _theta_form.cache_info().misses == 1


@pytest.mark.parametrize(
    "equation, error",
    [
        (MLDE.make(5, 3, [PolynomialQR.monomial(0, 1, F(3, 7)), PolynomialQR.monomial(1, 0, F(1, 5))]),
         IrrationalRoots),
        (order2(4, F(1, 144)), RootsNotDistinct),
        (order2(5, F(-35, 144)), RootsOutOfRange),
    ],
    ids=["irrational", "repeated", "out_of_range"],
)
def test_fundamental_system_refuses_before_building(equation, error):
    start = time.perf_counter()
    with pytest.raises(error):
        fundamental_system(equation, 10**6)
    assert time.perf_counter() - start < 0.1
