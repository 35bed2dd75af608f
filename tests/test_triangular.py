"""from_qexpansion and mlde_from_exponents against the general elimination they replaced.

Both now substitute on a triangular basis.  The references below rebuild the
earlier code path: the same checks, then an overdetermined solve by
Gauss-Jordan elimination over Fractions (`reference_solve`).
"""

from fractions import Fraction
from itertools import combinations

from modforms.classical import PolynomialQR, dim_M, from_qexpansion, monomial_basis, to_qexpansion
from modforms.errors import AmbiguousTruncation, NotInM
from modforms.mlde import MLDE, _partial_products, mlde_from_exponents
from modforms.qseries import QExpansion

F = Fraction


def reference_solve(a, b):
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    aug = [list(row) + [b[i]] for i, row in enumerate(a)]
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = Fraction(1) / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    if len(pivots) < ncols:
        raise ValueError("columns are linearly dependent; solution not unique")
    if any(aug[i][ncols] != 0 for i in range(r, nrows)):
        return None
    x = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        x[col] = aug[i][ncols]
    return x


def reference_from_qexpansion(f, weight, terms):
    """The elimination against the monomial columns Q^u R^v, with its checks in the same order."""
    basis = monomial_basis(weight)
    d = len(basis)
    if f.is_zero:
        return PolynomialQR.zero(weight)
    if not d:
        raise NotInM("M_w is zero")
    if terms + 1 < d:
        raise AmbiguousTruncation("too few coefficients")
    if f.leading.denominator != 1 or f.leading < 0:
        raise NotInM("leading exponent")
    if f.horizon < terms:
        raise AmbiguousTruncation("too short")
    a = list(zip(*(to_qexpansion(PolynomialQR.monomial(u, v), terms).nums for u, v in basis)))
    x = reference_solve(a, [f.coefficient(n) for n in range(terms + 1)])
    if x is None:
        raise NotInM("inconsistent")
    return PolynomialQR.make(weight, {basis[i]: x[i] for i in range(d)})


def outcome(fn, *args):
    try:
        return ("returned", fn(*args))
    except (NotInM, AmbiguousTruncation) as err:
        return ("raised", type(err))


DENOMINATORS = (1, 7, 1728, 2**61 - 1)  # as in test_to_qexpansion_matches_reference


def test_from_qexpansion_matches_elimination():
    for weight in range(0, 121, 2):
        d = dim_M(weight)
        basis = monomial_basis(weight)
        # coefficient i over one of the denominators, rotating with the weight
        coords = {b: F((-1) ** i * (3 * i + 1), DENOMINATORS[(i + weight // 2) % 4]) for i, b in enumerate(basis)}
        m = PolynomialQR.make(weight, coords)
        f = to_qexpansion(m, 40)
        for terms in (d - 2, d - 1, d + 3, 40):
            inputs = [f, QExpansion._from_ints(F(1), f.nums, f.den)]  # the same numerators from q^1
            if terms >= 0:  # one more at q^terms
                nums = list(f.nums)
                nums[terms] += f.den
                inputs.append(QExpansion._from_ints(F(0), nums, f.den))
            for g in inputs:
                got = outcome(from_qexpansion, g, weight, terms)
                assert got == outcome(reference_from_qexpansion, g, weight, terms), (weight, terms, g)
                if g is f and terms + 1 >= d:
                    assert got == ("returned", m)


def reference_mlde(exponents):
    """The constants g_j(oo) from one solve against the partial products as columns."""
    ms = [Fraction(m) for m in exponents]
    p = len(ms)
    k0 = int(Fraction(12, p) * sum(ms) - p + 1)
    partial = _partial_products([Fraction(k0 + 2 * l, 12) for l in range(p)])
    target = _partial_products(ms)[p]
    a = [[partial[j][i] if i <= j else 0 for j in range(p - 1)] for i in range(p + 1)]
    consts = reference_solve(a, [t - c for t, c in zip(target, partial[p])])
    coeffs = []
    for j in range(p - 1):
        (u, v), = monomial_basis(2 * (p - j))
        coeffs.append(PolynomialQR.monomial(u, v, consts[j]))
    return MLDE.make(k0, p, coeffs)


def test_mlde_from_exponents_matches_elimination():
    count = 0
    for p in range(1, 6):
        for nums in combinations(range(12), p):
            if sum(nums) % p:  # k_0 = sum(nums) / p - p + 1 must be an integer
                continue
            exponents = [F(i, 12) for i in nums]
            assert mlde_from_exponents(exponents) == reference_mlde(exponents), exponents
            count += 1
    assert count == 404
