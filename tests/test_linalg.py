import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modforms.linalg import _echelon, _poly_divmod, _poly_eval, _poly_mul, rank
from modforms.structure import all_2dim_classes, coker_ps_difference

F = Fraction


# -- the elimination loop `rank` replaced, kept as the reference --

def reference_rank(rows):
    if not rows:
        return 0
    m = [list(r) for r in rows]
    ncols = len(m[0])
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


DENOMINATORS = (1, 2, 3, 12, 1728, 2**61 - 1, 2**89 - 1)


@st.composite
def matrices(draw):
    """Square, wide and tall matrices with zero, duplicate and multiple rows."""
    nrows, ncols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    cell = st.one_of(
        st.just(F(0)),
        st.builds(F, st.integers(-(2**40), 2**40), st.sampled_from(DENOMINATORS)),
    )
    rows = draw(st.lists(st.lists(cell, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    for _ in range(draw(st.integers(0, 2))):
        src, dst = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        factor = draw(st.sampled_from((F(0), F(1), F(-3, 2**89 - 1))))
        rows[dst] = [factor * x for x in rows[src]]
    if draw(st.booleans()):  # a repeated column makes the columns dependent
        src, dst = draw(st.integers(0, ncols - 1)), draw(st.integers(0, ncols - 1))
        for row in rows:
            row[dst] = row[src]
    return rows


@settings(max_examples=150, deadline=None)
@given(matrices())
@example([[F(0), F(0)], [F(0), F(0)]])
@example([[F(1), F(2), F(3)], [F(2), F(4), F(6)]])
def test_rank_matches_reference(rows):
    # rank takes int rows; scaling a row by the lcm of its denominators keeps the rank
    int_rows = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        int_rows.append([int(x * den) for x in row])
    assert rank(int_rows) == reference_rank(rows)
    with pytest.raises(TypeError):  # a Fraction cell is refused, never floored
        rank([int_rows[0][:-1] + [F(1, 2)]] + int_rows[1:])


# -- the free_basis shapes: wide int rows --

wide = st.integers(100, 400).flatmap(lambda bits: st.integers(-(2**bits), 2**bits))
big_ints = st.one_of(st.just(0), wide, wide, wide)  # about a quarter zeros


@st.composite
def wide_int_rows(draw):
    """1-6 int rows of up to 80 columns, some led by zeros, some integer combinations of others.

    Columns may share a large factor, as the early entries of rows over one
    common denominator do.
    """
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 80))
    scales = draw(st.lists(st.sampled_from((1, 1, 2**61 - 1, 12**120)), min_size=ncols, max_size=ncols))
    rows = []
    for _ in range(nrows):
        zeros = draw(st.integers(0, ncols))
        cells = [0] * zeros + draw(st.lists(big_ints, min_size=ncols - zeros, max_size=ncols - zeros))
        rows.append([c * s for c, s in zip(cells, scales)])
    for dst in draw(st.lists(st.integers(0, nrows - 1), max_size=2)):
        factors = draw(st.lists(st.integers(-(2**200), 2**200), min_size=nrows, max_size=nrows))
        rows[dst] = [sum(c * row[j] for c, row in zip(factors, rows) if row is not rows[dst]) for j in range(ncols)]
    return rows


@settings(max_examples=100, deadline=None)
@given(wide_int_rows())
@example([[0] * 80] * 6)
@example([[2**400 + 1] * 80, [2**400 + 1] * 80])
def test_rank_of_wide_int_rows(rows):
    assert rank(rows) == reference_rank(rows)


def leibniz_det(rows):
    total = 0
    for perm in permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(st.lists(big_ints, min_size=n, max_size=n), min_size=n, max_size=n)))
@example([[0, 3, 1], [2, 0, 0], [0, 5, 7]])  # a row swap at the first step
def test_echelon_entries_are_minors(rows):
    # fraction-free: the last pivot of a nonsingular square matrix is its determinant, up to sign
    m = [list(row) for row in rows]
    r = _echelon(m)
    det = leibniz_det(rows)
    assert (r == len(rows)) == (det != 0)
    if det:
        assert abs(m[-1][-1]) == abs(det)


def test_empty_matrix():
    assert rank([]) == 0


# -- dense polynomials --------------------------------------------------------

def poly_add(a, b):
    n = max(len(a), len(b))
    return [x + y for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))]


def trimmed(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


ints = st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=12)
fracs = st.lists(st.fractions(max_denominator=2**89 - 1), min_size=1, max_size=12)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.tuples(ints, ints), st.tuples(fracs, fracs)))
def test_poly_divmod_identity(pair):
    a, b_low = pair
    b = b_low[:-1] + [1]  # monic
    q, r = _poly_divmod(a, b)
    assert len(r) < len(b)
    assert trimmed(poly_add(_poly_mul(q, b), r) if q else r) == trimmed(a)
    if all(type(c) is int for c in a + b):
        assert all(type(c) is int for c in q + r)


@settings(max_examples=60, deadline=None)
@given(fracs, st.fractions(max_denominator=1000003))
def test_poly_divmod_deflates_a_known_root(cofactor, root):
    a = _poly_mul(cofactor, [-root, F(1)])
    assert _poly_eval(a, root) == 0
    q, r = _poly_divmod(a, [-root, 1])
    assert q == cofactor and trimmed(r) == []


def test_poly_divmod_wants_a_monic_divisor():
    with pytest.raises(ValueError):
        _poly_divmod([1, 2, 3], [1, 2])


def test_poly_eval_is_horner():
    a = [F(1, 3), -2, F(5, 7), 1]
    x = F(-9, 4)
    assert _poly_eval(a, x) == sum(c * x**i for i, c in enumerate(a))


def test_coker_difference_through_divmod():
    cyclic = [c for c in all_2dim_classes() if c.kind == "cyclic"]
    assert len(cyclic) == 12
    for cls in cyclic:
        want = {cls.b: 1} if (cls.a, cls.b) in ((10, 0), (11, 1)) else {}
        assert coker_ps_difference(cls) == want
