from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modforms.linalg import _poly_divmod, _poly_eval, _poly_mul, rank, solve_overdetermined
from modforms.structure import all_2dim_classes, coker_ps_difference

F = Fraction


# -- the two elimination loops the shared pass replaced, kept as references --

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


def outcome(fn, *args):
    try:
        return ("returned", fn(*args))
    except ValueError as err:
        return ("raised", str(err))


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
    assert rank(rows) == reference_rank(rows)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
@example([[F(1)], [F(1)]], [F(1), F(2)])  # inconsistent
@example([[F(1), F(1)], [F(2), F(2)], [F(0), F(0)]], [F(1), F(2), F(0)])  # dependent columns
@example([[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]], [F(1), F(2), F(3)])  # consistent, tall
def test_solve_matches_reference(rows, data):
    if isinstance(data, list):
        b = data
    else:
        kind = data.draw(st.sampled_from(("consistent", "arbitrary")))
        if kind == "consistent":
            x = data.draw(st.lists(st.fractions(max_denominator=2**89 - 1), min_size=len(rows[0]), max_size=len(rows[0])))
            b = [sum((a * y for a, y in zip(row, x)), F(0)) for row in rows]
        else:
            b = data.draw(st.lists(st.fractions(max_denominator=12), min_size=len(rows), max_size=len(rows)))
    assert outcome(solve_overdetermined, rows, b) == outcome(reference_solve, rows, b)


def test_empty_matrix():
    assert rank([]) == 0
    assert solve_overdetermined([], []) == []


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
