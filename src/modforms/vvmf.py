"""Vector-valued modular forms for representations with diagonal T-action.

A representation is carried as exponent data: rho(T) = diag(e^{2 pi i m_j})
with exact rationals 0 <= m_j < 1, plus an optional numeric rho(S).  A form
is a weight together with one q-expansion per component; holomorphy at the
cusp means each component's leading exponent exceeds its m_j by a
nonnegative integer.

rho(S) is never needed exactly: it is recovered numerically from a
fundamental system by sampling tau on the unit circle, which the S-involution
tau -> -1/tau preserves.  Numeric matrices are tuples of row tuples of complex.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from . import linalg
from .classical import serre_derivative
from .errors import InsufficientTruncation, Record, SingularSampleMatrix
from .qseries import QExpansion


class RepData(Record):
    """Exponents m_j of the diagonal T-action, with optional numeric S-matrix."""

    __slots__ = ("exponents", "rho_S")  # Fractions in [0, 1); p x p rows of complex entries, or None
    _defaults = {"rho_S": None}

    @staticmethod
    def make(exponents, rho_S=None) -> RepData:
        ms = tuple(Fraction(m) for m in exponents)
        for m in ms:
            if not 0 <= m < 1:
                raise ValueError(f"T-exponent {m} outside [0, 1)")
        if rho_S is not None:
            rho_S = tuple(tuple(complex(x) for x in row) for row in rho_S)
            if len(rho_S) != len(ms) or any(len(row) != len(ms) for row in rho_S):
                raise ValueError("rho_S must be a p x p matrix")
        return RepData(ms, rho_S)

    @property
    def p(self) -> int:
        return len(self.exponents)

    def with_rho_S(self, matrix) -> RepData:
        return RepData.make(self.exponents, matrix)


class VVMF(Record):
    """A weight, representation data, and one q-expansion per component."""

    __slots__ = ("weight", "rep", "components")  # int; RepData; tuple of QExpansion

    @staticmethod
    def make(weight: int, rep: RepData, components) -> VVMF:
        components = tuple(components)
        if len(components) != rep.p:
            raise ValueError(f"expected {rep.p} components, got {len(components)}")
        return VVMF(weight, rep, components)

    @property
    def p(self) -> int:
        return self.rep.p


class ComponentCheck(Record):
    __slots__ = ("index", "ok", "message")


class ValidationReport(Record):
    __slots__ = ("ok", "components")  # bool; tuple of ComponentCheck


def validate(form: VVMF) -> ValidationReport:
    """Check holomorphy at the cusp: leading_j - m_j must be in Z>=0.

    Failures are reported per component rather than raised; a zero component
    carries no exponent information and passes.
    """
    checks = []
    for j, (f, m) in enumerate(zip(form.components, form.rep.exponents)):
        if f.is_zero:
            checks.append(ComponentCheck(j, True, "zero component"))
            continue
        leading = f.leading + next(i for i, x in enumerate(f.nums) if x)
        gap = leading - m
        if gap.denominator != 1:
            checks.append(ComponentCheck(j, False, f"leading {leading} not congruent to {m} mod 1"))
        elif gap < 0:
            checks.append(ComponentCheck(j, False, f"meromorphic at infinity: leading below {m}"))
        else:
            checks.append(ComponentCheck(j, True, f"leading = m_j + {gap}"))
    return ValidationReport(all(c.ok for c in checks), tuple(checks))


def module_action(g: QExpansion, g_weight: int, form: VVMF) -> VVMF:
    """Multiply every component by the classical form g of even weight g_weight."""
    if g.leading.denominator != 1 or g.leading < 0:
        raise ValueError("module action needs a classical form with integer leading >= 0")
    return VVMF(form.weight + g_weight, form.rep, tuple(g * f for f in form.components))


def serre_vvmf(form: VVMF) -> VVMF:
    """Componentwise Serre derivative at the form's weight; weight goes up by 2."""
    k = form.weight
    return VVMF(k + 2, form.rep, tuple(serre_derivative(f, k) for f in form.components))


def is_essential(form: VVMF, n_terms: int) -> bool:
    """True iff the components are linearly independent over C.

    Decided exactly from the coefficient matrix on the union of the component
    exponent lattices, capped at the smallest component horizon so no
    unknown coefficient is ever treated as zero.  A component with no known
    nonzero coefficient is known only through its horizon, like any other.
    Full rank proves independence.  Rank below p proves dependence only when
    the grid holds every component through the Sturm bound (pk + p(p - 1))/12
    of the Wronskian of a holomorphic form: a nonzero combination vanishing
    through that exponent would give a nonzero Wronskian of too high cusp
    order.  Below the bound this raises InsufficientTruncation.
    """
    p = form.p
    if n_terms + 1 < p:
        raise InsufficientTruncation(f"{n_terms + 1} aligned coefficients cannot have rank {p}")
    cap = min(f.horizon for f in form.components)
    grid = sorted({f.leading + n for f in form.components for n in range(n_terms + 1) if f.leading + n <= cap})
    # f's int numerators on the grid: f.den scales a whole row, which keeps the rank
    cells = [{f.leading + n: x for n, x in enumerate(f.nums)} for f in form.components]
    rows = [[c.get(e, 0) for e in grid] for c in cells]
    if linalg.rank(rows) == p:
        return True
    top = min(cap, min(f.leading for f in form.components) + n_terms)  # every component is known through top
    bound = Fraction(p * form.weight + p * (p - 1), 12)
    if top < bound:
        raise InsufficientTruncation(f"rank below {p} through q^{top}, under the Wronskian bound q^{bound}")
    return False


def evaluate_vec(form: VVMF, tau: complex):
    """Evaluate all components at a point of the upper half-plane."""
    return [f.evaluate(tau) for f in form.components]


def default_sample_points(p: int):
    """p points on the unit circle, arguments spread over [1.15, 1.55] radians.

    The circle is stable under tau -> -1/tau, and |q| < 0.005 at both tau and
    -1/tau, so truncated evaluations converge fast.
    """
    if p < 1:
        raise ValueError("need at least one sample point")
    if p == 1:
        thetas = [1.35]
    else:
        thetas = [1.15 + 0.4 * l / (p - 1) for l in range(p)]
    return [cmath.exp(1j * t) for t in thetas]


def _matmul(a, b) -> list:
    return [[sum(x * y for x, y in zip(row, column)) for column in zip(*b)] for row in a]


def _norm1(matrix) -> float:
    return max(sum(map(abs, column)) for column in zip(*matrix))


def _inverse(matrix):
    """V^-1 by Gauss-Jordan with partial pivoting; raises unless kappa_1 = ||V||_1 ||V^-1||_1 <= 1e8."""
    p = len(matrix)
    rows = [[complex(x) for x in row] + [complex(i == j) for j in range(p)] for i, row in enumerate(matrix)]
    for c in range(p):
        pivot = max(range(c, p), key=lambda r: abs(rows[r][c]))
        if rows[pivot][c] == 0:
            raise SingularSampleMatrix("sample value matrix is singular; pick new points")
        rows[pivot], rows[c] = rows[c], [x / rows[pivot][c] for x in rows[pivot]]
        rows = [row if r == c else [x - row[c] * y for x, y in zip(row, rows[c])] for r, row in enumerate(rows)]
    inverse = [row[p:] for row in rows]
    if _norm1(matrix) * _norm1(inverse) > 1e8:  # the 1-norm, which LAPACK's xGECON estimates
        raise SingularSampleMatrix("sample value matrix is numerically singular; pick new points")
    return inverse


def recover_rho_S(form: VVMF, points=None) -> tuple:
    """Solve tau^{-k} F(-1/tau_l) = X F(tau_l) for the monodromy matrix X.

    For an essential form and p sample points, returns X = W V^-1 (V = [f_j(tau_l)], W the
    slashed values) as a tuple of row tuples of complex.  Raises SingularSampleMatrix on an
    exactly zero pivot of V or a condition number kappa_1 = ||V||_1 ||V^-1||_1 above 1e8.
    """
    p = form.p
    if points is None:
        points = default_sample_points(p)
    points = [complex(t) for t in points]
    if len(points) != p:
        raise ValueError(f"need exactly {p} sample points")
    inverse = _inverse([[f.evaluate(t) for t in points] for f in form.components])
    slashed = [[t ** (-form.weight) * f.evaluate(-1 / t) for t in points] for f in form.components]
    return tuple(tuple(row) for row in _matmul(slashed, inverse))


class RelationReport(Record):
    __slots__ = ("ok", "sign", "s_squared_residual", "braid_residual")


def _distance(a, b) -> float:
    return max(abs(x - y) for row_a, row_b in zip(a, b) for x, y in zip(row_a, row_b))


def check_relations(rep: RepData, tol: float = 1e-6) -> RelationReport:
    """Verify rho(S)^2 = +-I and (rho(S) rho(T))^3 = rho(S)^2 to tol in the largest entrywise error.

    rho(T) = diag(e^{2 pi i m_j}), so rho(S) rho(T) scales column j of rho(S) by e^{2 pi i m_j}.
    """
    if rep.rho_S is None:
        raise ValueError("rep carries no rho_S")
    s2 = _matmul(rep.rho_S, rep.rho_S)
    eye = [[float(i == j) for j in range(rep.p)] for i in range(rep.p)]
    res_plus, res_minus = _distance(s2, eye), _distance(s2, [[-x for x in row] for row in eye])
    sign, s2_res = (1, res_plus) if res_plus <= res_minus else (-1, res_minus)
    st = [[x * cmath.exp(2j * math.pi * float(m)) for x, m in zip(row, rep.exponents)] for row in rep.rho_S]
    braid_res = _distance(_matmul(_matmul(st, st), st), s2)
    return RelationReport(s2_res < tol and braid_res < tol, sign, s2_res, braid_res)
