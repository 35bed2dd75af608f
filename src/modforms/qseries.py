"""Truncated q-expansions with a fractional leading exponent.

A series is stored as ``q^leading * (c_0 + c_1 q + ... + c_N q^N)`` where
``leading`` is an exact rational and every c_n is a `fractions.Fraction`.
There is no floating-point coefficient domain: `evaluate` converts to
complex on the fly, and float or complex coefficients are rejected.

Products are computed over the integers.  Each operand's coefficients are
scaled by the lcm of their denominators, the integer numerators are
convolved, and every output coefficient is divided once by the product of
the two lcms.  A constant factor is a scalar multiply.  Short products use
a schoolbook convolution that skips zero coefficients (eta products are
sparse); from ``KRONECKER_CUTOFF`` terms on, both operands are packed into
one integer each and multiplied once (Kronecker substitution), so the
quadratic work happens inside CPython's big-integer multiply.

Truncation is knowledge, not padding: terms beyond ``q^(leading+N)`` are
unknown, and every arithmetic operation propagates the largest truncation
for which all contributing terms of its inputs are known.  Terms *below*
the leading exponent are genuinely zero.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from operator import add, mul

from .errors import CannotExtend, NonConvergent, NonIntegralOffset

#: Truncation used by convenience constructors when none is given.
DEFAULT_TERMS = 64

#: Products with at least this many coefficients use Kronecker substitution,
#: shorter ones the schoolbook convolution; measured in BENCH_2.json.
KRONECKER_CUTOFF = 16

_TWO_PI_I = 2j * math.pi


def _coerce(c) -> Fraction:
    """Map an exact scalar (Fraction, int or "num/den" string) to a Fraction."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, (int, str)):
        return Fraction(c)
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


def _clear_denominators(coeffs) -> tuple[int, list[int]]:
    """(d, [d*c for c in coeffs]) with d the lcm of the denominators."""
    d = math.lcm(*(c.denominator for c in coeffs))
    if d == 1:
        return 1, [c.numerator for c in coeffs]
    return d, [c.numerator * (d // c.denominator) for c in coeffs]


def _schoolbook(a: list[int], b: list[int]) -> list[int]:
    """First len(a) coefficients of a*b (len(a) == len(b)), skipping zeros.

    The operand with more zero coefficients drives the outer loop, so a
    sparse factor such as the Euler product costs one pass per nonzero term.
    """
    if a.count(0) < b.count(0):
        a, b = b, a
    n = len(a)
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            out[i:] = map(add, out[i:], map(mul, repeat(x), b[: n - i]))
    return out


def _kronecker(a: list[int], b: list[int]) -> list[int]:
    """First len(a) coefficients of a*b (len(a) == len(b)) by one big multiply.

    Each operand becomes sum(c_i * 2^(w*i)) for a slot width w of whole
    bytes with 2^(w-1) above every output coefficient, so no output digit
    overflows its slot.  Slots are packed and read back through bytes with
    an offset of 2^(w-1), which turns the signed digits into unsigned ones.
    """
    n = len(a)
    top_a, top_b = max(map(abs, a)), max(map(abs, b))
    if not top_a or not top_b:
        return [0] * n
    bound = top_a * top_b * n  # no less than top_a or top_b, so the inputs fit too
    width = bound.bit_length() // 8 + 1  # bytes; 2^(8*width - 1) > bound
    size = width * n
    half = 1 << (8 * width - 1)
    offset = int.from_bytes(b"\x01".ljust(width, b"\x00") * n, "little") * half
    to_bytes, from_bytes = int.to_bytes, int.from_bytes

    def pack(c):
        return from_bytes(b"".join([to_bytes(x + half, width, "little") for x in c]), "little") - offset

    # the low n slots of the product, each holding its digit + 2^(w-1)
    low = (pack(a) * pack(b) + offset) & ((1 << (8 * size)) - 1)
    raw = low.to_bytes(size, "little")
    return [from_bytes(raw[i : i + width], "little") - half for i in range(0, size, width)]


def _int_product(a: list[int], b: list[int]) -> list[int]:
    """First len(a) coefficients of a*b (len(a) == len(b)), kernel chosen by size."""
    for x, y in ((a, b), (b, a)):
        if not any(islice(x, 1, None)):  # a constant factor only scales
            return [x[0] * c for c in y]
    return _schoolbook(a, b) if len(a) < KRONECKER_CUTOFF else _kronecker(a, b)


@dataclass(frozen=True)
class QExpansion:
    """Immutable truncated series ``q^leading * sum(c_n q^n, n=0..N)``."""

    leading: Fraction
    coeffs: tuple

    @staticmethod
    def make(coeffs, leading=0) -> QExpansion:
        """Build a series from an iterable of Fractions, ints or "num/den" strings."""
        return QExpansion(Fraction(leading), tuple(_coerce(c) for c in coeffs))

    @staticmethod
    def zero(order: int = DEFAULT_TERMS) -> QExpansion:
        """The canonical zero series, known through q^order."""
        return QExpansion(Fraction(0), (Fraction(0),) * (order + 1))

    @staticmethod
    def one(order: int = DEFAULT_TERMS) -> QExpansion:
        return QExpansion(Fraction(0), (Fraction(1),) + (Fraction(0),) * order)

    @property
    def truncation_order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def horizon(self) -> Fraction:
        """Largest exponent whose coefficient is known."""
        return self.leading + self.truncation_order

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def coefficient(self, exponent) -> Fraction:
        """Coefficient of q^exponent; zero below the leading term or off-lattice."""
        exponent = Fraction(exponent)
        if exponent > self.horizon:
            raise CannotExtend(f"coefficient of q^{exponent} is beyond the known truncation")
        offset = exponent - self.leading
        if offset < 0 or offset.denominator != 1:
            return Fraction(0)
        return self.coeffs[int(offset)]

    def normalized(self) -> QExpansion:
        """Shift the leading exponent up so that c_0 != 0 (canonical zero if zero)."""
        if self.is_zero:
            return QExpansion.zero(max(math.floor(self.horizon), 0))
        shift = next(i for i, c in enumerate(self.coeffs) if c != 0)
        return QExpansion(self.leading + shift, self.coeffs[shift:])

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: QExpansion) -> QExpansion:
        if not isinstance(other, QExpansion):
            return NotImplemented
        # A zero operand is lattice-agnostic: it only caps the horizon.
        if self.is_zero or other.is_zero:
            zero, live = (self, other) if self.is_zero else (other, self)
            if live.is_zero:
                return zero if zero.horizon <= live.horizon else live
            keep = math.floor(zero.horizon - live.leading)
            if keep < 0:
                # the zero's knowledge ends below the live terms; there the sum is zero
                return zero
            return QExpansion(live.leading, live.coeffs[: keep + 1])
        offset = self.leading - other.leading
        if offset.denominator != 1:
            raise NonIntegralOffset(
                f"cannot add series with leading exponents {self.leading} and {other.leading}"
            )
        low, high = (self, other) if offset <= 0 else (other, self)
        n_out = int(min(self.horizon, other.horizon) - low.leading)
        shift = int(high.leading - low.leading)
        # the lower series is known everywhere the sum is; the higher one
        # contributes from its leading exponent on
        coeffs = list(low.coeffs[: n_out + 1])
        coeffs[shift:] = map(add, coeffs[shift:], high.coeffs[: n_out + 1 - shift])
        return QExpansion(low.leading, tuple(coeffs))

    def __sub__(self, other: QExpansion) -> QExpansion:
        return self + (-other)

    def __neg__(self) -> QExpansion:
        return QExpansion(self.leading, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, QExpansion):
            return self.scale(other)
        n = min(len(self.coeffs), len(other.coeffs))
        da, a = _clear_denominators(self.coeffs[:n])
        db, b = _clear_denominators(other.coeffs[:n])
        product = _int_product(a, b)
        d = da * db
        coeffs = map(Fraction, product) if d == 1 else (Fraction(c, d) for c in product)
        return QExpansion(self.leading + other.leading, tuple(coeffs))

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> QExpansion:
        c = _coerce(c)
        if c == 0:
            # zero on the same lattice, so no horizon knowledge is lost
            return QExpansion(self.leading, (Fraction(0),) * len(self.coeffs))
        return QExpansion(self.leading, tuple(c * a for a in self.coeffs))

    def theta(self) -> QExpansion:
        """q d/dq: multiply the coefficient of q^(leading+n) by leading+n."""
        return QExpansion(
            self.leading,
            tuple((self.leading + n) * c for n, c in enumerate(self.coeffs)),
        )

    def truncate(self, order: int) -> QExpansion:
        """Drop coefficients beyond the given truncation order."""
        if order < 0:
            raise CannotExtend("truncation order must be nonnegative")
        if order > self.truncation_order:
            if self.is_zero:
                return QExpansion.zero(order)
            raise CannotExtend(
                f"series known to order {self.truncation_order}, cannot extend to {order}"
            )
        return QExpansion(self.leading, self.coeffs[: order + 1])

    def evaluate(self, tau: complex) -> complex:
        """Sum the truncated series at a point of the upper half-plane.

        Fractional leading powers are evaluated as exp(2*pi*i*leading*tau)
        directly, so there is no branch ambiguity.  Emits a ``NonConvergent``
        warning if |q| > 1/2, where the truncation is unreliable.
        """
        tau = complex(tau)
        if tau.imag <= 0:
            raise ValueError("evaluation requires Im(tau) > 0")
        q = cmath.exp(_TWO_PI_I * tau)
        if abs(q) > 0.5:
            warnings.warn("|q| > 0.5: truncated evaluation unreliable", NonConvergent)
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * q + complex(c)
        return acc * cmath.exp(_TWO_PI_I * self.leading * tau)

    def __str__(self) -> str:
        terms = []
        for n, c in enumerate(self.coeffs[:8]):
            if c == 0:
                continue
            e = self.leading + n
            if e == 0:
                terms.append(f"{c}")
            elif e == 1:
                terms.append(f"{c}*q")
            else:
                terms.append(f"{c}*q^({e})")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(q^({self.horizon + 1}))"
