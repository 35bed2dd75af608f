"""Truncated q-expansions with a fractional leading exponent.

A series is ``q^leading * (A_0 + A_1 q + ... + A_N q^N) / den``: an exact
rational leading exponent, int numerators A_n and one int den > 0 with
gcd(den, A_0, ..., A_N) = 1, the canonical layout of FLINT's ``fmpq_poly``,
so equal series have equal fields.  Operations work on the numerators: a
sum rescales both to the lcm of the denominators, a product convolves them
over the product of the denominators, and each result is reduced once.
``coeffs`` builds the Fractions on access.  Float or complex coefficients
are rejected; `evaluate` divides each numerator by den on the fly.

A constant factor is a scalar multiply.  Every other product packs both
operands into one integer each and multiplies once (Kronecker
substitution), so the quadratic work happens inside CPython's big-integer
multiply at every length.

Truncation is knowledge, not padding: terms beyond ``q^(leading+N)`` are
unknown, and every arithmetic operation propagates the largest truncation
for which all contributing terms of its inputs are known.  Terms *below*
the leading exponent are genuinely zero.
"""

from __future__ import annotations

import cmath
import math
import warnings
from fractions import Fraction
from itertools import islice, repeat
from operator import add, mul

from .errors import CannotExtend, NonConvergent, NonIntegralOffset, Record, _set

#: Truncation used by convenience constructors when none is given.
DEFAULT_TERMS = 64

_TWO_PI_I = 2j * math.pi


def _coerce(c) -> Fraction:
    """Map an exact scalar (Fraction, int or "num/den" string) to a Fraction."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, (int, str)):
        return Fraction(c)
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


def _kronecker(a: list[int], b: list[int]) -> list[int]:
    """First len(a) coefficients of a*b (len(a) == len(b)) by one big multiply.

    Each operand becomes sum(c_i * 2^(w*i)) for a slot width w of whole
    bytes with 2^(w-1) above every output coefficient, so no output digit
    overflows its slot.  Slots are packed and read back through bytes with
    an offset of 2^(w-1), which turns the signed digits into unsigned ones.
    Neither operand is constant (`_int_product` scales those), so both
    have a nonzero coefficient.
    """
    n = len(a)
    top_a, top_b = max(map(abs, a)), max(map(abs, b))
    bound = top_a * top_b * n  # top_a, top_b >= 1, so no less than either: the inputs fit too
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
    """First len(a) coefficients of a*b (len(a) == len(b)): one Kronecker multiply.

    A constant factor (a zero one included) only scales the other operand.
    """
    for x, y in ((a, b), (b, a)):
        if not any(islice(x, 1, None)):
            return [x[0] * c for c in y]
    return _kronecker(a, b)


class QExpansion(Record):
    """Immutable truncated series ``q^leading * sum(nums[n] q^n, n=0..N) / den``."""

    __slots__ = ("leading", "den", "nums")  # Fraction; int > 0; tuple of ints

    def __init__(self, leading, coeffs):
        """The series with the given Fraction, int or "num/den" string coefficients."""
        coeffs = [_coerce(c) for c in coeffs]
        # the lcm of reduced denominators leaves the numerators coprime to it
        den = math.lcm(*(c.denominator for c in coeffs))
        _set(self, "leading", Fraction(leading))
        _set(self, "den", den)
        _set(self, "nums", tuple(c.numerator * (den // c.denominator) for c in coeffs))

    @staticmethod
    def _from_ints(leading: Fraction, nums, den: int = 1) -> QExpansion:
        """The series q^leading * sum(nums[n] q^n) / den for den > 0, reduced."""
        g = math.gcd(den, *nums) if den != 1 else 1
        f = object.__new__(QExpansion)
        _set(f, "leading", leading)
        _set(f, "den", den // g)
        _set(f, "nums", tuple(x // g for x in nums) if g != 1 else tuple(nums))
        return f

    @staticmethod
    def make(coeffs, leading=0) -> QExpansion:
        """Build a series from an iterable of Fractions, ints or "num/den" strings."""
        return QExpansion(leading, coeffs)

    @staticmethod
    def zero(order: int = DEFAULT_TERMS) -> QExpansion:
        """The canonical zero series, known through q^order."""
        return QExpansion._from_ints(Fraction(0), (0,) * (order + 1))

    @staticmethod
    def one(order: int = DEFAULT_TERMS) -> QExpansion:
        return QExpansion._from_ints(Fraction(0), (1,) + (0,) * order)

    @property
    def coeffs(self) -> tuple:
        """The coefficients as reduced Fractions, built on each access."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    @property
    def truncation_order(self) -> int:
        return len(self.nums) - 1

    @property
    def horizon(self) -> Fraction:
        """Largest exponent whose coefficient is known."""
        return self.leading + self.truncation_order

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    def coefficient(self, exponent) -> Fraction:
        """Coefficient of q^exponent; zero below the leading term or off-lattice."""
        exponent = Fraction(exponent)
        if exponent > self.horizon:
            raise CannotExtend(f"coefficient of q^{exponent} is beyond the known truncation")
        offset = exponent - self.leading
        if offset < 0 or offset.denominator != 1:
            return Fraction(0)
        return Fraction(self.nums[int(offset)], self.den)

    def normalized(self) -> QExpansion:
        """Shift the leading exponent up so that c_0 != 0 (canonical zero if zero)."""
        if self.is_zero:
            return QExpansion.zero(max(math.floor(self.horizon), 0))
        shift = next(i for i, x in enumerate(self.nums) if x)
        return QExpansion._from_ints(self.leading + shift, self.nums[shift:], self.den)

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
            return live.truncate(min(keep, live.truncation_order))
        offset = self.leading - other.leading
        if offset.denominator != 1:
            raise NonIntegralOffset(
                f"cannot add series with leading exponents {self.leading} and {other.leading}"
            )
        low, high = (self, other) if offset <= 0 else (other, self)
        n_out = int(min(self.horizon, other.horizon) - low.leading)
        shift = int(high.leading - low.leading)
        den = math.lcm(low.den, high.den)
        # the lower series is known everywhere the sum is; the higher one
        # contributes from its leading exponent on
        nums = list(map(mul, repeat(den // low.den), low.nums[: n_out + 1]))
        nums[shift:] = map(add, nums[shift:], map(mul, repeat(den // high.den), high.nums[: n_out + 1 - shift]))
        return QExpansion._from_ints(low.leading, nums, den)

    def __sub__(self, other: QExpansion) -> QExpansion:
        return self + (-other)

    def __neg__(self) -> QExpansion:
        return QExpansion._from_ints(self.leading, [-x for x in self.nums], self.den)

    def __mul__(self, other):
        if not isinstance(other, QExpansion):
            return self.scale(other)
        n = min(len(self.nums), len(other.nums))
        product = _int_product(self.nums[:n], other.nums[:n])
        return QExpansion._from_ints(self.leading + other.leading, product, self.den * other.den)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> QExpansion:
        c = _coerce(c)
        # c == 0 gives zero on the same lattice, so no horizon knowledge is lost
        nums = [c.numerator * x for x in self.nums]
        return QExpansion._from_ints(self.leading, nums, self.den * c.denominator)

    def theta(self) -> QExpansion:
        """q d/dq: multiply the coefficient of q^(leading+n) by leading+n."""
        r, s = self.leading.numerator, self.leading.denominator
        nums = list(map(mul, range(r, r + s * len(self.nums), s), self.nums))
        return QExpansion._from_ints(self.leading, nums, self.den * s)

    def truncate(self, order: int) -> QExpansion:
        """Drop coefficients beyond the given truncation order."""
        if order < 0:
            raise CannotExtend("truncation order must be nonnegative")
        if order > self.truncation_order:
            raise CannotExtend(
                f"series known to order {self.truncation_order}, cannot extend to {order}"
            )
        return QExpansion._from_ints(self.leading, self.nums[: order + 1], self.den)

    def evaluate(self, tau: complex) -> complex:
        """Sum the truncated series at a point of the upper half-plane.

        Fractional leading powers are evaluated as exp(2*pi*i*leading*tau)
        directly, so there is no branch ambiguity; each int quotient A_n / den
        stays finite for numerators far beyond the float range.  Emits a
        ``NonConvergent`` warning if |q| > 1/2, where the truncation is unreliable.
        """
        tau = complex(tau)
        if tau.imag <= 0:
            raise ValueError("evaluation requires Im(tau) > 0")
        q = cmath.exp(_TWO_PI_I * tau)
        if abs(q) > 0.5:
            warnings.warn("|q| > 0.5: truncated evaluation unreliable", NonConvergent)
        acc = 0j
        for x in reversed(self.nums):
            acc = acc * q + x / self.den
        return acc * cmath.exp(_TWO_PI_I * self.leading * tau)

    def __str__(self) -> str:
        terms = []
        for n, x in enumerate(self.nums[:8]):
            if not x:
                continue
            c, e = Fraction(x, self.den), self.leading + n
            if e == 0:
                terms.append(f"{c}")
            elif e == 1:
                terms.append(f"{c}*q")
            else:
                terms.append(f"{c}*q^({e})")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(q^({self.horizon + 1}))"
