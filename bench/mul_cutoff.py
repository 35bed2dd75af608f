"""Timings of the q-series multiply: Fraction convolution vs integer kernels.

    PYTHONPATH=src python3 bench/mul_cutoff.py > timings.json

For every truncation N the script multiplies two operand families and times
four paths on the same inputs:

* ``fraction_s``: the Fraction convolution that ``QExpansion.__mul__`` used
  before the integer kernel (skipped above ``FRACTION_MAX_N`` for the
  high-height family, where one product takes minutes);
* ``schoolbook_s`` and ``kronecker_s``: the two integer kernels of
  ``modforms.qseries`` on the stored numerators (``QExpansion.nums``);
* ``mul_s``: ``QExpansion.__mul__`` end to end (the kernel chosen by
  ``KRONECKER_CUTOFF`` and one reduction of the result).

Families: ``eisenstein`` is E4 * E6 (dense, integral); ``height`` is two
dense series with 256-bit numerators over denominators 1728^k, the size of
high-height Frobenius solutions.  The ``crossover`` rows time the two
integer kernels alone on small N, run alternately 101 times each, for E4 *
E6 (``dense``), the Euler product * E6 (``sparse``) and the ``height``
family; ``KRONECKER_CUTOFF`` is read off them.  The other times are medians
of runs repeated until about 0.2 s has been spent (at most 25 runs).
"""

from __future__ import annotations

import json
import platform
import random
import statistics
import sys
import time
from fractions import Fraction

from modforms.classical import eisenstein, euler_product
from modforms.qseries import KRONECKER_CUTOFF, QExpansion, _kronecker, _schoolbook

SIZES = (16, 32, 64, 128, 256, 1024, 4096)
CROSSOVER_SIZES = (4, 8, 12, 16, 24, 32, 48, 64, 96, 128)
FRACTION_MAX_N = {"eisenstein": 4096, "height": 1024}


def fraction_convolution(a, b):
    """The pre-integer-kernel product: coefficient pairs in Fraction arithmetic."""
    n = min(len(a), len(b))
    out = [Fraction(0)] * n
    for i, x in enumerate(a[:n]):
        if x == 0:
            continue
        for j in range(n - i):
            y = b[j]
            if y != 0:
                out[i + j] += x * y
    return out


def median_time(fn, budget=0.2):
    times = []
    while len(times) < 25 and sum(times) < budget:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def paired_medians(fn_a, fn_b, runs=101):
    """Median times of two functions run alternately, so drift hits both."""
    times = ([], [])
    for _ in range(runs):
        for fn, out in zip((fn_a, fn_b), times):
            start = time.perf_counter()
            fn()
            out.append(time.perf_counter() - start)
    return statistics.median(times[0]), statistics.median(times[1])


def operands(family, n, rng):
    if family == "eisenstein":
        return eisenstein("Q", n - 1), eisenstein("R", n - 1)
    def one():
        return QExpansion.make(
            [Fraction(rng.getrandbits(256) - (1 << 255), 1728 ** rng.randint(0, 8)) for _ in range(n)]
        )
    return one(), one()


def bits(coeffs):
    return max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs)


def main():
    rng = random.Random(2)
    rows = []
    for family in ("eisenstein", "height"):
        for n in SIZES:
            f, g = operands(family, n, rng)
            a, b = f.nums, g.nums
            product = f * g
            assert _schoolbook(a, b) == _kronecker(a, b)
            row = {
                "family": family,
                "n": n,
                "input_bits": max(bits(f.coeffs), bits(g.coeffs)),
                "cleared_bits": max(max(map(abs, a)).bit_length(), max(map(abs, b)).bit_length()),
                "output_bits": bits(product.coeffs),
                "fraction_s": None,
                "schoolbook_s": median_time(lambda: _schoolbook(a, b)),
                "kronecker_s": median_time(lambda: _kronecker(a, b)),
                "mul_s": median_time(lambda: f * g),
            }
            if n <= FRACTION_MAX_N[family]:
                assert fraction_convolution(f.coeffs, g.coeffs) == list(product.coeffs)
                row["fraction_s"] = median_time(lambda: fraction_convolution(f.coeffs, g.coeffs), budget=1.0)
            rows.append(row)
            print(json.dumps(row), file=sys.stderr)
    crossover = []
    for shape in ("dense", "sparse", "height"):
        for n in CROSSOVER_SIZES:
            if shape == "height":
                f, g = operands("height", n, rng)
            else:
                f = eisenstein("Q", n - 1) if shape == "dense" else euler_product(n - 1)
                g = eisenstein("R", n - 1)
            a, b = f.nums, g.nums
            school, kron = paired_medians(lambda: _schoolbook(a, b), lambda: _kronecker(a, b))
            crossover.append({"shape": shape, "n": n, "schoolbook_s": school, "kronecker_s": kron})
            print(json.dumps(crossover[-1]), file=sys.stderr)
    doc = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "kronecker_cutoff": KRONECKER_CUTOFF,
        "multiply": rows,
        "crossover": crossover,
    }
    print(json.dumps(doc, indent=2))


if __name__ == "__main__":
    main()
