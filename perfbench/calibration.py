"""Speed of the machine a run measures on, from probes that modforms cannot change.

The 2-core VM the benchmark was written on switches between a faster and
a slower phase, about 40% apart, that last seconds to minutes (other
tenants share its host; CPU time slows with wall time, so it is not
steal).  Every op of the library is plain-Python ``Fraction`` arithmetic,
and so is the kernel here: a truncated convolution of two fixed lists of
50 fractions with 90-200 bit parts, the inner loop of
``QExpansion.__mul__``.  It imports nothing from modforms, so no library
change can make it faster or slower.  Timed often and evenly through a run
(about 20 ms a time), its mean follows the share of the run spent in the
slower phase, and gives the factor that scales the run's times to a
machine of fixed speed.

The cli workload runs every op as a fresh process, and process start-up
has slower phases of its own that the kernel does not follow (measured:
cli ops 30-45% slower for a minute while the kernel was 5-10% slower).
Its probe is what a cli op does in outline, without modforms: a fresh
interpreter that imports numpy and then runs the kernel twice.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from fractions import Fraction

#: Kernel time on that VM, rounded, in its faster phase.  A run's time
#: metrics are its wall times scaled by REFERENCE_S / (its mean kernel time).
REFERENCE_S = 0.02
#: The same for the start-up probe.
STARTUP_REFERENCE_S = 0.2


def _inputs(n: int = 50):
    rng = random.Random(0)
    a = [Fraction(rng.getrandbits(200) + 1, rng.getrandbits(120) + 1) for _ in range(n)]
    b = [Fraction(rng.getrandbits(150) + 1, rng.getrandbits(90) + 1) for _ in range(n)]
    return a, b


_A, _B = _inputs()


def sample() -> float:
    """Wall time of one run of the kernel, in seconds."""
    t0 = time.perf_counter()
    out = [0] * len(_A)
    for i, x in enumerate(_A):
        for j in range(len(_A) - i):
            out[i + j] += x * _B[j]
    return time.perf_counter() - t0



def startup_sample() -> float:
    """Wall time of a fresh interpreter that imports numpy and runs the
    kernel twice, in seconds."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__], check=True)
    return time.perf_counter() - t0


if __name__ == "__main__":
    import numpy  # noqa: F401

    sample()
    sample()
