"""Plain-integer reference values the benchmark checks the library against.

Nothing here imports modforms: every expected value is computed from
elementary formulas (divisor sums, the eta-product recurrence, integer
convolution, the dimension formula for M_w), so a defect in the library's
series kernel cannot hide in its own expected values.
"""

from __future__ import annotations

from fractions import Fraction


def sigma_table(power: int, n_max: int) -> list[int]:
    """sigma_power(n) for n = 0..n_max by a divisor sieve (entry 0 is 0)."""
    table = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        dp = d**power
        for m in range(d, n_max + 1, d):
            table[m] += dp
    return table


def eisenstein(kind: str, terms: int) -> list:
    """Coefficients of P = E2, Q = E4 or R = E6 through q^terms."""
    if kind == "P":
        return [Fraction(-1, 12)] + [2 * s for s in sigma_table(1, terms)[1:]]
    if kind == "Q":
        return [1] + [240 * s for s in sigma_table(3, terms)[1:]]
    if kind == "R":
        return [1] + [-504 * s for s in sigma_table(5, terms)[1:]]
    raise ValueError(f"unknown Eisenstein kind {kind!r}")


def euler_power(h: int, terms: int) -> list[int]:
    """Coefficients of prod_{n>=1} (1 - q^n)^h through q^terms.

    Uses n a_n = -h sum_{k=1}^{n} sigma_1(k) a_{n-k}, the logarithmic
    derivative of the product; every division is exact.
    """
    sig = sigma_table(1, terms)
    a = [1] + [0] * terms
    for n in range(1, terms + 1):
        acc = sum(sig[k] * a[n - k] for k in range(1, n + 1))
        a[n] = -h * acc // n
    return a


def delta(terms: int) -> list[int]:
    """Coefficients of Delta = q prod (1 - q^n)^24 through q^terms, from q^0."""
    if terms < 1:
        return [0]
    return [0] + euler_power(24, terms - 1)


def mul(a: list, b: list, terms: int) -> list:
    """Truncated product of two coefficient lists through q^terms."""
    out = [0] * (terms + 1)
    for i, x in enumerate(a[: terms + 1]):
        if x:
            for j, y in enumerate(b[: terms + 1 - i]):
                out[i + j] += x * y
    return out


def polynomial(coords, terms: int) -> list:
    """Coefficients of sum c Q^u R^v for ((u, v), c) pairs, through q^terms."""
    q4, q6 = eisenstein("Q", terms), eisenstein("R", terms)
    powers = {"Q": [[1] + [0] * terms], "R": [[1] + [0] * terms]}
    out = [0] * (terms + 1)
    for (u, v), c in coords:
        for key, base, e in (("Q", q4, u), ("R", q6, v)):
            while len(powers[key]) <= e:
                powers[key].append(mul(powers[key][-1], base, terms))
        mono = mul(powers["Q"][u], powers["R"][v], terms)
        out = [x + c * y for x, y in zip(out, mono)]
    return out


def dim_m(weight: int) -> int:
    """dim M_w for SL(2, Z): 0 for odd or negative w."""
    if weight < 0 or weight % 2:
        return 0
    return weight // 12 + (0 if weight % 12 == 2 else 1)


def cyclic_dims(k0: int, p: int, upto: int) -> dict[int, int]:
    """Nonzero graded dimensions of the cyclic module t^k0 (1 + ... + t^(2p-2)) / ((1-t^4)(1-t^6))."""
    dims = {}
    for w in range(upto + 1):
        dim = sum(dim_m(w - k0 - 2 * l) for l in range(p))
        if dim:
            dims[w] = dim
    return dims
