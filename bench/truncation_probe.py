"""Truncation-monotonicity probe: no decision may change as the truncation N grows.

    PYTHONPATH=src python3 bench/truncation_probe.py [--seed S] > probe.json

Truncation is knowledge, so an answer of `free_basis_verify` or `is_essential`
at N that is not InsufficientTruncation must equal the answer at every
larger N.  A `from_qexpansion` match and an ok `verify_solution` report
claim nothing past the checked depth, so for these two only NotInM and
ok False must persist.

For every exponent set of ``SETS`` the seed draws 40 generator lists: 1 to
p + 1 words of length <= 3 in D (`serre_vvmf`), Q, R and Delta (each by
`module_action`), applied to the fundamental system, and a k_max from the
largest generator weight to 12 above it.  Each list is one
`free_basis_verify` case; each word of a list is one `is_essential` case
and, per component, one `from_qexpansion` case (at the word's weight) and
one `verify_solution` case (against the set's MLDE).  Every case runs at
each N from 1 to N_MAX.  The output is JSON: the seed, the count of cases
and of violations, and each violation with its answers by N.
"""

from __future__ import annotations

import argparse
import json
import random
from fractions import Fraction

from modforms.classical import delta, eisenstein, from_qexpansion
from modforms.errors import DependentGenerators, InsufficientTruncation, ModformError
from modforms.mlde import fundamental_system, mlde_from_exponents, verify_solution
from modforms.structure import free_basis_verify
from modforms.vvmf import is_essential, module_action, serre_vvmf

#: Exponent sets in twelfths: the two of bench/linalg_ops.py, then the five of the
#: free_basis workload (bench/free_basis_ops.py), one of which repeats.
SETS = ((0, 1, 2), (0, 10), (6,), (0, 2), (1, 5, 9), (0, 2, 7))
LETTERS = ("D", "Q", "R", "Delta")
WEIGHT = {"D": 2, "Q": 4, "R": 6, "Delta": 12}
N_MAX = 12


def draw_lists(rng: random.Random, p: int, count: int):
    """count (words, k_max) pairs; a word is a tuple of letters, applied right to left."""
    out = []
    for _ in range(count):
        words = [tuple(rng.choice(LETTERS) for _ in range(rng.randint(0, 3))) for _ in range(rng.randint(1, p + 1))]
        out.append((words, max(sum(map(WEIGHT.get, w)) for w in words) + 2 * rng.randint(0, 6)))
    return out


def apply_word(word, base, n: int, memo: dict):
    """The form word(F) for the fundamental system F = base at truncation n, sharing suffixes."""
    if not word:
        return base
    if word not in memo:
        inner, letter = apply_word(word[1:], base, n, memo), word[0]
        if letter == "D":
            memo[word] = serre_vvmf(inner)
        else:
            g = delta(n) if letter == "Delta" else eisenstein(letter, n)
            memo[word] = module_action(g, WEIGHT[letter], inner)
    return memo[word]


def answer(call):
    """A comparable answer; None stands for InsufficientTruncation, which is no verdict."""
    try:
        return call()
    except InsufficientTruncation:
        return None
    except DependentGenerators as err:
        return f"DependentGenerators({err.weight})"
    except ModformError as err:
        return type(err).__name__


def verdict(report) -> tuple:
    return report.ok, report.spans


def breaks(answers, persistent=None) -> bool:
    """True if an answer at some N differs at a larger N.

    Every answer but None must persist; with `persistent` given, only that one.
    """
    for i, a in enumerate(answers):
        if a is not None and (persistent is None or a == persistent) and any(b != a for b in answers[i + 1:]):
            return True
    return False


def probe(seed: int, lists: int = 40) -> dict:
    """Run every case of the seed, `lists` generator lists a set, at N 1..N_MAX and collect the violations."""
    rng = random.Random(seed)
    cases, violations = 0, []
    for twelfths in SETS:
        eq = mlde_from_exponents([Fraction(i, 12) for i in twelfths])
        drawn = draw_lists(rng, len(twelfths), lists)
        words = sorted({w for ws, _ in drawn for w in ws}, key=lambda w: (len(w), w))
        by_case = {}
        for n in range(1, N_MAX + 1):
            base, memo = fundamental_system(eq, n), {}
            forms = {w: apply_word(w, base, n, memo) for w in words}
            for ws, k_max in drawn:
                gens = [forms[w] for w in ws]
                key = ("free_basis_verify", tuple(map(" ".join, ws)), k_max)
                by_case.setdefault(key, []).append(answer(lambda: verdict(free_basis_verify(gens, k_max, n))))
            for w in words:
                form = forms[w]
                key = ("is_essential", " ".join(w))
                by_case.setdefault(key, []).append(answer(lambda: is_essential(form, n)))
                for j, f in enumerate(form.components):
                    key = ("from_qexpansion", " ".join(w), j)
                    by_case.setdefault(key, []).append(answer(lambda: from_qexpansion(f, form.weight)))
                    key = ("verify_solution", " ".join(w), j)
                    by_case.setdefault(key, []).append(answer(lambda: verify_solution(eq, f, n).ok))
        for key, answers in by_case.items():
            cases += 1
            persistent = {"from_qexpansion": "NotInM", "verify_solution": False}.get(key[0])
            if breaks(answers, persistent):
                violations.append({"set": twelfths, "case": key, "answers_by_n": answers})
    return {"seed": seed, "cases": cases, "violations": len(violations), "examples": violations}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    print(json.dumps(probe(args.seed), indent=1, default=str))


if __name__ == "__main__":
    main()
