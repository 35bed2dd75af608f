"""The four benchmark workloads: seeded op lists, op execution and exact checks.

Each workload is a closed loop with one client: the next op starts when the
previous one (and its untimed check) has finished.  An op list is built
cycle by cycle.  Every cycle holds the same mix of op templates and sizes,
and the seed draws everything inside a template (exponent sets, polynomial
coefficients, eta powers, the order of the ops).  That keeps the cost mix of
a run nearly independent of the seed, so runs with different seeds are
comparable, while no two seeds run the same inputs.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_SHIM = Path(__file__).resolve().parent / "cli_child.py"

WORKLOADS = ("mlde", "free_basis", "series", "cli")

# Exponent sets are tuples of twelfths.  "Low height" sets have Frobenius
# solutions whose coefficients stay under 40 bits at N=80 (integral
# q-expansions); every other admissible set grows to hundreds of bits.
# Measured with the library when the benchmark was written; the split only
# balances the op mix of a cycle, and no check depends on it.
LOW_HEIGHT = {
    2: [(0, 2), (0, 4), (0, 6), (0, 8), (1, 5), (1, 7), (1, 9), (2, 6), (2, 8), (2, 10),
        (3, 7), (3, 9), (3, 11), (4, 8), (4, 10), (5, 9), (5, 11), (6, 10), (7, 11)],
    3: [(0, 1, 5), (0, 3, 6), (0, 3, 9), (0, 4, 8), (0, 6, 9), (1, 4, 7), (1, 4, 10),
        (1, 5, 9), (1, 7, 10), (2, 5, 8), (2, 5, 11), (2, 6, 10), (2, 8, 11), (3, 6, 9),
        (3, 7, 11), (4, 7, 10), (5, 8, 11)],
    4: [(0, 1, 4, 7), (0, 2, 6, 8), (1, 3, 7, 9), (2, 4, 8, 10), (3, 5, 9, 11)],
}


@dataclass(frozen=True)
class Sizes:
    """Truncations and weight bounds of every template; the tests shrink them."""

    mlde_n: dict = field(default_factory=lambda: {1: (160, 224), 2: (64, 96), 3: (40, 56), 4: (28, 40)})
    rho_n: int = 80
    # (N, k_max) levels per order
    fb: dict = field(default_factory=lambda: {1: ((32, 24), (40, 28)), 2: ((24, 20), (32, 24)), 3: ((20, 16), (24, 20))})
    series_n: tuple = (64, 96, 128, 176)
    series_weights: tuple = (12, 16, 18, 20)
    # Every cli op stays within about twice a bare process start, so the
    # latency tail of a run is not decided by a few heavy commands whose
    # cost depends on the drawn inputs.
    cli_terms: tuple = (48, 80)
    cli_mlde_terms: tuple = (32, 40)
    cli_basis: tuple = ((20, 12), (24, 14))  # (terms, kmax)
    min_ops: int = 2000  # ops generated per list; a run that finishes them starts over

    @staticmethod
    def tiny() -> Sizes:
        """Small enough for warm-up and smoke tests; no template is left out."""
        return Sizes(
            mlde_n={1: (12,), 2: (12,), 3: (12,), 4: (12,)}, rho_n=12, fb={1: ((12, 12),), 2: ((12, 12),), 3: ((12, 12),)},
            series_n=(8, 12), series_weights=(8, 12), cli_terms=(8, 12), cli_mlde_terms=(8, 12),
            cli_basis=((12, 10), (12, 12)), min_ops=40,
        )


def weight_of(twelfths) -> int | None:
    """k_0 from the weight relation 12 sum m_j = p (p + k_0 - 1), if integral."""
    p = len(twelfths)
    k0 = Fraction(sum(twelfths), p) - p + 1
    return int(k0) if k0.denominator == 1 else None


@functools.lru_cache(maxsize=None)
def exponent_pools(p: int, min_weight: int | None = None) -> dict[str, list]:
    """Admissible exponent sets of order p, split by height class."""
    sets = [c for c in itertools.combinations(range(12), p) if weight_of(c) is not None]
    if min_weight is not None:
        sets = [c for c in sets if weight_of(c) >= min_weight]
    low = set(LOW_HEIGHT.get(p, sets))
    return {"low": [c for c in sets if c in low], "high": [c for c in sets if c not in low]}


# -- op list generation -----------------------------------------------------

class Deck:
    """Seeded draws without replacement from fixed pools (exponent sets, eta
    powers, ...), reshuffled when a pool runs out, so a run meets each item
    of a pool about equally often."""

    def __init__(self, rng):
        self.rng = rng
        self.left: dict[tuple, list] = {}

    def deal(self, key, pool):
        """The next item of ``pool``; ``key`` names the pool."""
        if not self.left.get(key):
            self.left[key] = self.rng.sample(list(pool), len(pool))
        return self.left[key].pop()

    def pick(self, p: int, height: str, min_weight: int | None = None) -> list[int]:
        """An exponent set of order p; orders without that height fall back to low."""
        pools = exponent_pools(p, min_weight)
        return list(self.deal((p, height, min_weight), pools[height] or pools["low"]))


def _rounds(rng, rounds):
    """Shuffle inside each round, keep the rounds in order.

    Every round holds a share of each template group, so any prefix of a
    cycle is a balanced part of its mix.
    """
    out = []
    for ops in rounds:
        rng.shuffle(ops)
        out += ops
    return out


def _cycle_mlde(rng, deck, sizes):
    rounds = [[] for _ in range(4)]
    for p, grid in sizes.mlde_n.items():
        combos = [(n, height) for n in grid for height in ("low", "high")]
        rng.shuffle(combos)
        for r, (n, height) in enumerate(combos):
            rounds[r % 4].append({"kind": "mlde", "n": n, "exponents": deck.pick(p, height)})
    return _rounds(rng, rounds)


def _cycle_free_basis(rng, deck, sizes):
    rounds = [[] for _ in range(4)]
    for p, levels in sizes.fb.items():
        combos = [(n, kmax, height) for n, kmax in levels for height in ("low", "high")]
        rng.shuffle(combos)
        for r, (n, kmax, height) in enumerate(combos):
            # min_weight=0 leaves out (0, 1, 2)/12, the one set of order <= 3
            # with k0 < 0: free_basis_verify raises "ValueError: weight must
            # be nonnegative" on it (an open library defect).  Draw it again
            # once that is fixed.
            rounds[r % 4].append({"kind": "free_basis", "n": n, "kmax": kmax,
                                  "exponents": deck.pick(p, height, min_weight=0)})
        # one op in five is the negative control [F, Q F]
        n, kmax = rng.choice(levels)
        exps = deck.pick(p, rng.choice(("low", "high")), min_weight=0)
        rounds[(p - 1) % 4].append({"kind": "free_basis_dependent", "n": n, "exponents": exps,
                                    "kmax": max(kmax, weight_of(exps) + 4)})
    return _rounds(rng, rounds)


def _random_polynomial(rng, weight):
    basis = [(u, (weight - 4 * u) // 6) for u in range(weight // 4 + 1) if (weight - 4 * u) % 6 == 0]
    coords = []
    for u, v in basis:
        num = rng.choice([x for x in range(-9, 10) if x])
        coords.append([u, v, f"{num}/{rng.randint(1, 7)}"])
    return coords


SERIES_KINDS = ("eisenstein", "delta", "eta_power", "eta_power", "to_qexpansion", "to_qexpansion",
                "from_qexpansion", "serre")
#: Each round runs its eta power and its Delta twice, so the same (form, N)
#: pairs recur at a fixed rate: the second eta power is a hit in the
#: library's cache, the second Delta is not (Delta is not cached).
REPEATED = ("eta_power", "delta")


def _cycle_series(rng, deck, sizes):
    # A Latin square: op slot j of round r runs at N index (offset_j + r),
    # so every slot visits every N once per cycle and every round holds each
    # N equally often; the weights rotate the same way.  The cost mix of a
    # cycle then depends on the seed only through the drawn values.
    n_count, w_count = len(sizes.series_n), len(sizes.series_weights)
    n_offset = rng.sample(range(len(SERIES_KINDS)), len(SERIES_KINDS))
    w_offset = rng.sample(range(len(SERIES_KINDS)), len(SERIES_KINDS))
    rounds = []
    for r in range(n_count):
        ops = []
        for j, kind in enumerate(SERIES_KINDS):
            op = {"kind": kind, "n": sizes.series_n[(n_offset[j] + r) % n_count]}
            if kind == "eisenstein":
                op["form"] = deck.deal("form", "PQR")
            elif kind == "eta_power":
                # odd powers only: the even ones come in through serre
                # (eta^(2k)), and keeping the two apart fixes how many eta
                # powers are already in the library's cache
                op["h"] = deck.deal(("h", op["n"]), range(1, 25, 2))
            elif kind in ("to_qexpansion", "from_qexpansion"):
                op["weight"] = sizes.series_weights[(w_offset[j] + r) % w_count]
                op["coords"] = _random_polynomial(rng, op["weight"])
            elif kind == "serre":
                op["k"] = deck.deal(("k", op["n"]), range(1, 13))  # eta^(2k) at weight k; k = 12 is Delta
            ops.append(op)
        for kind in REPEATED:
            ops.append(dict(next(op for op in ops if op["kind"] == kind)))
        rounds.append(ops)
    return _rounds(rng, rounds)


CLI_COMMANDS = ("qexp_eisenstein", "qexp_eta", "serre", "mlde_solve", "monodromy", "classify2d",
                "poincare", "verify_basis")


def _cli_op(rng, deck, sizes, command, level):
    """One README command; level 1 uses the larger sizes, orders and high-height exponents."""
    height = ("low", "high")[level]
    terms, mterms = sizes.cli_terms[level], sizes.cli_mlde_terms[level]
    op = {"kind": "cli", "command": command, "n": terms}
    if command == "qexp_eisenstein":
        op["form"] = deck.deal("form", "PQR")
    elif command == "qexp_eta":
        op["h"] = deck.deal("h", range(1, 25))
    elif command == "serre":
        op["k"] = deck.deal("k", range(1, 13))  # eta^(2k) at weight k; k = 12 is Delta
    elif command == "mlde_solve":
        op.update(n=mterms, exponents=deck.pick(2 + level, height))
    elif command == "monodromy":
        op.update(n=max(mterms, sizes.rho_n), exponents=deck.pick(1 + level, height))
    elif command == "classify2d":
        a, b = rng.choice([(a, b) for a in range(12) for b in range(12) if (a - b) % 12 in (2, 10)])
        op.update(n=0, a=a, b=b)
    elif command == "poincare":
        op.update(n=0, k0=rng.randint(0, 11), p=rng.randint(1, 4), upto=40 + 20 * level)
    elif command == "verify_basis":
        n, kmax = sizes.cli_basis[level]
        op.update(n=n, kmax=kmax, exponents=deck.pick(2, height, min_weight=0))
    return op


def _cycle_cli(rng, deck, sizes):
    # two rounds, each with every command once, half of them at each level
    levels = [0, 1] * (len(CLI_COMMANDS) // 2)
    rng.shuffle(levels)
    return _rounds(rng, [
        [_cli_op(rng, deck, sizes, c, lvl) for c, lvl in zip(CLI_COMMANDS, levels)],
        [_cli_op(rng, deck, sizes, c, 1 - lvl) for c, lvl in zip(CLI_COMMANDS, levels)],
    ])


CYCLES = {"mlde": _cycle_mlde, "free_basis": _cycle_free_basis, "series": _cycle_series, "cli": _cycle_cli}


#: Op cycles run by the traced mode: 3-9 s of untraced ops on a 2-core x86 VM.
TRACE_CYCLES = {"mlde": 2, "free_basis": 2, "series": 1, "cli": 1}


def make_cycles(workload: str, seed: int, sizes: Sizes, cycles: int | None = None) -> list[list[dict]]:
    """The op cycles of a workload drawn from the seed, either ``cycles`` of
    them or enough for ``sizes.min_ops`` ops.  Every cycle holds the same mix
    of op templates and sizes.  A shorter list is a prefix of a longer one."""
    rng = random.Random(f"{workload}:{seed}")
    deck = Deck(rng)
    out: list[list[dict]] = []
    for done in itertools.count():
        if (done >= cycles) if cycles is not None else (sum(map(len, out)) >= sizes.min_ops):
            return out
        out.append(CYCLES[workload](rng, deck, sizes))


def make_ops(workload: str, seed: int, sizes: Sizes, cycles: int | None = None) -> list[dict]:
    """The ops of ``make_cycles`` in order."""
    return [op for cycle in make_cycles(workload, seed, sizes, cycles) for op in cycle]


def op_digest(ops) -> str:
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()


# -- execution and checks -----------------------------------------------------

class CheckFailed(Exception):
    """An op's output disagrees with its exact expected value."""


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _fractions(twelfths):
    return [Fraction(a, 12) for a in twelfths]


def _polynomial(mf, op):
    coords = {(u, v): Fraction(c) for u, v, c in op["coords"]}
    return mf.classical.PolynomialQR.make(op["weight"], coords)


def _generators(mf, op):
    eq = mf.mlde.mlde_from_exponents(_fractions(op["exponents"]))
    base = mf.mlde.fundamental_system(eq, op["n"])
    if op["kind"] == "free_basis_dependent":
        return eq, [base, mf.vvmf.module_action(mf.classical.eisenstein("Q", op["n"]), 4, base)]
    gens = [base]
    for _ in range(1, eq.order):
        gens.append(mf.vvmf.serre_vvmf(gens[-1]))
    return eq, gens


class Library:
    """Runs library ops in this process through the modforms module objects.

    Calls go through module attributes at call time, so the tracer's
    rebinding is seen.
    """

    def __init__(self, sizes: Sizes):
        import modforms.classical
        import modforms.errors
        import modforms.mlde
        import modforms.structure
        import modforms.vvmf

        self.mf = modforms
        self.sizes = sizes

    def clear_caches(self) -> None:
        for name, mod in list(sys.modules.items()):
            if name.startswith("modforms"):
                for obj in list(vars(mod).values()):
                    while obj is not None and not hasattr(obj, "cache_clear"):
                        obj = getattr(obj, "__wrapped__", None)
                    if obj is not None:
                        obj.cache_clear()

    def execute(self, op):
        mf, kind, n = self.mf, op["kind"], op["n"]
        if kind == "mlde":
            eq = mf.mlde.mlde_from_exponents(_fractions(op["exponents"]))
            system = mf.mlde.fundamental_system(eq, n)
            reports = [mf.mlde.verify_solution(eq, f, n) for f in system.components]
            m = min(n, self.sizes.rho_n)
            short = mf.vvmf.VVMF.make(system.weight, system.rep, [f.truncate(m) for f in system.components])
            rho = mf.vvmf.recover_rho_S(short)
            relations = mf.vvmf.check_relations(short.rep.with_rho_S(rho), 1e-5)
            return eq, system, reports, relations
        if kind == "free_basis":
            eq, gens = _generators(mf, op)
            return eq, mf.structure.free_basis_verify(gens, op["kmax"], n)
        if kind == "free_basis_dependent":
            eq, gens = _generators(mf, op)
            try:
                report = mf.structure.free_basis_verify(gens, op["kmax"], n)
            except mf.errors.DependentGenerators as err:
                return eq, err.weight
            return eq, report
        if kind == "eisenstein":
            return mf.classical.eisenstein(op["form"], n)
        if kind == "delta":
            return mf.classical.delta(n)
        if kind == "eta_power":
            return mf.classical.eta_power(op["h"], n)
        if kind == "to_qexpansion":
            return mf.classical.to_qexpansion(_polynomial(mf, op), n)
        if kind == "from_qexpansion":
            f = mf.classical.to_qexpansion(_polynomial(mf, op), n)
            return mf.classical.from_qexpansion(f, op["weight"])
        if kind == "serre":
            k = op["k"]
            f = mf.classical.delta(n) if k == 12 else mf.classical.eta_power(2 * k, n)
            return mf.classical.serre_derivative(f, k)
        raise ValueError(f"unknown op kind {kind!r}")

    def check(self, op, out) -> None:
        kind, n = op["kind"], op["n"]
        if kind == "mlde":
            eq, system, reports, relations = out
            roots = _fractions(op["exponents"])
            k0 = weight_of(op["exponents"])
            _expect(eq.weight == k0, f"k0 {eq.weight} != {k0}")
            leads = [f.leading for f in system.components]
            _expect(leads == roots, f"leading exponents {leads} != {roots}")
            _expect(all(f.coeffs[0] == 1 and f.truncation_order == n for f in system.components),
                    "solutions are not q^m (1 + O(q)) through q^N")
            for r in reports:
                _expect(r.ok and r.first_nonzero_exponent is None, f"nonzero residual at q^{r.first_nonzero_exponent}")
            _expect(relations.ok, f"relations fail at 1e-5: {relations}")
            _expect(relations.sign == (-1) ** k0, f"rho(S)^2 sign {relations.sign}, want {(-1) ** k0}")
        elif kind == "free_basis":
            eq, report = out
            want = reference.cyclic_dims(eq.weight, eq.order, op["kmax"])
            _expect(report.ok and report.rank == eq.order, f"report {report}")
            _expect(dict(report.dims) == want, f"dims {report.dims} != ps_cyclic {want}")
        elif kind == "free_basis_dependent":
            eq, weight = out
            _expect(weight == eq.weight + 4, f"[F, QF] raised at weight {weight}, want {eq.weight + 4}")
        elif kind in ("eisenstein", "delta", "eta_power"):
            if kind == "eisenstein":
                want, lead = reference.eisenstein(op["form"], n), 0
            elif kind == "delta":
                want, lead = reference.delta(n), 0
            else:
                want, lead = reference.euler_power(op["h"], n), Fraction(op["h"], 24)
            _expect(out.leading == lead, f"leading {out.leading} != {lead}")
            _expect(list(out.coeffs) == want, f"{kind} coefficients differ from the integer reference")
        elif kind == "to_qexpansion":
            coords = [((u, v), Fraction(c)) for u, v, c in op["coords"]]
            _expect(out.leading == 0 and list(out.coeffs) == reference.polynomial(coords, n),
                    "to_qexpansion differs from the integer reference")
        elif kind == "from_qexpansion":
            _expect(out == _polynomial(self.mf, op), f"round trip gave {out}")
        elif kind == "serre":
            _expect(out.is_zero and out.truncation_order == n, f"D(eta^{2 * op['k']}) is not zero to q^{n}")
        else:
            raise ValueError(f"unknown op kind {kind!r}")


def cli_argv(op) -> list[str]:
    """The modforms CLI arguments of a cli op."""
    c, n = op["command"], str(op["n"])
    exps = ",".join(f"{a}/12" for a in op.get("exponents", ()))
    if c == "qexp_eisenstein":
        return ["qexp", "--form", op["form"], "--terms", n]
    if c == "qexp_eta":
        return ["qexp", "--form", f"eta^{op['h']}", "--terms", n]
    if c == "serre":
        form = "delta" if op["k"] == 12 else f"eta^{2 * op['k']}"
        return ["serre", "--form", form, "--weight", str(op["k"]), "--terms", n]
    if c == "mlde_solve":
        return ["mlde", "solve", "--exponents", exps, "--terms", n]
    if c == "monodromy":
        return ["monodromy", "--mlde", exps, "--terms", n, "--tol", "1e-5"]
    if c == "classify2d":
        return ["classify2d", "--a", str(op["a"]), "--b", str(op["b"])]
    if c == "poincare":
        return ["poincare", "--cyclic", f"{op['k0']},{op['p']}", "--upto", str(op["upto"])]
    if c == "verify_basis":
        return ["verify-basis", "--mlde", exps, "--kmax", str(op["kmax"]), "--terms", n]
    raise ValueError(f"unknown cli command {c!r}")


@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str


class Cli:
    """Runs each op as a fresh ``python -m modforms.cli`` child process.

    A traced child runs ``cli_child.py`` instead, which installs the tracer
    before calling ``modforms.cli.main`` and reports its span summary as the
    last line of stderr.
    """

    def __init__(self, sizes: Sizes):
        self.sizes = sizes
        self.traced = False
        self.summaries: list[dict] = []
        self.peak_rss_kib = 0
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    def clear_caches(self) -> None:
        """Every op starts a fresh process, so no cache outlives an op."""

    def execute(self, op) -> CliResult:
        argv = cli_argv(op)
        if self.traced:
            cmd = [sys.executable, str(CHILD_SHIM), *argv]
        else:
            cmd = [sys.executable, "-m", "modforms.cli", *argv]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        # stderr stays short (an error object or the trace line), so reading
        # stdout to the end first cannot block the child.
        stdout = proc.stdout.read()
        stderr = proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        if self.traced and proc.returncode == 0:
            self.summaries.append(json.loads(stderr.strip().splitlines()[-1]))
        return CliResult(proc.returncode, stdout, stderr)

    def check(self, op, out: CliResult) -> None:
        _expect(out.returncode == 0, f"exit code {out.returncode}: {out.stderr.strip()[-300:]}")
        try:
            doc = json.loads(out.stdout)
        except json.JSONDecodeError as err:
            raise CheckFailed(f"stdout is not JSON: {err}") from None
        c, n = op["command"], op["n"]
        if c in ("qexp_eisenstein", "qexp_eta"):
            if c == "qexp_eisenstein":
                want, lead = reference.eisenstein(op["form"], n), Fraction(0)
            else:
                want, lead = reference.euler_power(op["h"], n), Fraction(op["h"], 24)
            _expect(Fraction(doc["leading"]) == lead, "leading exponent")
            _expect([Fraction(x) for x in doc["coeffs"]] == want, "coefficients differ from the integer reference")
        elif c == "serre":
            _expect(len(doc["coeffs"]) == n + 1 and all(Fraction(x) == 0 for x in doc["coeffs"]),
                    "Serre derivative of an eta power is not zero")
        elif c == "mlde_solve":
            roots = _fractions(op["exponents"])
            _expect(doc["k0"] == weight_of(op["exponents"]) and doc["weight_relation"] is True, "k0 / weight relation")
            leads = [Fraction(comp["leading"]) for comp in doc["solutions"]["components"]]
            _expect(leads == roots, f"leading exponents {leads} != {roots}")
        elif c == "monodromy":
            k0 = weight_of(op["exponents"])
            rel = doc["relations"]
            _expect(rel["ok"] is True and rel["sign"] == (-1) ** k0, f"relations {rel}")
        elif c == "classify2d":
            a, b = op["a"], op["b"]
            split = (b - a) in (2, 10)
            _expect(doc["kind"] == ("split" if split else "cyclic"), f"kind {doc['kind']}")
            _expect(doc["k0"] == (min(a, b) if split else (a + b) // 2 - 1), f"k0 {doc['k0']}")
        elif c == "poincare":
            got = {int(w): d for w, d in doc["coefficients"].items() if d}
            _expect(got == reference.cyclic_dims(op["k0"], op["p"], op["upto"]), "Poincare coefficients")
        elif c == "verify_basis":
            k0, p = weight_of(op["exponents"]), len(op["exponents"])
            _expect(doc["ok"] is True and doc["rank"] == p, f"verify-basis {doc.get('message')}")
            _expect({w: d for w, d in doc["dims"]} == reference.cyclic_dims(k0, p, op["kmax"]), "dims")
        else:
            raise ValueError(f"unknown cli command {c!r}")


def runner_for(workload: str, sizes: Sizes):
    return Cli(sizes) if workload == "cli" else Library(sizes)


def run_op(runner, op, tracer=None):
    """Time one op; check its output outside the timed span.

    Returns (seconds, failure message or None).
    """
    idx = tracer.open("op") if tracer is not None else None
    t0 = time.perf_counter()
    try:
        out = runner.execute(op)
        error = None
    except Exception as err:  # an op that raises unexpectedly is a failed op
        out, error = None, f"{type(err).__name__}: {err}"
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(idx)
    if error is None:
        try:
            runner.check(op, out)
        except CheckFailed as err:
            error = f"check failed: {err}"
        except Exception as err:  # a malformed output is a failed check, not a crash
            error = f"check failed: {type(err).__name__}: {err}"
    return elapsed, error
