"""Cold-start wall times of the CLI's README commands, paired across source trees by ``harness``.

    python3 bench/cli_start.py [--rounds R] TREE [TREE ...] > timings.json

Each call runs a command as a fresh ``python -m modforms.cli`` process and is
timed from spawn to exit, which counts interpreter start, imports (compiled
from source when ``PYTHONDONTWRITEBYTECODE`` is set and the tree holds no
bytecode), argparse, the computation and the JSON output.  A bare
``python -c pass`` is timed too: the floor every command pays.  Run as
``python3 -S bench/cli_start.py ...``, every process starts without site.

The commands are the eight of perfbench's cli workload (``cli_argv`` in
``perfbench/workloads.py``), each at the larger of its two sizes
(``Sizes.cli_terms``, ``cli_mlde_terms``, ``cli_basis`` and ``rho_n``).  A
command's check is what it loaded, read in an untimed process that runs
``modforms.cli.main`` and lists ``sys.modules``: its ``modforms`` modules, and
whether each standard-library module of ``STDLIB`` was loaded (by the command
or by the start-up hooks of site, which ``-S`` skips).
"""

from __future__ import annotations

import subprocess

import harness
from harness import Case

COMMANDS = {
    "qexp_eisenstein": ["qexp", "--form", "Q", "--terms", "80"],
    "qexp_eta": ["qexp", "--form", "eta^13", "--terms", "80"],
    "serre": ["serre", "--form", "delta", "--weight", "12", "--terms", "80"],
    "mlde_solve": ["mlde", "solve", "--exponents", "1/12,5/12,9/12", "--terms", "40"],
    "monodromy": ["monodromy", "--mlde", "0/12,10/12", "--terms", "80", "--tol", "1e-5"],
    "classify2d": ["classify2d", "--a", "10", "--b", "0"],
    "poincare": ["poincare", "--cyclic", "4,2", "--upto", "60"],
    "verify_basis": ["verify-basis", "--mlde", "0/12,10/12", "--kmax", "14", "--terms", "24"],
}

LOADED = (
    "import io, sys\n"
    "from contextlib import redirect_stdout\n"
    "from modforms.cli import main\n"
    "with redirect_stdout(io.StringIO()):\n"
    "    main(sys.argv[1:])\n"
    "print(*sys.modules)\n"
)

#: Modules no command needs, each costing milliseconds to import.
STDLIB = ("dataclasses", "inspect", "pathlib", "typing")


def run(*argv):
    subprocess.run([*harness.PYTHON, *argv], check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def loaded_modules(argv):
    done = subprocess.run([*harness.PYTHON, "-c", LOADED, *argv], check=True, capture_output=True, text=True)
    loaded = set(done.stdout.split())
    return {"modforms": sorted(m for m in loaded if m.startswith("modforms")), **{m: m in loaded for m in STDLIB}}


def cases():
    yield Case("bare_python", lambda: run("-c", "pass"))
    for name, argv in COMMANDS.items():
        yield Case(name, lambda: run("-m", "modforms.cli", *argv), check=lambda _: loaded_modules(argv))


if __name__ == "__main__":
    harness.main(cases)
