"""Command-line front end.  Every subcommand prints deterministic JSON
(or plain text with --format text) so outputs can be frozen as golden files.

Exit codes: 0 success, 1 domain errors (reported as a structured error
object on stderr), 2 usage errors.

Only ``qseries``, ``classical``, ``errors`` and ``serialize`` load with this
module.  Each handler imports the layers it calls at run time: ``mlde``
(with ``skew``, ``vvmf`` and ``linalg``) for ``mlde solve``, ``monodromy``
and ``verify-basis``, and ``structure`` (with ``linalg``) for
``classify2d``, ``poincare`` and ``verify-basis``.  So ``qexp`` and
``serre`` load neither the MLDE nor the module layers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import classical, serialize
from .errors import ModformError
from .qseries import DEFAULT_TERMS, QExpansion

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .mlde import MLDE


def _env_terms() -> int:
    text = os.environ.get("MODFORMS_TERMS")
    if text is None:
        return DEFAULT_TERMS
    try:
        return _TERMS(text)
    except argparse.ArgumentTypeError as err:
        raise ModformError(f"MODFORMS_TERMS: {err}") from None


def _checked(convert, accept, rule: str):
    """An argparse type: convert the text, then require accept(value)."""

    def parse(text: str):
        try:
            value = convert(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {rule}")

    return parse


_TERMS = _checked(int, lambda n: n >= 1, "an integer >= 1")
_TOLERANCE = _checked(float, lambda x: 0 < x < math.inf, "a positive finite number")


def _add_terms(sub):
    """--terms, for the commands that build series; only these read $MODFORMS_TERMS."""
    sub.add_argument(
        "--terms", type=_TERMS, help=f"truncation order N (default: $MODFORMS_TERMS or {DEFAULT_TERMS})"
    )


def _add_common(sub, tol: bool = False):
    sub.add_argument("--format", choices=("json", "text"), default="json")
    if tol:
        sub.add_argument("--tol", type=_TOLERANCE, default=1e-6, help="numeric tolerance")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ModformError(f"{text.strip()!r} is not a rational number") from None


def _parse_fractions(text: str):
    return [_fraction(part) for part in text.split(",") if part.strip()]


def _parse_integers(text: str):
    values = _parse_fractions(text)
    if any(v.denominator != 1 for v in values):
        raise ModformError(f"{text!r} is not a list of integers")
    return [int(v) for v in values]


def _read_document(path: str, decode):
    """Decode the JSON document at path; any failure to read it is a ModformError."""
    try:
        with open(path) as handle:
            return decode(json.load(handle))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as err:
        raise ModformError(f"cannot read {path!r}: {type(err).__name__}: {err}") from None


def _named_form(name: str, terms: int) -> QExpansion:
    if name in ("P", "Q", "R"):
        return classical.eisenstein(name, terms)
    if name.lower() == "delta":
        return classical.delta(terms)
    m = re.fullmatch(r"eta\^?(\d+)", name)
    if m:
        return classical.eta_power(int(m.group(1)), terms)
    raise ModformError(f"unknown form {name!r}: use P, Q, R, delta, or eta^h")


def _resolve_mlde(spec: str) -> MLDE:
    """An exponent list like "0,5/6", or a path to an MLDE JSON document."""
    from . import mlde

    if re.fullmatch(r"[\s0-9,/\-]+", spec):
        return mlde.mlde_from_exponents(_parse_fractions(spec))
    return _read_document(spec, serialize.mlde_from_json)


def _emit(doc, text: str | None, fmt: str) -> int:
    if fmt == "text" and text is not None:
        print(text)
    else:
        sys.stdout.write(serialize.dumps(doc))
    return 0


# -- subcommand handlers -----------------------------------------------------

def _cmd_qexp(args) -> int:
    f = _named_form(args.form, args.terms)
    return _emit(f, str(f), args.format)


def _cmd_serre(args) -> int:
    f = _named_form(args.form, args.terms)
    out = classical.serre_derivative(f, _fraction(args.weight), args.terms)
    return _emit(out, str(out), args.format)


def _cmd_mlde_solve(args) -> int:
    if args.exponents is not None and (args.coeffs is not None or args.weight is not None):
        raise argparse.ArgumentError(None, "--exponents cannot be combined with --coeffs or --weight")
    from . import mlde

    if args.exponents:
        equation = mlde.mlde_from_exponents(_parse_fractions(args.exponents))
    elif args.coeffs:
        if args.weight is None:
            raise ModformError("--coeffs requires --weight")
        coeffs = _read_document(
            args.coeffs, lambda doc: [serialize.polynomial_from_json(g) for g in doc]
        )
        equation = mlde.MLDE.make(args.weight, len(coeffs) + 1, coeffs)
    else:
        raise ModformError("need --exponents or --weight with --coeffs")
    ind = mlde.indicial_polynomial(equation)
    system = mlde.fundamental_system(equation, args.terms)
    doc = {
        "k0": equation.weight,
        "order": equation.order,
        "mlde": equation,
        "indicial": ind,
        "weight_relation": mlde.weight_relation_check(equation.weight, ind.roots),
        "solutions": system,
    }
    text = "\n".join(
        [f"k0 = {equation.weight}, order {equation.order}"]
        + [f"f_{j} = {f}" for j, f in enumerate(system.components, start=1)]
    )
    return _emit(doc, text, args.format)


def _cmd_monodromy(args) -> int:
    from . import mlde, vvmf

    equation = _resolve_mlde(args.mlde)
    system = mlde.fundamental_system(equation, args.terms)
    rho = vvmf.recover_rho_S(system)
    rep = system.rep.with_rho_S(rho)
    report = vvmf.check_relations(rep, args.tol)
    doc = {
        "k0": equation.weight,
        "exponents": rep.exponents,
        "rho_S": rep.rho_S,
        "relations": report,
    }
    lines = [f"rho(S) for k0 = {equation.weight}:"]
    for row in rho:
        lines.append("  " + "  ".join(f"{z:.6f}" for z in row))
    lines.append(f"rho(S)^2 = {report.sign:+d} I (residual {report.s_squared_residual:.2e})")
    lines.append(f"(rho(S)rho(T))^3 residual {report.braid_residual:.2e}")
    text = "\n".join(lines)
    return _emit(doc, text, args.format)


def _cmd_classify2d(args) -> int:
    from . import structure

    cls = structure.classify_2dim(args.a, args.b)
    doc = serialize.to_json(cls)
    if cls.kind == "cyclic":
        coker = structure.coker_ps_difference(cls)
        doc["coker_poly"] = {str(e): c for e, c in sorted(coker.items())}
    text = (
        f"({cls.a}, {cls.b}): {cls.kind}, k0 = {cls.k0}, "
        f"weights {list(cls.weights)}, coker weight {cls.coker_weight}"
    )
    return _emit(doc, text, args.format)


def _cmd_poincare(args) -> int:
    from . import structure

    if args.weights:
        ps = structure.ps_from_weights(_parse_integers(args.weights))
    elif args.cyclic:
        values = _parse_integers(args.cyclic)
        if len(values) != 2:
            raise ModformError(f"--cyclic takes k0,p, got {args.cyclic!r}")
        ps = structure.ps_cyclic(*values)
    else:
        raise ModformError("need --weights or --cyclic")
    doc = serialize.to_json(ps)
    if args.upto is not None:
        doc["coefficients"] = {str(w): d for w, d in enumerate(structure._ps_coefficients(ps, 0, args.upto))}
    return _emit(doc, str(ps), args.format)


def _cmd_verify_basis(args) -> int:
    from . import mlde, structure, vvmf

    equation = _resolve_mlde(args.mlde)
    system = mlde.fundamental_system(equation, args.terms)
    generators = [system]
    for _ in range(1, equation.order):
        generators.append(vvmf.serre_vvmf(generators[-1]))
    report = structure.free_basis_verify(generators, args.kmax, args.terms)
    doc = {
        **serialize.to_json(report),
        "k0": equation.weight,
        "generator_weights": [g.weight for g in generators],
    }
    return _emit(doc, report.message, args.format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modforms",
        description="Exact q-expansions, MLDEs, and module structure for SL(2,Z) forms.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("qexp", help="print a named classical form")
    sub.add_argument("--form", required=True, help="P, Q, R, delta, or eta^h")
    _add_terms(sub)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_qexp)

    sub = subs.add_parser("serre", help="Serre derivative of a named form")
    sub.add_argument("--form", required=True)
    sub.add_argument("--weight", required=True, help="weight of the form, e.g. 12 or --weight=-1/3")
    _add_terms(sub)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_serre)

    sub = subs.add_parser("mlde", help="modular linear differential equations")
    mlde_subs = sub.add_subparsers(dest="mlde_command", required=True)
    solve = mlde_subs.add_parser("solve", help="fundamental system of an MLDE")
    solve.add_argument("--exponents", help="comma-separated indicial roots, e.g. --exponents=0,5/6")
    solve.add_argument("--weight", type=int, help="k0 with --coeffs, e.g. 4 or --weight=-1")
    solve.add_argument("--coeffs", help="path to a JSON list of g_0..g_{p-2}")
    _add_terms(solve)
    _add_common(solve)
    solve.set_defaults(handler=_cmd_mlde_solve)

    sub = subs.add_parser("monodromy", help="numeric rho(S) of a fundamental system")
    sub.add_argument("--mlde", required=True, help="exponent list or MLDE JSON path")
    _add_terms(sub)
    _add_common(sub, tol=True)
    sub.set_defaults(handler=_cmd_monodromy)

    sub = subs.add_parser("classify2d", help="classify a 2-dimensional indecomposable")
    sub.add_argument("--a", type=int, required=True)
    sub.add_argument("--b", type=int, required=True)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_classify2d)

    sub = subs.add_parser("poincare", help="Hilbert-Poincare series")
    sub.add_argument("--weights", help="fundamental weights, e.g. 4,6 or --weights=-1,1")
    sub.add_argument("--cyclic", help="k0,p of a cyclic module, e.g. 4,2 or --cyclic=-1,3")
    sub.add_argument("--upto", type=int, help="also list coefficients through this weight")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_poincare)

    sub = subs.add_parser("verify-basis", help="desk check that F, DF, ... generate freely")
    sub.add_argument("--mlde", required=True, help="exponent list or MLDE JSON path")
    sub.add_argument("--kmax", type=int, default=40)
    _add_terms(sub)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_verify_basis)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "terms" in args and args.terms is None:
            args.terms = _env_terms()
        return args.handler(args)
    except argparse.ArgumentError as err:
        parser.error(str(err))
    except ModformError as err:
        sys.stderr.write(
            serialize.dumps({"error": {"type": type(err).__name__, "message": str(err)}})
        )
        return 1
    except ValueError as err:
        sys.stderr.write(serialize.dumps({"error": {"type": "ValueError", "message": str(err)}}))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
