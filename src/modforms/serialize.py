"""JSON encoding with exact rationals as "num/den" strings, never floats.

Series, polynomials and MLDEs decode as well as encode, and their round
trips are byte-stable: encoding, decoding, and re-encoding reproduces the
same document.  Every other document is output only.  Series coefficients
are always exact rationals; complex numbers appear only in monodromy
matrices, as [re, im] pairs.  Decoders read rationals as strings, ints or
Fractions and integer fields as exact integers: a JSON float or bool raises
TypeError instead of being rounded.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING

from .classical import PolynomialQR
from .mlde import MLDE
from .qseries import QExpansion, _coerce

if TYPE_CHECKING:
    from .mlde import IndicialData
    from .structure import FreeBasisReport, PoincareSeries, TwoDimClass
    from .vvmf import VVMF, RelationReport, RepData


def fraction_to_json(x) -> str:
    return str(Fraction(x))


def _integer(x) -> int:
    """An integer field given as an int or an exact string; never a float or a bool."""
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is not an integer")
    value = _coerce(x)
    if value.denominator != 1:
        raise ValueError(f"{x!r} is not an integer")
    return int(value)


def qexpansion_to_json(f: QExpansion) -> dict:
    return {
        "leading": fraction_to_json(f.leading),
        "coeffs": [str(c) for c in f.coeffs],
    }


def qexpansion_from_json(doc: dict) -> QExpansion:
    if not isinstance(doc["coeffs"], list):
        raise TypeError(f"coeffs must be a list, not {type(doc['coeffs']).__name__}")
    return QExpansion.make(doc["coeffs"], _coerce(doc["leading"]))


def polynomial_to_json(m: PolynomialQR) -> dict:
    return {
        "weight": m.weight,
        "coords": {f"{u},{v}": fraction_to_json(c) for (u, v), c in m.coords},
    }


def polynomial_from_json(doc: dict) -> PolynomialQR:
    coords = {}
    for key, val in doc["coords"].items():
        u, v = key.split(",")
        coords[(int(u), int(v))] = _coerce(val)
    return PolynomialQR.make(_integer(doc["weight"]), coords)


def mlde_to_json(eq: MLDE) -> dict:
    return {
        "weight": eq.weight,
        "order": eq.order,
        "coeffs": [polynomial_to_json(g) for g in eq.coeffs],
    }


def mlde_from_json(doc: dict) -> MLDE:
    return MLDE.make(
        _integer(doc["weight"]),
        _integer(doc["order"]),
        [polynomial_from_json(g) for g in doc["coeffs"]],
    )


def indicial_to_json(ind: IndicialData) -> dict:
    return {
        "poly": [fraction_to_json(c) for c in ind.poly],
        "roots": [fraction_to_json(r) for r in ind.roots],
        "all_rational": ind.all_rational,
    }


def matrix_to_json(rows) -> list:
    return [[[complex(x).real, complex(x).imag] for x in row] for row in rows]


def rep_to_json(rep: RepData) -> dict:
    doc: dict = {"exponents": [fraction_to_json(m) for m in rep.exponents]}
    if rep.rho_S is not None:
        doc["rho_S"] = matrix_to_json(rep.rho_S)
    return doc


def vvmf_to_json(form: VVMF) -> dict:
    return {
        "weight": form.weight,
        "rep": rep_to_json(form.rep),
        "components": [qexpansion_to_json(f) for f in form.components],
    }


def poincare_to_json(ps: PoincareSeries) -> dict:
    return {
        "numerator": {str(e): c for e, c in ps.numerator},
        "denominator": "(1-t^4)*(1-t^6)",
    }


def twodim_to_json(cls: TwoDimClass) -> dict:
    return {
        "a": cls.a,
        "b": cls.b,
        "kind": cls.kind,
        "k0": cls.k0,
        "weights": list(cls.weights),
        "coker_weight": cls.coker_weight,
    }


def relation_to_json(report: RelationReport) -> dict:
    return {
        "ok": report.ok,
        "sign": report.sign,
        "s_squared_residual": report.s_squared_residual,
        "braid_residual": report.braid_residual,
    }


def free_basis_to_json(report: FreeBasisReport) -> dict:
    return {
        "ok": report.ok,
        "rank": report.rank,
        "max_weight": report.max_weight,
        "dims": [[w, d] for w, d in report.dims],
        "spans": report.spans,
        "message": report.message,
    }


def dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
