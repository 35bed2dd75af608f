"""JSON encoding with exact rationals as "num/den" strings, never floats.

One rule encodes every library value.  ``dumps`` hands ``to_json`` to
``json.dumps`` as its ``default``, so json walks lists, tuples and dicts
itself and asks ``to_json`` for one level of anything else:

- a Fraction is its "num/den" string ("3" when whole);
- a complex number is an [re, im] pair (only monodromy matrices hold them);
- a QExpansion is {leading, coeffs}, with every coefficient a rational string;
- a PolynomialQR is {weight, coords}, coords keyed "u,v" for Q^u R^v;
- a PoincareSeries is {numerator, denominator}: exponent strings to integer
  coefficients over the fixed "(1-t^4)*(1-t^6)";
- any other record (``errors.Record``) is its fields, except that a field
  still at its declared default of None is left out (``RepData.rho_S``); a
  None field without that default stays null (``TwoDimClass.coker_weight``);
- anything else raises TypeError.

At run time this module imports only ``errors``, ``qseries`` and ``classical``.  A
PoincareSeries is recognised by its class's module and name, and an MLDE is
encoded by the record rule, so neither ``structure`` nor ``mlde`` is
needed to encode; ``mlde_from_json`` imports ``mlde`` when it is called.

Three decoders read documents back: ``qexpansion_from_json``,
``polynomial_from_json`` and ``mlde_from_json``.  Their round trips are
byte-stable: encoding, decoding, and re-encoding reproduces the same
document.  Every other document is output only.  Decoders read rationals as
strings, ints or Fractions and integer fields as exact integers: a JSON
float or bool raises TypeError instead of being rounded.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .classical import PolynomialQR
from .errors import Record
from .qseries import QExpansion, _coerce

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .mlde import MLDE

_POINCARE = (f"{__package__}.structure", "PoincareSeries")


def to_json(x):
    """One level of the JSON form of x; json.dumps encodes what it returns."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, QExpansion):
        return {"leading": str(x.leading), "coeffs": [str(c) for c in x.coeffs]}
    if isinstance(x, PolynomialQR):
        return {"weight": x.weight, "coords": {f"{u},{v}": str(c) for (u, v), c in x.coords}}
    if (type(x).__module__, type(x).__name__) == _POINCARE:
        return {
            "numerator": {str(e): c for e, c in x.numerator},
            "denominator": "(1-t^4)*(1-t^6)",
        }
    if isinstance(x, Record):
        # ... is no declared default, so only a field defaulting to None can be dropped
        return {
            name: getattr(x, name)
            for name in x.__slots__
            if not (x._defaults.get(name, ...) is None and getattr(x, name) is None)
        }
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _rational(x) -> Fraction:
    """A rational given as a Fraction, an int or an exact string; never a float or a bool."""
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is not a rational")
    return _coerce(x)


def _integer(x) -> int:
    """An integer field given as an int or an exact string; never a float or a bool."""
    value = _rational(x)
    if value.denominator != 1:
        raise ValueError(f"{x!r} is not an integer")
    return int(value)


def qexpansion_from_json(doc: dict) -> QExpansion:
    if not isinstance(doc["coeffs"], list):
        raise TypeError(f"coeffs must be a list, not {type(doc['coeffs']).__name__}")
    return QExpansion.make([_rational(c) for c in doc["coeffs"]], _rational(doc["leading"]))


def polynomial_from_json(doc: dict) -> PolynomialQR:
    coords = {}
    for key, val in doc["coords"].items():
        u, v = key.split(",")
        coords[(int(u), int(v))] = _rational(val)
    return PolynomialQR.make(_integer(doc["weight"]), coords)


def mlde_from_json(doc: dict) -> MLDE:
    from .mlde import MLDE

    return MLDE.make(
        _integer(doc["weight"]),
        _integer(doc["order"]),
        [polynomial_from_json(g) for g in doc["coeffs"]],
    )


def dumps(payload) -> str:
    return json.dumps(payload, default=to_json, indent=2, sort_keys=True) + "\n"
