import json
from fractions import Fraction

import pytest

from modforms import serialize
from modforms.classical import PolynomialQR, eta_power
from modforms.mlde import mlde_from_exponents
from modforms.structure import ps_cyclic
from modforms.vvmf import VVMF, RepData

F = Fraction


def test_fraction_strings():
    assert serialize.fraction_to_json(F(5, 6)) == "5/6"
    assert serialize.fraction_to_json(F(3)) == "3"
    assert serialize.qexpansion_from_json({"leading": "0", "coeffs": ["5/6"]}).coeffs == (F(5, 6),)
    # coefficients are exact; a [re, im] pair is not a coefficient
    with pytest.raises(TypeError):
        serialize.qexpansion_from_json({"leading": "0", "coeffs": [[1.0, -2.0]]})
    # a string is not a coefficient list, not even one read digit by digit
    for coeffs in ("12", {"0": "1"}):
        with pytest.raises(TypeError):
            serialize.qexpansion_from_json({"leading": "0", "coeffs": coeffs})


def test_qexpansion_round_trip():
    f = eta_power(10, 12)
    doc = serialize.qexpansion_to_json(f)
    assert doc["leading"] == "5/12"
    assert serialize.qexpansion_from_json(doc) == f
    # byte-identical re-encoding
    assert serialize.dumps(doc) == serialize.dumps(
        serialize.qexpansion_to_json(serialize.qexpansion_from_json(doc))
    )


def test_polynomial_round_trip():
    m = PolynomialQR.make(12, {(0, 2): F(-1, 1728), (3, 0): F(1, 1728)})
    doc = serialize.polynomial_to_json(m)
    assert serialize.polynomial_from_json(doc) == m


def test_mlde_round_trip():
    eq = mlde_from_exponents([0, F(5, 6)])
    doc = serialize.mlde_to_json(eq)
    assert serialize.mlde_from_json(doc) == eq
    assert json.loads(serialize.dumps(doc)) == doc


def test_vvmf_round_trip():
    rep = RepData.make([F(5, 12)], rho_S=[[-1j]])
    form = VVMF.make(5, rep, [eta_power(10, 8)])
    doc = serialize.vvmf_to_json(form)
    back = serialize.vvmf_from_json(doc)
    assert back == form


def test_poincare_round_trip():
    ps = ps_cyclic(4, 2)
    doc = serialize.poincare_to_json(ps)
    assert doc["numerator"] == {"4": 1, "6": 1}
    assert serialize.poincare_from_json(doc) == ps


@pytest.mark.parametrize(
    "kind,field,value",
    [("vvmf", "weight", 1.0), ("vvmf", "weight", True), ("mlde", "weight", True)],
    ids=["vvmf_weight_float", "vvmf_weight_bool", "weight_bool"],
)
def test_integer_fields_reject_floats_and_bools(kind, field, value):
    if kind == "vvmf":
        rep = RepData.make([F(5, 12)], rho_S=[[-1j]])
        doc = serialize.vvmf_to_json(VVMF.make(5, rep, [eta_power(10, 8)]))
    else:
        doc = serialize.mlde_to_json(mlde_from_exponents([0, F(5, 6)]))
    doc[field] = value
    decode = serialize.vvmf_from_json if kind == "vvmf" else serialize.mlde_from_json
    with pytest.raises(TypeError):
        decode(doc)
