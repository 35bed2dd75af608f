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
    # vvmfs are output only: the encoder writes rho(S) as [re, im] pairs
    rep = RepData.make([F(5, 12)], rho_S=[[-1j]])
    doc = serialize.vvmf_to_json(VVMF.make(5, rep, [eta_power(10, 8)]))
    assert doc["weight"] == 5
    assert doc["rep"] == {"exponents": ["5/12"], "rho_S": [[[0.0, -1.0]]]}
    assert doc["components"] == [serialize.qexpansion_to_json(eta_power(10, 8))]
    assert json.loads(serialize.dumps(doc)) == doc


def test_poincare_round_trip():
    # Poincare series are output only
    doc = serialize.poincare_to_json(ps_cyclic(4, 2))
    assert doc == {"numerator": {"4": 1, "6": 1}, "denominator": "(1-t^4)*(1-t^6)"}
    assert json.loads(serialize.dumps(doc)) == doc


@pytest.mark.parametrize(
    "field,value",
    [("weight", 1.0), ("order", True), ("weight", True)],
    ids=["weight_float", "order_bool", "weight_bool"],
)
def test_integer_fields_reject_floats_and_bools(field, value):
    doc = serialize.mlde_to_json(mlde_from_exponents([0, F(5, 6)]))
    doc[field] = value
    with pytest.raises(TypeError):
        serialize.mlde_from_json(doc)
