import json
from fractions import Fraction

import pytest

from modforms import serialize
from modforms.classical import PolynomialQR, eta_power
from modforms.mlde import IndicialData, ResidualReport, mlde_from_exponents
from modforms.qseries import QExpansion
from modforms.structure import FreeBasisReport, PoincareSeries, TwoDimClass, ps_cyclic
from modforms.vvmf import VVMF, ComponentCheck, RelationReport, RepData, ValidationReport

F = Fraction


def test_fraction_strings():
    assert serialize.to_json(F(5, 6)) == "5/6"
    assert serialize.to_json(F(3)) == "3"
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
    doc = serialize.to_json(f)
    assert doc["leading"] == "5/12"
    assert serialize.qexpansion_from_json(doc) == f
    # byte-identical re-encoding
    assert serialize.dumps(doc) == serialize.dumps(serialize.qexpansion_from_json(doc))


def test_polynomial_round_trip():
    m = PolynomialQR.make(12, {(0, 2): F(-1, 1728), (3, 0): F(1, 1728)})
    doc = serialize.to_json(m)
    assert serialize.polynomial_from_json(doc) == m


def test_mlde_round_trip():
    eq = mlde_from_exponents([0, F(5, 6)])
    doc = json.loads(serialize.dumps(eq))
    assert serialize.mlde_from_json(doc) == eq
    assert json.loads(serialize.dumps(doc)) == doc


def test_vvmf_round_trip():
    # vvmfs are output only: the encoder writes rho(S) as [re, im] pairs
    rep = RepData.make([F(5, 12)], rho_S=[[-1j]])
    doc = json.loads(serialize.dumps(VVMF.make(5, rep, [eta_power(10, 8)])))
    assert doc["weight"] == 5
    assert doc["rep"] == {"exponents": ["5/12"], "rho_S": [[[0.0, -1.0]]]}
    assert doc["components"] == [serialize.to_json(eta_power(10, 8))]
    assert json.loads(serialize.dumps(doc)) == doc


def test_poincare_round_trip():
    # Poincare series are output only
    doc = serialize.to_json(ps_cyclic(4, 2))
    assert doc == {"numerator": {"4": 1, "6": 1}, "denominator": "(1-t^4)*(1-t^6)"}
    assert json.loads(serialize.dumps(doc)) == doc


ENCODED = [
    pytest.param(
        IndicialData((F(0), F(-5, 6), F(1)), (F(0), F(5, 6)), True),
        {"poly": ["0", "-5/6", "1"], "roots": ["0", "5/6"], "all_rational": True},
        id="indicial",
    ),
    pytest.param(
        ResidualReport(True, 6, None, None),
        {"ok": True, "order_checked": 6, "first_nonzero_exponent": None, "first_nonzero_value": None},
        id="residual_ok",
    ),
    pytest.param(
        ResidualReport(False, 6, F(1), F(-124)),
        {"ok": False, "order_checked": 6, "first_nonzero_exponent": "1", "first_nonzero_value": "-124"},
        id="residual_failed",
    ),
    pytest.param(
        ValidationReport(
            False,
            (
                ComponentCheck(0, True, "leading = m_j + 0"),
                ComponentCheck(1, False, "leading 1/3 not congruent to 5/6 mod 1"),
            ),
        ),
        {
            "ok": False,
            "components": [
                {"index": 0, "ok": True, "message": "leading = m_j + 0"},
                {"index": 1, "ok": False, "message": "leading 1/3 not congruent to 5/6 mod 1"},
            ],
        },
        id="validation",
    ),
    pytest.param(
        RelationReport(True, -1, 2.5e-16, 0.0),
        {"ok": True, "sign": -1, "s_squared_residual": 2.5e-16, "braid_residual": 0.0},
        id="relation",
    ),
    pytest.param(
        FreeBasisReport(True, 2, 8, ((4, 1), (6, 1), (8, 1)), True, "free of rank 2"),
        {
            "ok": True,
            "rank": 2,
            "max_weight": 8,
            "dims": [[4, 1], [6, 1], [8, 1]],
            "spans": True,
            "message": "free of rank 2",
        },
        id="free_basis",
    ),
    pytest.param(
        TwoDimClass(10, 0, "cyclic", 4, (4, 6), 0),
        {"a": 10, "b": 0, "kind": "cyclic", "k0": 4, "weights": [4, 6], "coker_weight": 0},
        id="twodim_cyclic",
    ),
    pytest.param(
        # coker_weight has no default, so its None stays null
        TwoDimClass(0, 2, "split", 0, (0, 2), None),
        {"a": 0, "b": 2, "kind": "split", "k0": 0, "weights": [0, 2], "coker_weight": None},
        id="twodim_split",
    ),
    pytest.param(
        # rho_S still at its default None is left out
        RepData.make([0, F(5, 6)]),
        {"exponents": ["0", "5/6"]},
        id="rep",
    ),
    pytest.param(
        RepData.make([F(1, 4), F(3, 4)], rho_S=[[0.5, 1j], [-1, 0]]),
        {"exponents": ["1/4", "3/4"], "rho_S": [[[0.5, 0.0], [0.0, 1.0]], [[-1.0, 0.0], [0.0, 0.0]]]},
        id="rep_rho_S",
    ),
    pytest.param(
        VVMF.make(5, RepData.make([F(5, 12)]), [QExpansion.make([1, -10, F(1, 2)], F(5, 12))]),
        {
            "weight": 5,
            "rep": {"exponents": ["5/12"]},
            "components": [{"leading": "5/12", "coeffs": ["1", "-10", "1/2"]}],
        },
        id="vvmf",
    ),
    pytest.param(
        PoincareSeries.make({-1: 1, 1: 1, 3: 0}),
        {"numerator": {"-1": 1, "1": 1}, "denominator": "(1-t^4)*(1-t^6)"},
        id="poincare",
    ),
]


@pytest.mark.parametrize("value,expected", ENCODED)
def test_every_record_encodes_by_the_one_rule(value, expected):
    assert json.loads(serialize.dumps(value)) == expected


@pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes"], ids=["object", "set", "bytes"])
def test_unknown_types_raise(value):
    with pytest.raises(TypeError):
        serialize.to_json(value)
    with pytest.raises(TypeError):
        serialize.dumps({"value": value})


@pytest.mark.parametrize(
    "field,value",
    [("weight", 1.0), ("order", True), ("weight", True)],
    ids=["weight_float", "order_bool", "weight_bool"],
)
def test_integer_fields_reject_floats_and_bools(field, value):
    doc = json.loads(serialize.dumps(mlde_from_exponents([0, F(5, 6)])))
    doc[field] = value
    with pytest.raises(TypeError):
        serialize.mlde_from_json(doc)


@pytest.mark.parametrize(
    "decode,doc",
    [
        (serialize.qexpansion_from_json, {"leading": True, "coeffs": ["1"]}),
        (serialize.qexpansion_from_json, {"leading": "0", "coeffs": [True, False, 2]}),
        (serialize.polynomial_from_json, {"weight": 4, "coords": {"1,0": True}}),
        (
            serialize.mlde_from_json,
            {"weight": 4, "order": 2, "coeffs": [{"weight": 4, "coords": {"1,0": False}}]},
        ),
    ],
    ids=["leading_bool", "coeff_bool", "coords_bool", "mlde_coords_bool"],
)
def test_rational_fields_reject_bools(decode, doc):
    with pytest.raises(TypeError):
        decode(doc)
