"""Value semantics of every record (``errors.Record``) in the package, and no ``dataclasses`` anywhere in it."""

import ast
import copy
import importlib
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import modforms
from modforms.errors import Record
from modforms.qseries import QExpansion
from modforms.vvmf import RepData

LAYERS = ("classical", "cli", "errors", "linalg", "mlde", "qseries", "serialize", "skew", "structure", "vvmf")
for _layer in LAYERS:
    importlib.import_module(f"modforms.{_layer}")

RECORDS = sorted(Record.__subclasses__(), key=lambda cls: cls.__name__)

NAMES = [
    "ComponentCheck", "FreeBasisReport", "IndicialData", "MLDE", "PoincareSeries", "PolynomialQR", "QExpansion",
    "RelationReport", "RepData", "ResidualReport", "SkewPolynomial", "TwoDimClass", "VVMF", "ValidationReport",
]


def field_values(cls):
    """Distinct values for the fields of cls, built afresh on each call (equal, not identical)."""
    if cls is QExpansion:
        return [Fraction(1, 3), 7, tuple([2, 5])]
    return [tuple([cls.__name__, name]) for name in cls.__slots__]


def build(cls, values):
    # QExpansion's constructor takes coefficients; its private one takes the fields
    if cls is QExpansion:
        leading, den, nums = values
        return QExpansion._from_ints(leading, nums, den)
    return cls(*values)


def test_every_layer_defines_the_known_records():
    assert [cls.__name__ for cls in RECORDS] == sorted(NAMES)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equal_records_hash_equally(cls):
    a, b = build(cls, field_values(cls)), build(cls, field_values(cls))
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    other = field_values(cls)
    other[0] = ("another", "value")
    assert build(cls, other) != a


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_equals_no_tuple_and_no_other_class(cls):
    values = field_values(cls)
    a = build(cls, values)
    assert a != tuple(values) and tuple(values) != a
    assert a != values[0]
    twin = type("Twin", (Record,), {"__slots__": cls.__slots__})(*values)
    assert a != twin and twin != a


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_refuse_assignment_and_deletion(cls):
    a = build(cls, field_values(cls))
    for name in (*cls.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == build(cls, field_values(cls))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_repr_names_every_field(cls):
    text = repr(build(cls, field_values(cls)))
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls.__slots__, field_values(cls)))
    assert text == f"{cls.__qualname__}({fields})"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_copy_and_pickle_keep_the_value(cls):
    a = build(cls, field_values(cls))
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is cls and b == a


@pytest.mark.parametrize("cls", [cls for cls in RECORDS if cls is not QExpansion], ids=lambda cls: cls.__name__)
def test_keyword_construction(cls):
    values = field_values(cls)
    assert cls(**dict(zip(cls.__slots__, values))) == cls(*values)
    assert cls(*values[:1], **dict(zip(cls.__slots__[1:], values[1:]))) == cls(*values)


def test_keyword_construction_of_a_series():
    assert QExpansion(leading=Fraction(1, 3), coeffs=["2/7", "5/7"]) == build(QExpansion, field_values(QExpansion))


def test_rep_data_defaults_rho_s_to_none():
    exponents = (Fraction(0), Fraction(1, 2))
    assert RepData(exponents).rho_S is None
    assert RepData(exponents=exponents) == RepData(exponents, None)
    assert RepData(exponents, rho_S=((1, 0), (0, 1))).rho_S == ((1, 0), (0, 1))


@pytest.mark.parametrize(
    "args,kwargs",
    [((1, 2, 3), {}), ((), {}), ((1,), {"exponents": 1}), ((1,), {"rho": 2}), ((), {"rho_S": None})],
    ids=["too_many", "missing", "repeated", "unknown", "only_default"],
)
def test_bad_construction_is_a_type_error(args, kwargs):
    with pytest.raises(TypeError):
        RepData(*args, **kwargs)


def test_no_module_imports_dataclasses():
    for path in Path(modforms.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            assert "dataclasses" not in modules, path.name
