import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modforms.cli import main

TESTDATA = Path(__file__).parent / "testdata"

GOLDEN = [
    (["qexp", "--form", "Q", "--terms", "8"], "qexp_Q_terms8.json"),
    (["qexp", "--form", "eta^2", "--terms", "6"], "qexp_eta2_terms6.json"),
    (["serre", "--form", "delta", "--weight", "12", "--terms", "6"], "serre_delta_terms6.json"),
    (["mlde", "solve", "--exponents", "0,5/6", "--terms", "6"], "mlde_solve_0_56_terms6.json"),
    (["classify2d", "--a", "10", "--b", "0"], "classify2d_10_0.json"),
    (["classify2d", "--a", "0", "--b", "2"], "classify2d_0_2.json"),
    (["poincare", "--cyclic", "4,2", "--upto", "16"], "poincare_cyclic_4_2.json"),
    (["verify-basis", "--mlde", "0,5/6", "--kmax", "16", "--terms", "32"], "verify_basis_0_56_kmax16.json"),
]


@pytest.mark.parametrize("argv,golden", GOLDEN, ids=[g for _, g in GOLDEN])
def test_golden_outputs(capsys, argv, golden):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == (TESTDATA / golden).read_text()


def test_qexp_values(capsys):
    assert main(["qexp", "--form", "Q", "--terms", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"leading": "0", "coeffs": ["1", "240", "2160"]}


def test_text_format(capsys):
    assert main(["poincare", "--cyclic", "4,2", "--format", "text"]) == 0
    assert capsys.readouterr().out.strip() == "(t^4 + t^6)/((1-t^4)*(1-t^6))"


def test_classify2d_json_keys(capsys):
    main(["classify2d", "--a", "10", "--b", "0"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "cyclic" and doc["k0"] == 4 and doc["coker_weight"] == 0
    assert doc["coker_poly"] == {"0": 1}


def test_monodromy_values(capsys):
    assert main(["monodromy", "--mlde", "1/12", "--terms", "80"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # eta^2 at weight 1: rho(S) = -i
    re, im = doc["rho_S"][0][0]
    assert abs(re) < 1e-6 and abs(im + 1) < 1e-6
    assert doc["relations"]["ok"] and doc["relations"]["sign"] == -1


def test_domain_error_exit_code(capsys):
    assert main(["classify2d", "--a", "3", "--b", "0"]) == 1
    err = capsys.readouterr().err
    assert json.loads(err)["error"]["type"] == "NotIndecomposable"


def test_bad_form_name(capsys):
    assert main(["qexp", "--form", "nope"]) == 1
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ModformError"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["qexp"])  # missing required --form
    assert exc.value.code == 2


def test_terms_env_var(capsys, monkeypatch):
    monkeypatch.setenv("MODFORMS_TERMS", "3")
    assert main(["qexp", "--form", "Q"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["coeffs"]) == 4
    # explicit flag wins over the environment
    assert main(["qexp", "--form", "Q", "--terms", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["coeffs"]) == 6


def test_invalid_terms_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["qexp", "--form", "Q", "--terms", "0"])
    assert exc.value.code == 2


def test_mlde_solve_from_coeff_file(tmp_path, capsys):
    coeffs = [{"weight": 4, "coords": {"1,0": "-1/6"}}]
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps(coeffs))
    assert main(["mlde", "solve", "--weight", "4", "--coeffs", str(path), "--terms", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["indicial"]["roots"] == ["0", "5/6"]
    assert doc["weight_relation"] is True


def test_monodromy_from_mlde_file(tmp_path, capsys):
    doc = {"weight": 4, "order": 2, "coeffs": [{"weight": 4, "coords": {"1,0": "-1/6"}}]}
    path = tmp_path / "mlde.json"
    path.write_text(json.dumps(doc))
    assert main(["monodromy", "--mlde", str(path), "--terms", "64"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["relations"]["sign"] == 1


def test_short_truncation_is_not_a_verdict(capsys):
    argv = ["verify-basis", "--mlde", "0,5/6", "--kmax", "120", "--terms", "6"]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "InsufficientTruncation"


@pytest.mark.parametrize(
    "argv",
    [
        ["mlde", "solve", "--exponents", "1/0"],
        ["serre", "--form", "delta", "--weight", "1/0", "--terms", "4"],
    ],
    ids=["exponents", "weight"],
)
def test_zero_denominator_is_a_json_error(capsys, argv):
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ModformError"


def test_bad_terms_env_var_is_a_json_error(capsys, monkeypatch):
    monkeypatch.setenv("MODFORMS_TERMS", "abc")
    assert main(["qexp", "--form", "Q"]) == 1
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ModformError"


@pytest.mark.parametrize(
    "argv",
    [["poincare", "--weights", "1/2,6", "--upto", "8"], ["poincare", "--cyclic", "9/2,2"]],
    ids=["weights", "cyclic"],
)
def test_poincare_rejects_non_integers(capsys, argv):
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ModformError"


@pytest.mark.parametrize(
    "argv",
    [
        ["qexp", "--form", "Q", "--terms", "-5"],
        ["monodromy", "--mlde", "1/12", "--terms", "8", "--tol", "0"],
        ["monodromy", "--mlde", "1/12", "--terms", "8", "--tol", "nan"],
    ],
    ids=["terms", "tol_zero", "tol_nan"],
)
def test_out_of_range_flags_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


#: JSON documents for --mlde and --coeffs: name -> file text (None: no file).
DOCUMENTS = {
    "coeffs": json.dumps([{"weight": 4, "coords": {"1,0": "-1/6"}}]),
    "mlde": json.dumps({"weight": 4, "order": 2, "coeffs": [{"weight": 4, "coords": {"1,0": "-1/6"}}]}),
    "float_coeffs": json.dumps([{"weight": 4, "coords": {"1,0": -1 / 6}}]),
    "float_mlde": json.dumps({"weight": 4, "order": 2, "coeffs": [{"weight": 4, "coords": {"1,0": -1 / 6}}]}),
    "half_weight": json.dumps({"weight": 4.5, "order": 2, "coeffs": [{"weight": 4, "coords": {"1,0": "-1/6"}}]}),
    "no_weight": json.dumps({"order": 2, "coeffs": [{"weight": 4, "coords": {"1,0": "-1/6"}}]}),
    "malformed": "{not json",
    "scalar": "7",
    "missing": None,
    "directory": None,
}


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("documents")
    paths = {}
    for name, text in DOCUMENTS.items():
        paths[name] = root / name
        if text is not None:
            paths[name].write_text(text)
    paths["directory"].mkdir()
    return {f"@{name}": str(path) for name, path in paths.items()}


@pytest.mark.parametrize(
    "argv",
    [
        ["mlde", "solve", "--weight", "4", "--coeffs", "@missing", "--terms", "4"],
        ["mlde", "solve", "--weight", "4", "--coeffs", "@directory", "--terms", "4"],
        ["mlde", "solve", "--weight", "4", "--coeffs", "@float_coeffs", "--terms", "4"],
        ["monodromy", "--mlde", "@directory", "--terms", "8"],
        ["monodromy", "--mlde", "@no_weight", "--terms", "8"],
        ["monodromy", "--mlde", "@half_weight", "--terms", "8"],
        ["verify-basis", "--mlde", "@float_mlde", "--terms", "8"],
    ],
    ids=["coeffs_missing", "coeffs_directory", "coeffs_float", "mlde_directory", "mlde_no_weight",
         "mlde_half_weight", "mlde_float"],
)
def test_bad_document_is_a_json_error(capsys, documents, argv):
    assert main([documents.get(a, a) for a in argv]) == 1
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ModformError"


# -- fuzz: junk in every flag, in process ---------------------------------------

JUNK = ("-5", "0", "1/0", "abc", "", "2.5", "7/2", "1,2,3")
FILES = tuple(f"@{name}" for name in DOCUMENTS)


def _values(*good):
    return st.one_of(st.sampled_from(good), st.sampled_from(JUNK))


def _flag(flag, values):
    # "--flag=-1/3" is the only spelling argparse takes for a value starting with "-"
    return st.tuples(values, st.booleans()).map(lambda vj: [f"{flag}={vj[0]}"] if vj[1] else [flag, vj[0]])


def _optional(flag, values):
    return st.one_of(st.just([]), _flag(flag, values))


def _command(*parts):
    """argv of fixed words and drawn [flag, value] pairs, flags in drawn order."""
    words = [p for p in parts if isinstance(p, str)]
    flags = [p for p in parts if not isinstance(p, str)]
    return st.tuples(*flags).flatmap(st.permutations).map(lambda fs: words + [w for f in fs for w in f])


TERMS = _optional("--terms", _values("1", "3", "6"))
MLDE_SPEC = _values("0,5/6", "1/12", "0,1/3,2/3", *FILES)
ARGVS = st.one_of(
    _command("qexp", _flag("--form", st.sampled_from(("Q", "delta", "eta^3", "nope", ""))), TERMS),
    _command("serre", _flag("--form", st.sampled_from(("Q", "delta"))), _flag("--weight", _values("12", "-1/3")), TERMS),
    _command(
        "mlde", "solve",
        _optional("--exponents", _values("0,5/6", "1/12")),
        _optional("--weight", _values("4")),
        _optional("--coeffs", st.sampled_from(FILES)),
        TERMS,
    ),
    _command("monodromy", _flag("--mlde", MLDE_SPEC), TERMS, _optional("--tol", _values("1e-6", "nan", "inf"))),
    _command("classify2d", _flag("--a", _values("10", "11", "3")), _flag("--b", _values("0", "1", "9"))),
    _command(
        "poincare",
        _optional("--weights", _values("4,6", "-1,1")),
        _optional("--cyclic", _values("4,2", "-1,3")),
        _optional("--upto", _values("8", "-1")),
    ),
    _command("verify-basis", _flag("--mlde", MLDE_SPEC), _optional("--kmax", _values("8", "12")), TERMS),
)


def run_cli(argv, env_terms):
    err = io.StringIO()
    with mock.patch.dict(os.environ), redirect_stdout(io.StringIO()), redirect_stderr(err):
        os.environ.pop("MODFORMS_TERMS", None)
        if env_terms is not None:
            os.environ["MODFORMS_TERMS"] = env_terms
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@pytest.mark.filterwarnings("ignore::modforms.errors.NonConvergent")
@settings(max_examples=200, deadline=None)
@given(ARGVS, st.sampled_from((None, "4", "0", "-5", "abc")))
@example(["mlde", "solve", "--weight", "4", "--coeffs", "@missing", "--terms", "3"], None)
@example(["monodromy", "--mlde", "@directory", "--terms", "3"], None)
@example(["verify-basis", "--mlde", "@no_weight", "--terms", "3"], None)
def test_cli_fuzz_exits_cleanly(documents, argv, env_terms):
    code, err = run_cli([documents.get(a, a) for a in argv], env_terms)
    assert code in (0, 1, 2)
    if code == 1:
        error = json.loads(err)["error"]
        assert isinstance(error["type"], str) and isinstance(error["message"], str)
