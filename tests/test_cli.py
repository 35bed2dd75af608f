import json
from pathlib import Path

import pytest

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
    assert main(["qexp", "--form", "Q", "--terms", "0"]) == 1


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
