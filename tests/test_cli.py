import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
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


TEXT = [
    (["qexp", "--form", "Q", "--terms", "3"], ["1 + 240*q + 2160*q^(2) + 6720*q^(3) + O(q^(4))"]),
    (["serre", "--form", "delta", "--weight", "12", "--terms", "3"], ["0 + O(q^(4))"]),
    (
        ["mlde", "solve", "--exponents", "0,5/6", "--terms", "3"],
        [
            "k0 = 4, order 2",
            "f_1 = 1 + 240*q + 2160*q^(2) + 6720*q^(3) + O(q^(4))",
            "f_2 = 1*q^(5/6) + 140/11*q^(11/6) + 7670/187*q^(17/6) + 517720/4301*q^(23/6) + O(q^(29/6))",
        ],
    ),
    # the residual lines print floats, so only their stable prefixes are pinned
    (
        ["monodromy", "--mlde", "1/12", "--terms", "40", "--tol", "1e-3"],
        ["rho(S) for k0 = 1:", "  0.000000-1.000000j", "rho(S)^2 = -1 I (residual ", "(rho(S)rho(T))^3 residual "],
    ),
    (["classify2d", "--a", "0", "--b", "2"], ["(0, 2): split, k0 = 0, weights [0, 2], coker weight None"]),
    (
        ["verify-basis", "--mlde", "0,5/6", "--kmax", "16", "--terms", "32"],
        ["free of rank 2: det F is nonzero at q^(5/6); a basis of H(rho)"],
    ),
]


@pytest.mark.parametrize("argv,lines", TEXT, ids=["qexp", "serre", "mlde_solve", "monodromy", "classify2d", "verify_basis"])
def test_text_format_every_command(capsys, argv, lines):
    assert main(argv + ["--format", "text"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == len(lines)
    for got, want in zip(out, lines):
        assert got.startswith(want) if want.endswith(" ") else got == want


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


def _fresh_process(child: str, *flags: str) -> str:
    """The last stdout line of child run in a fresh interpreter, so every import it makes shows in sys.modules."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, *flags, "-c", child], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1]


def test_monodromy_imports_no_numpy():
    child = (
        "import sys\nfrom modforms.cli import main\n"
        "code = main(['monodromy', '--mlde', '1/12,5/12,9/12', '--terms', '24'])\n"
        "print(code, 'numpy' in sys.modules)"
    )
    assert _fresh_process(child) == "0 False"


MLDE_LAYERS = ("mlde", "skew", "vvmf")


@pytest.mark.parametrize(
    "argv,unloaded",
    [
        (["qexp", "--form", "Q"], MLDE_LAYERS + ("structure", "linalg")),
        (["serre", "--form", "delta", "--weight", "12"], MLDE_LAYERS + ("structure", "linalg")),
        (["classify2d", "--a", "10", "--b", "0"], MLDE_LAYERS),
        (["poincare", "--cyclic", "4,2"], MLDE_LAYERS),
    ],
    ids=["qexp", "serre", "classify2d", "poincare"],
)
def test_command_loads_only_its_layers(argv, unloaded):
    child = (
        "import io, sys\nfrom contextlib import redirect_stdout\nfrom modforms.cli import main\n"
        f"with redirect_stdout(io.StringIO()):\n    code = main({argv!r})\n"
        "print(code, *sorted(sys.modules))"
    )
    code, *loaded = _fresh_process(child).split()
    assert code == "0"
    assert not {f"modforms.{name}" for name in unloaded} & set(loaded)


def test_qexp_loads_neither_typing_nor_pathlib():
    # -S skips site-packages' start-up hooks, which may import both modules themselves
    child = (
        "import io, sys\nfrom contextlib import redirect_stdout\nfrom modforms.cli import main\n"
        "with redirect_stdout(io.StringIO()):\n    code = main(['qexp', '--form', 'Q', '--terms', '64'])\n"
        "print(code, 'typing' in sys.modules, 'pathlib' in sys.modules)"
    )
    assert _fresh_process(child, "-S") == "0 False False"


def test_package_import_is_lazy():
    # a bare import loads no submodule; the first use of a name loads its home module and caches the name
    child = (
        "import sys\nimport modforms\n"
        "loaded = lambda: ','.join(sorted(m for m in sys.modules if m.startswith('modforms.')))\n"
        "bare = loaded()\nmodforms.ps_cyclic\n"
        "print(repr(bare), loaded(), 'ps_cyclic' in vars(modforms))"
    )
    structure = "modforms.classical,modforms.errors,modforms.linalg,modforms.qseries,modforms.structure"
    assert _fresh_process(child) == f"'' {structure} True"


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


def test_mlde_solve_irrational_roots_is_an_error(tmp_path, capsys):
    # order 3 at weight 5 with g_1 = Q/(2^61 - 1) and g_0 = c R: 1000/1000003 is the one rational root
    root, c1 = Fraction(1000, 1000003), Fraction(1, 2**61 - 1)
    shifted = [root - Fraction(5 + 2 * l, 12) for l in range(3)]
    c0 = -(shifted[0] * shifted[1] * shifted[2] + c1 * shifted[0])
    coeffs = [{"weight": 6, "coords": {"0,1": str(c0)}}, {"weight": 4, "coords": {"1,0": str(c1)}}]
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps(coeffs))
    assert main(["mlde", "solve", "--weight", "5", "--coeffs", str(path), "--terms", "8"]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "IrrationalRoots" and "only 1 of 3" in error["message"]


def test_monodromy_from_mlde_file(tmp_path, capsys):
    doc = {"weight": 4, "order": 2, "coeffs": [{"weight": 4, "coords": {"1,0": "-1/6"}}]}
    path = tmp_path / "mlde.json"
    path.write_text(json.dumps(doc))
    assert main(["monodromy", "--mlde", str(path), "--terms", "64"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["relations"]["sign"] == 1


def test_short_truncation_is_proved_free(capsys):
    # 15 multiples of F, DF at weight 88 against 2 * 7 known coefficients: det F decides it
    from modforms.structure import ps_coefficient, ps_cyclic

    argv = ["verify-basis", "--mlde", "0,5/6", "--kmax", "120", "--terms", "6"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] and doc["spans"]
    series = ps_cyclic(4, 2)
    assert doc["dims"] == [[w, ps_coefficient(series, w)] for w in range(4, 121) if ps_coefficient(series, w)]


NO_TERMS = [(argv, golden) for argv, golden in GOLDEN if argv[0] in ("classify2d", "poincare")]


@pytest.mark.parametrize("argv,golden", NO_TERMS, ids=[g for _, g in NO_TERMS])
def test_commands_without_a_truncation_take_no_terms(capsys, monkeypatch, argv, golden):
    # classify2d and poincare read no truncation, so neither --terms nor MODFORMS_TERMS
    monkeypatch.setenv("MODFORMS_TERMS", "abc")
    assert main(argv) == 0
    assert capsys.readouterr().out == (TESTDATA / golden).read_text()
    with pytest.raises(SystemExit) as err:
        main(argv + ["--terms", "8"])
    assert err.value.code == 2


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


@pytest.mark.parametrize("value", ["4", "4,2,1"])
def test_cyclic_takes_two_integers(capsys, value):
    assert main(["poincare", "--cyclic", value]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ModformError" and "k0,p" in error["message"]


#: g_0 = c Q in an order-2 MLDE of weight 4 gives the indicial roots with product c + 1/6
ROOT_COEFFS = {"repeated": "1/144", "out_of_range": "-1/3"}  # roots 5/12, 5/12 and -1/6, 1


@pytest.mark.parametrize(
    "argv,kind,shown",
    [
        (["mlde", "solve", "--exponents", "0,0"], "RootsNotDistinct", "exponents 0, 0 "),
        (["mlde", "solve", "--exponents", "0,7/6"], "RootsOutOfRange", "exponents 0, 7/6 "),
        (["verify-basis", "--mlde", "1/2,-1/2"], "RootsOutOfRange", "exponents 1/2, -1/2 "),
        (["mlde", "solve", "--weight", "4", "--coeffs", "@repeated"], "RootsNotDistinct", "roots 5/12, 5/12 "),
        (["monodromy", "--mlde", "@out_of_range"], "RootsOutOfRange", "roots -1/6, 1 "),
    ],
    ids=["exponents_repeated", "exponents_out_of_range", "verify_out_of_range", "roots_repeated",
         "roots_out_of_range"],
)
def test_root_errors_print_rationals(tmp_path, capsys, argv, kind, shown):
    paths = {}
    for name, c in ROOT_COEFFS.items():
        coeffs = [{"weight": 4, "coords": {"1,0": c}}]
        paths[f"@{name}"] = path = tmp_path / name
        path.write_text(json.dumps(coeffs if argv[0] == "mlde" else {"weight": 4, "order": 2, "coeffs": coeffs}))
    assert main([str(paths.get(a, a)) for a in argv] + ["--terms", "4"]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == kind and shown in error["message"]
    assert "Fraction(" not in error["message"]


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


@pytest.mark.parametrize(
    "argv",
    [
        ["mlde", "solve", "--exponents", "0,5/6", "--coeffs", "@coeffs", "--weight", "2"],
        ["mlde", "solve", "--exponents", "0,5/6", "--coeffs", "@coeffs"],
        ["mlde", "solve", "--exponents", "0,5/6", "--weight", "2"],
    ],
    ids=["coeffs_and_weight", "coeffs", "weight"],
)
def test_exponents_exclude_coeffs_and_weight(documents, argv):
    with pytest.raises(SystemExit) as exc:
        main([documents.get(a, a) for a in argv])
    assert exc.value.code == 2


def test_mlde_solve_needs_an_equation(capsys):
    assert main(["mlde", "solve"]) == 1
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ModformError"


#: JSON documents for --mlde and --coeffs: name -> file text (None: no file).
DOCUMENTS = {
    "coeffs": json.dumps([{"weight": 4, "coords": {"1,0": "-1/6"}}]),
    "mlde": json.dumps({"weight": 4, "order": 2, "coeffs": [{"weight": 4, "coords": {"1,0": "-1/6"}}]}),
    "float_coeffs": json.dumps([{"weight": 4, "coords": {"1,0": -1 / 6}}]),
    "float_mlde": json.dumps({"weight": 4, "order": 2, "coeffs": [{"weight": 4, "coords": {"1,0": -1 / 6}}]}),
    "half_weight": json.dumps({"weight": 4.5, "order": 2, "coeffs": [{"weight": 4, "coords": {"1,0": "-1/6"}}]}),
    "bool_weight": json.dumps({"weight": True, "order": 2, "coeffs": [{"weight": 4, "coords": {"1,0": "-1/6"}}]}),
    "bool_coeffs": json.dumps([{"weight": 4, "coords": {"1,0": True}}]),
    "bool_mlde": json.dumps({"weight": 4, "order": 2, "coeffs": [{"weight": 4, "coords": {"1,0": True}}]}),
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
        ["mlde", "solve", "--weight", "4", "--coeffs", "@bool_coeffs", "--terms", "4"],
        ["monodromy", "--mlde", "@directory", "--terms", "8"],
        ["monodromy", "--mlde", "@no_weight", "--terms", "8"],
        ["monodromy", "--mlde", "@half_weight", "--terms", "8"],
        ["monodromy", "--mlde", "@bool_weight", "--terms", "8"],
        ["verify-basis", "--mlde", "@float_mlde", "--terms", "8"],
        ["verify-basis", "--mlde", "@bool_mlde", "--terms", "8"],
    ],
    ids=["coeffs_missing", "coeffs_directory", "coeffs_float", "coeffs_bool", "mlde_directory", "mlde_no_weight",
         "mlde_half_weight", "mlde_bool_weight", "mlde_float", "mlde_bool_coeff"],
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
