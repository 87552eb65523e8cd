import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import vertexalg

from vertexalg import ParseError, parse_element, parse_expr, parse_weight
from vertexalg.words import FreeElement, Gen, Prod, Vac, evaluate, format_element
from vertexalg import cli
from vertexalg.basis import dim_component
from vertexalg.rewrite import StepBudgetExceeded

from conftest import SIG_FERM, SIG_FREE2


def test_parse_right_normed_word():
    tree = parse_expr(SIG_FERM, "a(-2)a(-1)vac")
    assert tree == Prod(Gen(0), -2, Prod(Gen(0), -1, Vac()))


def test_parse_product_node():
    tree = parse_expr(SIG_FREE2, "(a [1] b)")
    assert tree == Prod(Gen(0), 1, Gen(1))


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_expr(SIG_FERM, "a(-1")
    assert err.value.position == 4


def test_parse_unknown_generator():
    with pytest.raises(ParseError):
        parse_expr(SIG_FERM, "c(-1)vac")


def test_parse_element_with_coefficients():
    from fractions import Fraction

    x = parse_element(SIG_FERM, "a(-3)vac - 3/2 * a(-3)vac + vac")
    assert x.terms[((0, -3),)] == Fraction(-1, 2)
    assert x.terms[()] == 1
    assert parse_element(SIG_FERM, "-a(-3)vac + vac") == parse_element(SIG_FERM, "vac - a(-3)vac")


def test_parse_nested_products():
    x = parse_element(SIG_FERM, "((a [-2] a) [-1] vac)")
    assert x == evaluate(SIG_FERM, parse_expr(SIG_FERM, "(a [-2] a)"))


def test_print_parse_roundtrip():
    from fractions import Fraction

    x = FreeElement({((0, -2), (0, -1)): Fraction(-3, 2), ((0, -4),): 1})
    text = format_element(SIG_FERM, x)
    assert parse_element(SIG_FERM, text) == x


def test_parse_weight_forms():
    assert parse_weight(SIG_FREE2, "2a") == (2, 0)
    assert parse_weight(SIG_FREE2, "a+b") == (1, 1)
    assert parse_weight(SIG_FREE2, "-a+2b") == (-1, 2)
    assert parse_weight(SIG_FREE2, "0") == (0, 0)
    with pytest.raises(ParseError):
        parse_weight(SIG_FREE2, "2c")


def test_parse_non_decimal_digits():
    # integers are read with str.isdecimal, which accepts exactly what int() reads:
    # a superscript digit is an unexpected character, an Arabic-Indic digit a digit
    with pytest.raises(ParseError) as err:
        parse_expr(SIG_FERM, "a(\u00b2)vac")
    assert (err.value.message, err.value.position) == ("unexpected character '\u00b2'", 2)
    with pytest.raises(ParseError) as err:
        parse_weight(SIG_FREE2, "\u00b2a")
    assert err.value.position == 0
    with pytest.raises(ParseError):
        parse_element(SIG_FERM, "\u00bd * a(-1)vac")
    assert parse_expr(SIG_FERM, "a(-\u0661)vac") == parse_expr(SIG_FERM, "a(-1)vac")
    assert parse_weight(SIG_FREE2, "\u0662a+b") == (2, 1)


@pytest.fixture
def ferm_cfg(tmp_path):
    path = tmp_path / "ferm.cfg"
    path.write_text('{"generators": ["a"], "locality": [[-1]]}')
    return str(path)


def test_cli_normal_form_golden(ferm_cfg, capsys):
    code = cli.run(["normal-form", ferm_cfg, "a(-1)a(-2)vac"])
    assert code == 0
    assert capsys.readouterr().out == "-1 * a(-2)a(-1)vac\n"


def test_cli_dim_golden(ferm_cfg, capsys):
    code = cli.run(["dim", ferm_cfg, "2a", "4..12"])
    assert code == 0
    assert capsys.readouterr().out == "1,0,1,0,2,0,2,0,3\n"


def test_cli_embed_golden(ferm_cfg, capsys):
    code = cli.run(["embed", ferm_cfg, "a(-2)a(-1)vac"])
    assert code == 0
    assert capsys.readouterr().out == "v[2a]\n"


def test_cli_basis(ferm_cfg, capsys):
    code = cli.run(["basis", ferm_cfg, "2a", "10"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == ["a(-5)a(-1)vac", "a(-4)a(-2)vac"]


def test_cli_product(ferm_cfg, capsys):
    code = cli.run(["product", ferm_cfg, "a(-2)vac", "-1", "a(-1)vac"])
    assert code == 0
    assert capsys.readouterr().out == "a(-2)a(-1)vac\n"


@pytest.mark.parametrize(
    "argv, record",
    (
        (
            ["basis", "ferm", "2a", "10"],
            '{"command": "basis", "deg2": 10, "weight": "2a", "words": ["a(-5)a(-1)vac", "a(-4)a(-2)vac"]}',
        ),
        (["dim", "ferm", "2a", "4..6"], '{"command": "dim", "deg2": [4, 5, 6], "dims": [1, 0, 1], "weight": "2a"}'),
        (
            ["product", "ferm", "a(-2)vac", "-1", "a(-1)vac"],
            '{"command": "product", "mode": -1, "result": "a(-2)a(-1)vac"}',
        ),
        (
            ["embed", "free2", "a(1)b(-3)vac"],
            '{"command": "embed", "result": "3/2 * a(-1)a(-1) v[a+b] + 2 * b(-1)a(-1) v[a+b]'
            ' + 1/2 * b(-1)b(-1) v[a+b] + 3/2 * a(-2) v[a+b] + 1/2 * b(-2) v[a+b]", "states": ['
            '{"charge": [1, 1], "coeff": "3/2", "heis": [["a", 1], ["a", 1]]}, '
            '{"charge": [1, 1], "coeff": "2", "heis": [["a", 1], ["b", 1]]}, '
            '{"charge": [1, 1], "coeff": "1/2", "heis": [["b", 1], ["b", 1]]}, '
            '{"charge": [1, 1], "coeff": "3/2", "heis": [["a", 2]]}, '
            '{"charge": [1, 1], "coeff": "1/2", "heis": [["b", 2]]}]}',
        ),
    ),
)
def test_cli_machine_golden_records(ferm_cfg, free2_cfg, capsys, argv, record):
    command, config, *rest = argv
    cfg = {"ferm": ferm_cfg, "free2": free2_cfg}[config]
    assert cli.run(["--format", "machine", command, cfg, *rest]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (record + "\n", "")


def test_cli_long_right_normed_word(ferm_cfg):
    # a long right-normed word must not reach the recursion limit
    env = dict(os.environ, PYTHONPATH=str(Path(vertexalg.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "vertexalg.cli", "normal-form", ferm_cfg, "a(-1)" * 1200 + "vac"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0"
    assert "Traceback" not in proc.stderr


def test_cli_runs_in_one_process_match_fresh_processes(ferm_cfg, tmp_path, capsys):
    # the parser is built once per process; a sequence of runs through it,
    # errors included, must print and exit as a fresh process does each time
    bad = tmp_path / "bad.cfg"
    bad.write_text('{"generators": ["a", "b"], "locality": [[2, 1], [3, 2]]}')
    commands = (
        ["--format", "machine", "normal-form", ferm_cfg, "a(-1)a(-2)vac"],
        ["dim", ferm_cfg, "2a", "4..12"],
        ["normal-form", ferm_cfg, "a(-1"],
        ["basis", str(bad), "a", "0"],
        ["embed", ferm_cfg, "a(-2)a(-1)vac"],
    )
    env = dict(os.environ, PYTHONPATH=str(Path(vertexalg.__file__).parents[1]))
    codes = []
    for argv in commands:
        code = cli.run(argv)
        captured = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", "vertexalg.cli", *argv], capture_output=True, text=True, env=env, timeout=120
        )
        assert (code, captured.out, captured.err) == (proc.returncode, proc.stdout, proc.stderr), argv
        codes.append(code)
    assert codes == [0, 0, 1, 2, 0]
    assert cli._build_parser() is cli._build_parser()


def test_cli_parse_error_exit(ferm_cfg, capsys):
    assert cli.run(["normal-form", ferm_cfg, "a(-1"]) == 1
    assert "offset 4" in capsys.readouterr().err
    for expr, message in (
        ("a(b)vac", "expected an integer at offset 2"),
        ("1/0 * vac", "zero denominator at offset 2"),
    ):
        assert cli.run(["normal-form", ferm_cfg, expr]) == 1
        assert capsys.readouterr().err == f"parse error: {message}\n"


def test_cli_non_decimal_digits_exit(ferm_cfg, capsys):
    # a non-decimal digit in an expression or a weight is a parse error (exit 1),
    # not Python's int() message
    assert cli.run(["normal-form", ferm_cfg, "a(\u00b2)vac"]) == 1
    assert capsys.readouterr().err == "parse error: unexpected character '\u00b2' at offset 2\n"
    assert cli.run(["basis", ferm_cfg, "\u00b2a", "4"]) == 1
    assert capsys.readouterr().err == "parse error: unexpected character '\u00b2' at offset 0\n"
    assert cli.run(["normal-form", ferm_cfg, "a(-\u0662)a(-\u0661)vac"]) == 0
    assert capsys.readouterr().out == "a(-2)a(-1)vac\n"


def test_cli_validation_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text('{"generators": ["a", "b"], "locality": [[2, 1], [3, 2]]}')
    assert cli.run(["basis", str(bad), "a", "0"]) == 2
    assert cli.run(["basis", str(tmp_path / "missing.cfg"), "a", "0"]) == 2


MALFORMED_CONFIGS = (
    ('{"generators": null, "locality": [[1]]}', "generators must be a list of names"),
    ('{"generators": 5, "locality": [[1]]}', "generators must be a list of names"),
    ('{"generators": ["a"], "locality": null}', "locality must be a matrix of integers"),
    ('{"generators": ["a"], "locality": 5}', "locality must be a matrix of integers"),
    ('{"generators": ["a"], "locality": [5]}', "locality must be a matrix of integers"),
    ('{"generators": ["a"], "gram": [[true]]}', "gram entries must be integers, got True"),
    ('{"generators": [null], "locality": [[-1]]}', "generator names must be identifiers other than 'vac', got None"),
    ('{"generators": [], "locality": []}', "empty generator list"),
    ('{"gram": [[1]]}', "lattice configuration needs 'generators' and 'gram'"),
    ('{"generators": ["a"]}', "configuration needs a 'locality' or 'gram' matrix"),
    ("[1]", "configuration must be a JSON object"),
)


def test_cli_malformed_configuration_exit(tmp_path, capsys):
    # malformed shapes and a boolean Gram entry are validation errors (exit 2), not tracebacks
    bad = tmp_path / "bad.cfg"
    for doc, message in MALFORMED_CONFIGS:
        bad.write_text(doc)
        assert cli.run(["basis", str(bad), "a", "0"]) == 2, doc
        assert capsys.readouterr().err == f"validation error: {message}\n", doc
    env = dict(os.environ, PYTHONPATH=str(Path(vertexalg.__file__).parents[1]))
    bad.write_text(MALFORMED_CONFIGS[0][0])
    proc = subprocess.run(
        [sys.executable, "-m", "vertexalg.cli", "embed", str(bad), "a(-1)vac"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr == "validation error: generators must be a list of names\n"


@pytest.mark.parametrize(
    "exc", (StepBudgetExceeded("rewriting step budget exceeded"), RecursionError("maximum recursion depth exceeded"))
)
def test_cli_resource_limit_exit(ferm_cfg, capsys, monkeypatch, exc):
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "normal_form", exhausted)
    assert cli.run(["normal-form", ferm_cfg, "a(-1)a(-2)vac"]) == cli.EXIT_RESOURCE == 4
    err = capsys.readouterr().err
    assert err == f"resource limit: {exc}\n"
    assert "Traceback" not in err


def test_cli_too_large_exit(ferm_cfg, capsys, monkeypatch):
    # a degree whose DP table cannot be indexed, and a mode whose factorial
    # overflows, fail before anything is allocated
    for argv in (
        ["dim", ferm_cfg, "2a", str(10**20)],
        ["basis", ferm_cfg, "2a", str(10**20)],
        ["embed", ferm_cfg, f"a({-10**20})vac"],
    ):
        assert cli.run(argv) == cli.EXIT_RESOURCE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("resource limit: ")
        assert captured.err.count("\n") == 1

    def exhausted(*args, **kwargs):
        raise MemoryError("out of memory")

    monkeypatch.setattr(cli, "component_dims", exhausted)
    assert cli.run(["dim", ferm_cfg, "2a", "4..6"]) == cli.EXIT_RESOURCE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "resource limit: out of memory\n")


def test_cli_machine_format(ferm_cfg, capsys):
    code = cli.run(["--format", "machine", "normal-form", ferm_cfg, "a(-1)a(-2)vac"])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["result"] == "-1 * a(-2)a(-1)vac"
    assert record["steps"] >= 1


def test_cli_verify_machine_schema(ferm_cfg, capsys):
    code = cli.run(["--format", "machine", "verify", "dong", ferm_cfg, "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"suite", "id", "expected", "computed", "pass", "status"}
        assert record["pass"] is True


def test_cli_verify_unknown_suite(ferm_cfg, capsys):
    assert cli.run(["verify", "nonsense"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "validation error: unknown suite 'nonsense' (dong, locfun, presentation, boson-fermion)\n"


def test_cli_embed_machine_states(ferm_cfg, free2_cfg, capsys):
    code = cli.run(["--format", "machine", "embed", ferm_cfg, "a(-2)a(-1)vac"])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["result"] == "v[2a]"
    assert record["states"] == [{"coeff": "1", "heis": [], "charge": [2]}]
    # integral and fractional coefficients of one image, read off its terms state by state
    assert cli.run(["--format", "machine", "embed", free2_cfg, "a(1)b(-3)vac"]) == 0
    assert capsys.readouterr().out == EMBED_FREE2_RECORD + "\n"


EMBED_FREE2_RECORD = (
    '{"command": "embed", "result": "3/2 * a(-1)a(-1) v[a+b] + 2 * b(-1)a(-1) v[a+b] + 1/2 * b(-1)b(-1) v[a+b]'
    ' + 3/2 * a(-2) v[a+b] + 1/2 * b(-2) v[a+b]", "states": [{"charge": [1, 1], "coeff": "3/2", "heis": [["a", 1],'
    ' ["a", 1]]}, {"charge": [1, 1], "coeff": "2", "heis": [["a", 1], ["b", 1]]}, {"charge": [1, 1], "coeff":'
    ' "1/2", "heis": [["b", 1], ["b", 1]]}, {"charge": [1, 1], "coeff": "3/2", "heis": [["a", 2]]},'
    ' {"charge": [1, 1], "coeff": "1/2", "heis": [["b", 2]]}]}'
)


def test_suite_failure_exit_code(capsys):
    from types import SimpleNamespace
    from vertexalg.suites import SuiteReport

    report = SuiteReport("demo")
    report.add("broken", 1, 2, False)
    args = SimpleNamespace(format="text")
    assert cli._emit_report(args, report) == 3
    assert "FAIL" in capsys.readouterr().out


def test_cli_verify_boson_fermion_small(capsys):
    assert cli.run(["verify", "boson-fermion", "2", "2"]) == 0


def test_cli_locfun_rejects_negative(ferm_cfg, capsys):
    assert cli.run(["locfun", ferm_cfg, "2"]) == 2


def test_cli_dong_command(tmp_path, capsys):
    cfg = tmp_path / "two.cfg"
    cfg.write_text('{"generators": ["a", "b"], "locality": [[1, -1], [-1, 2]]}')
    assert cli.run(["dong", str(cfg), "2"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out


@pytest.fixture
def free2_cfg(tmp_path):
    path = tmp_path / "free2.cfg"
    path.write_text('{"generators": ["a", "b"], "locality": [[2, 2], [2, 2]]}')
    return str(path)


def test_cli_positionals_with_leading_dash(free2_cfg, capsys):
    from vertexalg.basis import dim_component
    from vertexalg.words import product

    assert cli.run(["dim", free2_cfg, "-a+2b", "0..6"]) == 0
    want = ",".join(str(dim_component(SIG_FREE2, (-1, 2), d)) for d in range(7))
    assert capsys.readouterr().out == want + "\n"
    assert cli.run(["basis", free2_cfg, "-a", "0"]) == 0
    assert capsys.readouterr().out == ""
    assert cli.run(["--format", "machine", "product", free2_cfg, "-a(-1)vac", "0", "b(-1)vac"]) == 0
    left = parse_element(SIG_FREE2, "-a(-1)vac")
    right = parse_element(SIG_FREE2, "b(-1)vac")
    record = json.loads(capsys.readouterr().out)
    assert record["result"] == format_element(SIG_FREE2, product(SIG_FREE2, left, 0, right))
    assert record["result"] != "0"


def test_cli_non_integer_params(free2_cfg, capsys):
    cases = (
        (["verify", "dong", free2_cfg, "x"], "k_max must be an integer, got 'x'"),
        (["dong", free2_cfg, "1.5"], "k_max must be an integer, got '1.5'"),
        (["verify", "locfun", free2_cfg, "2", "y"], "length must be an integer, got 'y'"),
        (["verify", "boson-fermion", "z"], "k_max must be an integer, got 'z'"),
        (["verify", "boson-fermion", "2", "w"], "d_max must be an integer, got 'w'"),
        (["dim", free2_cfg, "a", "0..x"], "deg2 must be an integer, got 'x'"),
    )
    for argv, message in cases:
        assert cli.run(argv) == 2
        assert capsys.readouterr().err.strip() == f"validation error: {message}"


def test_cli_out_of_range_params(free2_cfg, capsys):
    cases = (
        (["verify", "locfun", free2_cfg, "0"], "length must be at least 1, got 0"),
        (["verify", "locfun", free2_cfg, "2", "-1"], "length must be at least 1, got -1"),
        (["verify", "dong", free2_cfg, "-1"], "k_max must be at least 0, got -1"),
        (["dong", free2_cfg, "-3"], "k_max must be at least 0, got -3"),
        (["verify", "boson-fermion", "0"], "k_max must be at least 1, got 0"),
        (["verify", "boson-fermion", "-1", "-1"], "k_max must be at least 1, got -1"),
        (["verify", "boson-fermion", "2", "-1"], "d_max must be at least 0, got -1"),
        (["dim", free2_cfg, "a", "5..2"], "deg2 range '5..2' is empty"),
        # integers that argparse used to read: the same message as every other integer
        (["basis", free2_cfg, "a", "x"], "deg2 must be an integer, got 'x'"),
        (["product", free2_cfg, "a(-1)vac", "y", "a(-1)vac"], "mode must be an integer, got 'y'"),
        # forms that int() reads but the grammar's integer rule does not
        (["basis", free2_cfg, "2a", "1_0"], "deg2 must be an integer, got '1_0'"),
        (["basis", free2_cfg, "2a", "+10"], "deg2 must be an integer, got '+10'"),
        (["basis", free2_cfg, "2a", " +10"], "deg2 must be an integer, got ' +10'"),
        (["dim", free2_cfg, "2a", "0..1_0"], "deg2 must be an integer, got '1_0'"),
        (["product", free2_cfg, "a(-1)vac", "+1", "a(-1)vac"], "mode must be an integer, got '+1'"),
        (["verify", "dong", free2_cfg, "1_0"], "k_max must be an integer, got '1_0'"),
        # a parameter beyond those a suite reads
        (["verify", "dong", free2_cfg, "4", "9"], "verify dong reads at most config, k_max; got 3 parameters"),
        (["dong", free2_cfg, "4", "9"], "verify dong reads at most config, k_max; got 3 parameters"),
        (["verify", "boson-fermion", "1", "0", "7"], "verify boson-fermion reads at most k_max, d_max; got 3 parameters"),
        (["verify", "presentation", free2_cfg, "x"], "verify presentation reads at most config; got 2 parameters"),
        # a suite that reads a configuration file, given none
        (["verify", "dong"], "verify dong needs a configuration file"),
        (["dong"], "verify dong needs a configuration file"),
        (["verify", "locfun"], "verify locfun needs a configuration file"),
        (["locfun"], "verify locfun needs a configuration file"),
        (["verify", "presentation"], "verify presentation needs a lattice configuration file"),
    )
    for argv, message in cases:
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"validation error: {message}\n"


def test_cli_presentation_lattice_config(tmp_path, capsys):
    cfg = tmp_path / "z.cfg"
    cfg.write_text('{"generators": ["a"], "gram": [[1]]}')
    assert cli.run(["verify", "presentation", str(cfg)]) == 0
    assert "result: PASS" in capsys.readouterr().out


# `vertexalg -h` and every subcommand's `-h`, at 80 columns
HELP_TEXT = {
    (): (
        "usage: vertexalg [-h] [--format {text,machine}]\n"
        "                 {normal-form,basis,dim,product,embed,dong,locfun,verify} ...\n"
        "\n"
        "Exact calculator for free and lattice vertex algebras.\n"
        "\n"
        "positional arguments:\n"
        "  {normal-form,basis,dim,product,embed,dong,locfun,verify}\n"
        "    normal-form         reduce an element onto the basis\n"
        "    basis               list basic words of a component\n"
        "    dim                 dimensions over a doubled-degree range\n"
        "    product             product of two elements\n"
        "    embed               image in the lattice Fock space\n"
        "    dong                locality order closed form vs brute force (same as\n"
        "                        verify dong)\n"
        "    locfun              locality function of the conformal algebra (same as\n"
        "                        verify locfun)\n"
        "    verify              run a verification suite\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {text,machine}\n"
        "                        text output or one JSON record per result line\n"
    ),
    ("normal-form",): (
        "usage: vertexalg normal-form [-h] config expr\n"
        "\n"
        "positional arguments:\n"
        "  config\n"
        "  expr\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
    ),
    ("basis",): (
        "usage: vertexalg basis [-h] config weight deg2\n"
        "\n"
        "positional arguments:\n"
        "  config\n"
        "  weight\n"
        "  deg2\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
    ),
    ("dim",): (
        "usage: vertexalg dim [-h] config weight range\n"
        "\n"
        "positional arguments:\n"
        "  config\n"
        "  weight\n"
        "  range       deg2 range, e.g. 4..12\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
    ),
    ("product",): (
        "usage: vertexalg product [-h] config left mode right\n"
        "\n"
        "positional arguments:\n"
        "  config\n"
        "  left\n"
        "  mode\n"
        "  right\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
    ),
    ("embed",): (
        "usage: vertexalg embed [-h] config expr\n"
        "\n"
        "positional arguments:\n"
        "  config\n"
        "  expr\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
    ),
    ("dong",): (
        "usage: vertexalg dong [-h] [params ...]\n"
        "\n"
        "positional arguments:\n"
        "  params\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
    ),
    ("locfun",): (
        "usage: vertexalg locfun [-h] [params ...]\n"
        "\n"
        "positional arguments:\n"
        "  params\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
    ),
    ("verify",): (
        "usage: vertexalg verify [-h] suite [params ...]\n"
        "\n"
        "positional arguments:\n"
        "  suite\n"
        "  params\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
    ),
}


@pytest.mark.parametrize("command", list(HELP_TEXT), ids=lambda c: " ".join(c) or "main")
def test_cli_help_text(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        cli.run([*command, "-h"])
    assert stop.value.code == 0
    assert capsys.readouterr() == (HELP_TEXT[command], "")


def test_cli_literal_double_dash(ferm_cfg, capsys):
    # every literal `--` after the subcommand is a positional argument like any
    # other, whatever argparse's own reading of `--` in this Python version;
    # one before the subcommand ends the options
    assert cli.run(["--", "dim", ferm_cfg, "2a", "4..6"]) == 0
    assert capsys.readouterr() == ("1,0,1\n", "")
    # argparse's message for an unknown subcommand, as this Python version words it
    with pytest.raises(SystemExit):
        cli.run(["nosuch"])
    unknown = capsys.readouterr().err.splitlines()[-1]
    assert "argument command: invalid choice: 'nosuch'" in unknown
    cases = (
        # what follows a leading `--` is the subcommand, even when it begins with `-`
        (["--", "-h"], unknown.replace("'nosuch'", "'-h'") + "\n"),
        (["--", "--format", "text", "dim", ferm_cfg, "2a", "4..6"], unknown.replace("'nosuch'", "'--format'") + "\n"),
        (["dim", ferm_cfg, "2a", "--"], "validation error: deg2 must be an integer, got '--'\n"),
        (["--format", "machine", "--", "dim", ferm_cfg, "2a", "--"], "validation error: deg2 must be an integer, got '--'\n"),
        (
            ["verify", "--", "dong", ferm_cfg, "--"],
            "validation error: unknown suite '--' (dong, locfun, presentation, boson-fermion)\n",
        ),
        # the first `--` is the configuration, and the second one is left over
        (["dim", "--", ferm_cfg, "2a", "--"], "vertexalg: error: unrecognized arguments: --\n"),
        (["normal-form", "--", ferm_cfg, "--"], "vertexalg: error: unrecognized arguments: --\n"),
    )
    for argv, message in cases:
        try:
            code = cli.run(argv)
        except SystemExit as stop:  # argparse
            code = stop.code
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert captured.err.endswith(message), argv
        assert "Traceback" not in captured.err


# The fuzzed texts are drawn from the grammar's characters plus `vac`, two
# letters with a mode (so that more texts parse), two non-decimal digits
# (superscript two, one half), an Arabic-Indic digit, a letter outside
# ASCII, `_` and a no-break space.
FUZZ_TOKENS = (
    "a", "b", "vac", "a(-1)", "b(-2)", "(", ")", "[", "]", "+", "-", "*", "/", " ", "0", "1", "2",
    "\u00b2", "\u0661", "\u00bd", "\u00e9", "_", "\u00a0",
)
FUZZ_INTEGERS = ("-2", "0", "3", "x", "\u00b2")
FUZZ_CONFIGS = {
    "ferm": '{"generators": ["a"], "locality": [[-1]]}',
    "free2": '{"generators": ["a", "b"], "locality": [[2, 2], [2, 2]]}',
    "neg": '{"generators": ["a", "b"], "locality": [[-2, 1], [1, 0]]}',
}


def _join_tokens(tokens):
    # a space between two digit tokens keeps every integer one digit long: a
    # long mode such as a(-222) is a question of cost, not of the front end
    text = ""
    for tok in tokens:
        if text[-1:].isdecimal() and tok[0].isdecimal():
            text += " "
        text += tok
    return text


_fuzz_texts = st.lists(st.sampled_from(FUZZ_TOKENS), max_size=12).map(_join_tokens)
_fuzz_commands = st.one_of(
    st.tuples(st.just("normal-form"), _fuzz_texts),
    st.tuples(st.just("embed"), _fuzz_texts),
    st.tuples(st.just("product"), _fuzz_texts, st.sampled_from(FUZZ_INTEGERS), _fuzz_texts),
    st.tuples(st.just("basis"), _fuzz_texts, st.sampled_from(FUZZ_INTEGERS)),
    st.tuples(st.just("dim"), _fuzz_texts, st.just("0..6")),
)


@pytest.fixture(scope="module")
def fuzz_cfgs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, doc in FUZZ_CONFIGS.items():
        (root / f"{name}.cfg").write_text(doc)
    return {name: str(root / f"{name}.cfg") for name in FUZZ_CONFIGS}


@settings(max_examples=400, derandomize=True, deadline=None)
@given(command=_fuzz_commands, config=st.sampled_from(sorted(FUZZ_CONFIGS)))
@example(command=("normal-form", "a(\u00b2)vac"), config="ferm")
@example(command=("basis", "\u00b2a", "4"), config="ferm")
def test_cli_fuzz_expression_commands(fuzz_cfgs, command, config):
    # every input gets an answer or a documented exit code, never Python's own message
    name, *params = command
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.run([name, fuzz_cfgs[config], *params])
        except SystemExit as stop:  # argparse
            code = stop.code
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    assert "invalid literal" not in err.getvalue()


# Integer arguments fuzzed against the grammar: texts of up to six characters
# from the decimal digits, the signs, `_`, `.`, a space, a no-break space,
# two non-decimal digits (superscript two, one half) and an Arabic-Indic
# digit.  A text with `..` is a `dim` range, not one integer, so it is left
# out.
_integer_texts = st.text(alphabet="0123456789-+_.  ²١½", max_size=6).filter(lambda text: ".." not in text)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(text=_integer_texts)
@example(text="1_0")
@example(text=" +10")
@example(text="- 10")
@example(text="--")
def test_cli_fuzz_integer_arguments(fuzz_cfgs, text):
    # an integer argument reads exactly as a mode does in an expression
    try:
        expr = parse_expr(SIG_FERM, f"a({text})vac")
    except ParseError:
        expr = None
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(["dim", fuzz_cfgs["ferm"], "2a", text])
    assert "Traceback" not in err.getvalue()
    if expr is None:
        assert code == 2
        assert (out.getvalue(), err.getvalue()) == ("", f"validation error: deg2 must be an integer, got {text!r}\n")
    else:
        assert code == 0
        assert (out.getvalue(), err.getvalue()) == (f"{dim_component(SIG_FERM, (2,), expr.mode)}\n", "")
