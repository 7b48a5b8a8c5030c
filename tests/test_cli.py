import ast
import hashlib
import inspect
import itertools
import json
import os
import re
import resource
import subprocess
import sys
import time

import pytest

import qgha
import qgha.structure
from qgha import Poly, errors
from qgha.cli import _read_argv, _UsageError, build_parser, main, run

from conftest import child_env
from make_digests import CORPUS_DIRS, TESTS


def write_algebra(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.fixture
def q1_h2_h(tmp_path):
    return write_algebra(
        tmp_path,
        "a.json",
        {"field": {"type": "Q"}, "q": "1", "f": ["0", "0", "1"], "g": ["0", "1"]},
    )


@pytest.fixture
def q2_h2_h(tmp_path):
    return write_algebra(
        tmp_path,
        "b.json",
        {"field": {"type": "Q"}, "q": "2", "f": ["0", "0", "1"], "g": ["0", "1"]},
    )


@pytest.fixture
def linear(tmp_path):
    return write_algebra(
        tmp_path,
        "lin.json",
        {"field": {"type": "Q"}, "q": "1", "f": ["0", "1"], "g": ["0", "1"]},
    )


def test_analyze(q1_h2_h):
    result = run(["analyze", q1_h2_h])
    assert result.exit_code == 0
    assert result.payload == (
        "domain: true (q != 0 and deg f >= 1)\n"
        "noetherian: false (deg f != 1)\n"
        "gdua: false\n"
        "center: undetermined (q has finite order but sigma(a) - q*a = g"
        " has no polynomial solution)\n"
    )


def test_analyze_high_degree_f_is_fast(tmp_path):
    # f = h^11 + h: the depth-5 witness would compose to degree 11^6
    path = write_algebra(
        tmp_path,
        "h11.json",
        {"field": {"type": "Q"}, "q": "2", "f": ["0", "1"] + ["0"] * 9 + ["1"], "g": ["0", "1"]},
    )
    start = time.perf_counter()
    result = run(["analyze", path])
    assert time.perf_counter() - start < 5.0
    assert result.exit_code == 0
    assert "noetherian: false (deg f != 1)" in result.payload


def test_analyze_asks_for_no_witness(tmp_path):
    # f - h = h^2 - h - 10^20: the Noetherian witness would look for a fixed
    # point among the divisors of 10^20, by trial division up to 10^10
    path = write_algebra(
        tmp_path,
        "big_root.json",
        {"field": {"type": "Q"}, "q": "2", "f": [str(-(10**20)), "0", "1"], "g": ["0", "1"]},
    )
    proc = subprocess.run(
        [sys.executable, "-m", "qgha", "analyze", path],
        capture_output=True, text=True, env=child_env(),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_CPU, (3, 3)),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "noetherian: false (deg f != 1)" in proc.stdout


def test_analyze_scalars_only_center(q2_h2_h):
    result = run(["analyze", q2_h2_h])
    assert result.exit_code == 0
    assert "center: scalars only (q is not a root of unity)" in result.payload


def test_mul_and_oracle_flag(q2_h2_h):
    fast = run(["mul", q2_h2_h, "y", "x"])
    assert fast.exit_code == 0
    assert fast.payload == "2*x*y + h\n"
    oracle = run(["mul", q2_h2_h, "y", "x", "--oracle"])
    assert oracle.payload == fast.payload


def test_deg(q2_h2_h):
    assert run(["deg", q2_h2_h, "x^2*h*y + h^3"]).payload == "(2, 1)\n"
    assert run(["deg", q2_h2_h, "0"]).payload == "(-inf, -inf)\n"


def test_arguments_starting_with_a_dash_are_values(q2_h2_h, capsys):
    assert run(["deg", q2_h2_h, "-3*x"]).payload == "(1, 0)\n"
    assert run(["mul", q2_h2_h, "-2", "-1/2*y"]).payload == "y\n"
    result = run(["convert", "--from-gdua", "0,0,1", "1", "1", "-5/2"])
    assert result.exit_code == 0
    assert json.loads(result.payload)["f"] == ["5/2", "1"]  # f = r*h - gamma
    # -h and the --options keep their meaning
    assert run(["deg", "-h"]).exit_code == 0
    assert capsys.readouterr().out.startswith("usage: qgha deg")
    assert run(["deg", q2_h2_h, "--bogus"]).exit_code == 1


def test_unary_minus_on_letters_and_parentheses(q2_h2_h):
    for expr in ("-x", "-(x+h)", "x*-h"):
        assert run(["deg", q2_h2_h, expr]).payload == "(1, 0)\n"
    # '-' binds to its atom as a scalar's sign does, and -a is -1*a
    for negated, spelled in [
        ("-x", "-1*x"),
        ("-(x+h)", "-1*(x+h)"),
        ("x*-h", "x*(-1*h)"),
        ("-x^2", "x^2"),
        ("-(x+y)^2", "(x+y)^2"),
        ("y - -x", "y + x"),
        ("-(-y*h)", "y*h"),
    ]:
        want = run(["mul", q2_h2_h, spelled, "h"]).payload
        assert run(["mul", q2_h2_h, negated, "h"]).payload == want
    assert run(["mul", q2_h2_h, "-x", "-y"]).payload == run(["mul", q2_h2_h, "x", "y"]).payload
    # one sign per atom, as for scalars: a second '-' is a parse error at the first
    for bad, position in [("- -x", 0), ("x*--y", 2), ("y+-(--3)", 4), ("x*-", 2)]:
        result = run(["deg", q2_h2_h, bad])
        assert result.exit_code == 2
        assert result.error.endswith(f"(at position {position})")


def test_iota(q2_h2_h):
    assert run(["iota", q2_h2_h, "x^2*h*y"]).payload == "x*h*y^2\n"


def test_iso_witness_and_negative(tmp_path, q2_h2_h):
    shifted = write_algebra(
        tmp_path,
        "shifted.json",
        {
            "field": {"type": "Q"},
            "q": "2",
            "f": ["2", "-2", "1"],  # f(h-1)+1
            "g": ["-1", "1"],  # g(h-1)
        },
    )
    result = run(["iso", q2_h2_h, shifted])
    assert result.exit_code == 0
    witness = json.loads(result.payload)
    assert witness == {
        "u": "1",
        "v": "1",
        "c": "1",
        "decomposition": {"alpha": "1", "lambda": "1", "lambda_mu": "1"},
    }
    other = write_algebra(
        tmp_path,
        "other.json",
        {"field": {"type": "Q"}, "q": "3", "f": ["0", "0", "1"], "g": ["0", "1"]},
    )
    assert run(["iso", q2_h2_h, other]).payload == "not isomorphic\n"


def test_iso_regime_exit_code(linear):
    result = run(["iso", linear, linear])
    assert result.exit_code == 3
    assert "q != 0 and deg f >= 2" in result.error


def test_aut(q2_h2_h):
    result = run(["aut", q2_h2_h])
    assert result.exit_code == 0
    data = json.loads(result.payload)
    assert data == {
        "abelian": True,
        "char_caveat": False,
        "finite_part": [{"a": "1", "b": "0"}],
        "regime": "g_nonzero",
        "torus_rank": 1,
    }


def test_center(tmp_path):
    path = write_algebra(
        tmp_path,
        "c.json",
        {"field": {"type": "Q"}, "q": "-1", "f": ["0", "0", "1"], "g": ["0", "1", "1"]},
    )
    result = run(["center", path])
    data = json.loads(result.payload)
    assert data["kind"] == "polynomial_in_z_ell"
    assert data["ell"] == 2
    assert data["a"] == ["0", "1"]
    assert data["z"] == "-1*x*y + h"


def test_gk_csv(linear):
    result = run(["gk", linear, "--max-n", "3"])
    assert result.exit_code == 0
    lines = result.payload.strip().split("\n")
    assert lines[0] == "n,dim,slope"
    assert lines[1] == "0,1,"
    assert lines[2] == "1,4,"
    assert lines[3].startswith("2,10,")
    assert lines[4].startswith("3,20,")


def test_noeth_witness(q1_h2_h):
    result = run(["noeth-witness", q1_h2_h, "--depth", "4"])
    data = json.loads(result.payload)
    assert data["beta"] == "0"
    assert data["depth"] == 4
    assert data["verified"] is True
    assert len(data["checks"]) == 5
    assert all(c["sigma_powers_divisible"] and c["h_not_divisible"] for c in data["checks"])


def test_noeth_witness_regime(linear):
    assert run(["noeth-witness", linear, "--depth", "3"]).exit_code == 3


def test_noeth_witness_depth_zero_is_usage_error(q1_h2_h):
    result = run(["noeth-witness", q1_h2_h, "--depth", "0"])
    assert result.exit_code == 1
    assert result.error == "usage error: argument --depth: must be at least 1, got 0"


def test_gk_negative_horizon_is_usage_error(q1_h2_h):
    result = run(["gk", q1_h2_h, "--max-n", "-1"])
    assert result.exit_code == 1
    assert result.error == "usage error: argument --max-n: must be at least 0, got -1"


@pytest.mark.parametrize(
    "option, value",
    [
        ("--max-n", "\u0663"),
        ("--max-n", "+3"),
        ("--depth", " 2"),
        ("--choice", "0_0"),
        ("--choice", "\u0660"),
    ],
)
def test_counts_take_ascii_digits_only(option, value, q1_h2_h):
    # int() would read each of these as a count
    command = {
        "--max-n": ["gk", q1_h2_h],
        "--depth": ["noeth-witness", q1_h2_h],
        "--choice": ["convert", "--from-downup", "0", "1", "0"],
    }[option]
    result = run([*command, option, value])
    assert (result.exit_code, result.payload) == (1, "")
    assert result.error == f"usage error: argument {option}: invalid int value: {value!r}"


def test_negative_choice_is_below_the_least_count():
    result = run(["convert", "--from-downup", "0", "1", "0", "--choice", "-1"])
    assert (result.exit_code, result.payload) == (1, "")
    assert result.error == "usage error: argument --choice: must be at least 0, got -1"


def test_noeth_witness_depth_beyond_bound(q1_h2_h):
    start = time.perf_counter()
    result = run(["noeth-witness", q1_h2_h, "--depth", "100000"])
    assert time.perf_counter() - start < 5.0
    assert result.exit_code == 4
    assert result.payload == ""
    assert result.error == "error: witness depth of size 100000 exceeds capacity bound 10000"


def test_gk_n8_dims_within_wall_bound(tmp_path):
    path = write_algebra(
        tmp_path,
        "q2.json",
        {"field": {"type": "Q"}, "q": "2", "f": ["1", "0", "1"], "g": ["0", "0", "0", "1"]},
    )
    start = time.perf_counter()
    result = run(["gk", path, "--max-n", "8"])
    assert time.perf_counter() - start < 10.0
    assert result.exit_code == 0
    dims = [line.split(",")[1] for line in result.payload.splitlines()[1:]]
    assert dims == "1,4,13,33,76,161,323,622,1160".split(",")


def test_convert_from_downup(tmp_path):
    result = run(["convert", "--from-downup", "2", "-1", "0"])
    assert result.exit_code == 0
    assert json.loads(result.payload) == {
        "field": {"type": "Q"},
        "q": "1",
        "f": ["0", "1"],
        "g": ["0", "1"],
    }
    assert result.note == ""


def test_convert_from_downup_orderings():
    first = run(["convert", "--from-downup", "0", "1", "0"])
    assert json.loads(first.payload)["q"] == "1"
    assert json.loads(first.payload)["f"] == ["0", "-1"]
    assert "two root orderings" in first.note
    second = run(["convert", "--from-downup", "0", "1", "0", "--choice", "1"])
    assert json.loads(second.payload)["q"] == "-1"
    assert json.loads(second.payload)["f"] == ["0", "1"]


def test_convert_from_downup_non_split():
    result = run(["convert", "--from-downup", "0", "-1", "0"])
    assert result.exit_code == 3
    assert "no roots" in result.error


def test_convert_gdua_round_trip(tmp_path):
    result = run(["convert", "--from-gdua", "0,0,1", "1", "1", "0"])
    assert result.exit_code == 0
    data = json.loads(result.payload)
    assert data == {
        "field": {"type": "Q"},
        "q": "1",
        "f": ["0", "1"],
        "g": ["0", "0", "-1"],
    }
    path = write_algebra(tmp_path, "g.json", data)
    back = run(["convert", "--to-gdua", path])
    assert json.loads(back.payload) == {"v": ["0", "0", "1"], "r": "1", "s": "1", "gamma": "0"}


def test_convert_to_gdua_wrong_degree(q2_h2_h):
    result = run(["convert", "--to-gdua", q2_h2_h])
    assert result.exit_code == 3
    assert "deg f" in result.error


def test_convert_over_prime_field():
    result = run(["convert", "--from-gdua", "0,1", "3", "2", "6", "--field", "Fp:7"])
    assert result.exit_code == 0
    data = json.loads(result.payload)
    assert data["field"] == {"type": "Fp", "p": 7}
    assert data["f"] == ["1", "3"]  # 3h - 6 = 3h + 1 mod 7
    assert data["g"] == ["0", "6"]  # -h mod 7


def test_exit_code_usage():
    assert run(["frobnicate"]).exit_code == 1
    assert run([]).exit_code == 1
    assert run(["mul"]).exit_code == 1
    assert run(["convert", "--from-downup", "1", "2", "3", "--field", "R"]).exit_code == 1


@pytest.mark.parametrize("spec", ["Fp:\u0667", "Fp:1_1", "Fp: 7", "Fp:+7", "Fp:7\n", "Fp:"])
def test_field_flag_takes_ascii_digits_only(spec):
    # int() would read each of these as a prime
    result = run(["convert", "--from-downup", "1", "2", "3", "--field", spec])
    assert result.exit_code == 1
    assert result.error == f"usage error: malformed field spec {spec!r}"


def test_exit_code_parse(tmp_path, q2_h2_h):
    assert run(["analyze", str(tmp_path / "missing.json")]).exit_code == 2
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{", encoding="utf-8")
    assert run(["analyze", str(bad_json)]).exit_code == 2
    missing_f = write_algebra(
        tmp_path, "nof.json", {"field": {"type": "Q"}, "q": "1", "g": ["0", "1"]}
    )
    assert run(["analyze", missing_f]).exit_code == 2
    not_prime = write_algebra(
        tmp_path,
        "p6.json",
        {"field": {"type": "Fp", "p": 6}, "q": "1", "f": ["0", "1"], "g": ["0", "1"]},
    )
    assert run(["analyze", not_prime]).exit_code == 2
    parse_err = run(["mul", q2_h2_h, "x**2", "y"])
    assert parse_err.exit_code == 2
    assert "position 2" in parse_err.error


_VALID_ALGEBRA = {"field": {"type": "Q"}, "q": "1", "f": ["0", "1"], "g": ["0", "1"]}


@pytest.mark.parametrize(
    "change, message",
    [
        ({"q": 1}, "scalar must be a string, got 1"),
        ({"f": "0 1"}, "polynomial must be a list of scalar strings, got '0 1'"),
        ({"field": "Q"}, "field descriptor must be an object with a type tag"),
        ({"field": {"p": 7}}, "field descriptor must be an object with a type tag"),
        ({"field": {"type": "Q", "p": 7}}, "rational field descriptor takes no further keys"),
        ({"field": {"type": "Fp"}}, "prime field descriptor needs an integer p"),
        ({"field": {"type": "Fp", "p": "7"}}, "prime field descriptor needs an integer p"),
        ({"field": {"type": "R"}}, "unknown field type 'R'"),
        # scalars are whole strings of ASCII digits: no final newline, no
        # digits of other scripts
        ({"q": "2\n"}, "malformed rational scalar '2\\n'"),
        ({"q": "\u0662"}, "malformed rational scalar '\u0662'"),
        ({"f": ["0", "1/2\n"]}, "malformed rational scalar '1/2\\n'"),
        ({"field": {"type": "Fp", "p": 7}, "q": "3\n"}, "malformed residue '3\\n'"),
        ({"field": {"type": "Fp", "p": 7}, "q": "\u0663"}, "malformed residue '\u0663'"),
    ],
)
def test_schema_rejections(tmp_path, change, message):
    data = {**_VALID_ALGEBRA, **change}
    with pytest.raises(errors.SchemaError) as info:
        qgha.algebra_from_dict(data)
    assert str(info.value) == message
    result = run(["analyze", write_algebra(tmp_path, "bad.json", data)])
    assert result.exit_code == 2
    assert result.error == f"error: {message}"


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="int() converts any number of digits")
def test_oversized_integer_literals_are_input_errors(tmp_path, q1_h2_h):
    digits = "9" * (_DIGIT_LIMIT + 1)
    big_q = write_algebra(
        tmp_path,
        "q.json",
        {"field": {"type": "Q"}, "q": digits, "f": ["0", "0", "1"], "g": ["0", "1"]},
    )
    big_p = tmp_path / "p.json"
    big_p.write_text(
        '{"field": {"type": "Fp", "p": %s}, "q": "1", "f": ["0", "1"], "g": ["1"]}'
        % digits,
        encoding="utf-8",
    )
    for argv, message in (
        (["deg", q1_h2_h, digits], "too long (at position 0)"),  # exprparse
        (["deg", q1_h2_h, "x^" + digits], "too long (at position 2)"),
        (["analyze", big_q], "too long"),  # serial.scalar_from_text
        (["analyze", str(big_p)], "invalid JSON"),  # serial.load_algebra
    ):
        result = run(argv)
        assert (result.exit_code, result.payload) == (2, ""), argv[:2]
        assert message in result.error


def test_answers_past_the_digit_limit_print(tmp_path):
    # each literal has 2000 digits; x^3 composes f three times, so the
    # answer's coefficients pass CPython's 4300-digit str() limit (3.11+)
    path = write_algebra(
        tmp_path,
        "big.json",
        {"field": {"type": "Q"}, "q": "2", "f": [str(10**1999), "0", "1"], "g": ["0", "1"]},
    )
    result = run(["mul", path, "h", "x^3"])
    assert (result.exit_code, result.error) == (0, "")
    assert max(len(digits) for digits in re.findall(r"\d+", result.payload)) > 4300
    # only printing lifts the limit, and it is back afterwards
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == _DIGIT_LIMIT


def test_stray_value_error_is_an_internal_error(q1_h2_h, monkeypatch):
    def fail(path):
        raise ValueError("boom")

    monkeypatch.setattr(qgha.cli, "load_algebra", fail)
    result = run(["analyze", q1_h2_h])
    assert result.exit_code == errors.InternalError.exit_code == 5
    assert result.error == "error: internal error: boom"


def test_exit_code_capacity(q1_h2_h, set_capacity):
    set_capacity(8)
    assert run(["gk", q1_h2_h, "--max-n", "20"]).exit_code == 4


@pytest.mark.parametrize(
    "value, argv, error",
    [
        ("8", ["gk", "@", "--max-n", "20"], "growth horizon of size 20 exceeds capacity bound 8"),
        # anything but a whole ASCII count above 0 keeps the default bounds
        *(
            (value, ["deg", "@", "(x+y+h)^9"], "expression expansion of size 19683 exceeds capacity bound 10000")
            for value in ["abc", "0", "\u0663", " 8", "1_0", "+8", "8\n", "9" * 5000]
        ),
    ],
    ids=["8", "abc", "0", "arabic-indic-3", "space-8", "1_0", "plus-8", "8-newline", "5000-digits"],
)
def test_capacity_env_read_at_start_up(q1_h2_h, value, argv, error):
    env = dict(child_env(), QGHA_CAPACITY=value)
    argv = [q1_h2_h if a == "@" else a for a in argv]
    # unbounded, the "8" row's gk runs for many minutes: fail instead of hanging
    proc = subprocess.run(
        [sys.executable, "-m", "qgha", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == f"error: {error}\n"


def test_importing_qgha_ignores_the_capacity_variable():
    env = dict(child_env(), QGHA_CAPACITY="8")
    probe = "import qgha.capacity as c; print(c.DEGREE_CAP, c.SEARCH_CAP)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, f"{10**6} {10**4}\n")


def test_main_without_the_variable_keeps_the_bounds_set(q1_h2_h, set_capacity, capsys):
    set_capacity(8)
    assert main(["gk", q1_h2_h, "--max-n", "20"]) == 4
    assert capsys.readouterr().err == "error: growth horizon of size 20 exceeds capacity bound 8\n"
    assert (qgha.capacity.DEGREE_CAP, qgha.capacity.SEARCH_CAP) == (8, 8)


def test_exit_code_capacity_message(q1_h2_h):
    result = run(["deg", q1_h2_h, "(x+y+h)^9"])
    assert result.exit_code == 4
    assert result.payload == ""
    assert result.error == (
        "error: expression expansion of size 19683 exceeds capacity bound 10000"
    )


_ERROR_CLASSES = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.QghaError) and cls is not errors.QghaError
]
_PARSE_EXIT = {
    "NotPrime", "SchemaError", "ParseError", "LexError", "ExprSyntaxError", "InvalidArgument"
}


@pytest.mark.parametrize("cls", _ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_exit_code_of_each_error(cls, q1_h2_h, monkeypatch):
    if cls.__name__ in _PARSE_EXIT:
        expected = 2
    elif cls is errors.CapacityExceeded:
        expected = 4
    elif cls is errors.InternalError:
        expected = 5
    else:
        expected = 3
    exc = cls("boom", 0) if issubclass(cls, errors.ParseError) else cls("boom")

    def fail(path):
        raise exc

    monkeypatch.setattr(qgha.cli, "load_algebra", fail)
    result = run(["analyze", q1_h2_h])
    assert result.exit_code == cls.exit_code == expected
    assert result.error == f"error: {exc}"


def test_failed_center_certificate_is_an_internal_error(tmp_path, monkeypatch, capsys):
    path = write_algebra(
        tmp_path,
        "c.json",
        {"field": {"type": "Q"}, "q": "-1", "f": ["0", "0", "1"], "g": ["0", "1", "1"]},
    )
    solve = qgha.structure.solve_sigma_q

    def wrong_solution(algebra):
        # a + 1 breaks sigma(a) - q*a = g when q != 1, so Z fails its check
        return solve(algebra) + Poly.one(algebra.field)

    monkeypatch.setattr(qgha.structure, "solve_sigma_q", wrong_solution)
    code = main(["center", path])
    captured = capsys.readouterr()
    assert code == errors.InternalError.exit_code == 5
    assert captured.out == ""
    assert captured.err == (
        "error: internal error: Z failed the twisted commutation check\n"
    )


def test_outputs_byte_identical(q1_h2_h, q2_h2_h):
    for argv in (
        ["analyze", q1_h2_h],
        ["mul", q2_h2_h, "y*x", "y*x + h"],
        ["aut", q2_h2_h],
        ["gk", q1_h2_h, "--max-n", "3"],
        ["noeth-witness", q1_h2_h, "--depth", "3"],
    ):
        first = run(argv)
        second = run(argv)
        assert first == second
        assert first.exit_code == 0


def test_main_writes_streams(q2_h2_h, capsys):
    code = main(["mul", q2_h2_h, "y", "x"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "2*x*y + h\n"
    assert captured.err == ""
    code = main(["iso", q2_h2_h, q2_h2_h + ".missing"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_python_dash_m_matches_run(q1_h2_h):
    argv = ["analyze", q1_h2_h]
    proc = subprocess.run(
        [sys.executable, "-m", "qgha", *argv], capture_output=True, text=True, env=child_env()
    )
    expected = run(argv)
    assert proc.returncode == expected.exit_code == 0
    assert proc.stdout == expected.payload


def test_deep_nesting_is_an_input_error(q1_h2_h):
    # 2000 levels used to end in a RecursionError traceback and exit 1
    nested = "(" * 2000 + "x" + ")" * 2000
    proc = subprocess.run(
        [sys.executable, "-m", "qgha", "deg", q1_h2_h, nested],
        capture_output=True, text=True, env=child_env(),
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: more than 100 nested parentheses (at position 100)\n"
    start = time.perf_counter()
    result = run(["deg", q1_h2_h, "(" * 10**5 + "x" + ")" * 10**5])
    assert time.perf_counter() - start < 1.0
    assert (result.exit_code, result.payload) == (2, "")
    assert result.error == "error: more than 100 nested parentheses (at position 100)"


def test_deeply_nested_json_is_an_input_error(tmp_path):
    # 10^5 nested arrays used to end in a RecursionError traceback and exit 1
    for name, text in (("bare.json", "[" * 10**5), ("g.json", '{"g": ' + "[" * 10**5)):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        result = run(["analyze", str(path)])
        assert (result.exit_code, result.payload) == (2, "")
        assert result.error.startswith(f"error: invalid JSON in {path}: ")
    proc = subprocess.run(
        [sys.executable, "-m", "qgha", "analyze", str(path)],
        capture_output=True, text=True, env=child_env(),
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == result.error + "\n"


# Runs one subcommand through main() in a fresh interpreter, then prints the
# names of the loaded modules on a last line of its own.
_IMPORT_PROBE = (
    "import sys\n"
    "from qgha.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print('\\n' + ' '.join(sorted(sys.modules)))\n"
    "sys.exit(code)\n"
)
_NOT_FOR_EXPRESSIONS = {"qgha.classify", "qgha.structure", "qgha.rewrite"}
_NOT_FOR_STRUCTURE = {"qgha.classify", "qgha.exprparse", "qgha.rewrite"}
_NOT_FOR_CLASSIFY = {"qgha.structure", "qgha.exprparse", "qgha.rewrite"}


@pytest.mark.parametrize(
    "argv, needed, unused",
    [
        (["deg", "@q2", "x*y + h"], {"qgha.exprparse"}, _NOT_FOR_EXPRESSIONS),
        (["mul", "@q2", "y", "x"], {"qgha.exprparse"}, _NOT_FOR_EXPRESSIONS),
        (["iota", "@q2", "x*h"], {"qgha.exprparse"}, _NOT_FOR_EXPRESSIONS),
        (
            ["mul", "@q2", "y", "x", "--oracle"],
            {"qgha.exprparse", "qgha.rewrite"},
            {"qgha.classify", "qgha.structure"},
        ),
        (["analyze", "@q1"], {"qgha.structure"}, _NOT_FOR_STRUCTURE),
        (["center", "@q2"], {"qgha.structure"}, _NOT_FOR_STRUCTURE),
        (["gk", "@q1", "--max-n", "2"], {"qgha.structure"}, _NOT_FOR_STRUCTURE),
        (["noeth-witness", "@q1"], {"qgha.structure"}, _NOT_FOR_STRUCTURE),
        (["iso", "@q1", "@q2"], {"qgha.classify"}, _NOT_FOR_CLASSIFY),
        (["aut", "@q2"], {"qgha.classify"}, _NOT_FOR_CLASSIFY),
        (["convert", "--to-gdua", "@lin"], {"qgha.classify"}, _NOT_FOR_CLASSIFY),
        (["convert", "--from-downup", "2", "-1", "0"], {"qgha.classify"}, _NOT_FOR_CLASSIFY),
        (
            ["convert", "--from-gdua", "0,0,1", "1", "1", "5", "--field", "Fp:7"],
            {"qgha.classify"},
            _NOT_FOR_CLASSIFY,
        ),
    ],
    ids=[
        "deg", "mul", "iota", "mul-oracle", "analyze", "center", "gk", "noeth-witness",
        "iso", "aut", "convert-to-gdua", "convert-from-downup", "convert-from-gdua",
    ],
)
def test_subcommand_imports_only_its_modules(argv, needed, unused, q1_h2_h, q2_h2_h, linear):
    files = {"@q1": q1_h2_h, "@q2": q2_h2_h, "@lin": linear}
    argv = [files.get(a, a) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *argv],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert needed <= loaded
    # a well-formed call is read without argparse, which would load gettext and locale
    unused = unused | {"argparse", "gettext", "locale"}
    assert not loaded & unused, sorted(loaded & unused)
    assert "dataclasses" not in loaded


# -- argv that only argparse reads ------------------------------------------


def test_argparse_reads_abbreviations_and_inline_values(linear):
    want = run(["gk", linear, "--max-n", "3"])
    assert (want.exit_code, want.payload.count("\n")) == (0, 5)
    assert run(["gk", linear, "--max", "3"]) == want
    assert run(["gk", linear, "--max-n=3"]) == want


def test_double_dash_makes_a_dash_token_a_value(q2_h2_h):
    assert run(["deg", q2_h2_h, "--", "-x"]).payload == "(1, 0)\n"


def test_last_of_a_repeated_option_wins(q1_h2_h):
    result = run(["noeth-witness", q1_h2_h, "--depth", "3", "--depth", "4"])
    assert json.loads(result.payload)["depth"] == 4


_SUBCOMMANDS = (
    "analyze", "mul", "deg", "iota", "iso", "aut", "center", "gk", "noeth-witness", "convert"
)


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["convert", "--from", "2", "-1", "0"],
            "ambiguous option: --from could match --from-downup, --from-gdua",
        ),
        (
            ["convert", "--from-downup", "0", "1", "0", "--to-gdua", "a.json"],
            "argument --to-gdua: not allowed with argument --from-downup",
        ),
        (
            ["frobnicate"],
            "argument command: invalid choice: 'frobnicate' (choose from "
            + ", ".join(map(repr, _SUBCOMMANDS)) + ")",
        ),
    ],
    ids=["ambiguous", "exclusive", "invalid-choice"],
)
def test_usage_error_messages(argv, message):
    assert run(argv) == (1, "", "", f"usage error: {message}")


# sha256 of the -h text of qgha and of each subcommand, 80 columns wide
_HELP_SHA256 = {
    "": "795e9003e3a396d1a6526c907737ce6533aa1ee3806c0f64e5ca833b18722207",
    "analyze": "eeb46422a6a07e595d5408cbf9c4347880ddb3cd827259ea79cc4c76d7b9ed2e",
    "mul": "a18844f1f2874d7b18f4d8002c04a147a9821feee86972b29eb8674bce6eb690",
    "deg": "3ce39068290e8995fac1431b4b0c0244f59c87d94ee86bfb31bbe478e781c9b9",
    "iota": "82ca269f3f53c93e39004d259670aa4015ea3de2ed8fd14ef0fe2ee8fae3ed54",
    "iso": "05c724d643671c10cc10c837633534566b7b996d29192dc2f4044e6b28248437",
    "aut": "7b3df464f43edfafde8b261d9a3ea099a631e9756ed38003df2641d6cb9ba7f7",
    "center": "a6e5effa617acbac7c3cd8b246e2a661ad2deb35917b6535aa9eca363a3eecd9",
    "gk": "baa9b96e54e32f7576ebb01cacb3d1b238ce8dab3e74b2961d70f5384763cf9c",
    "noeth-witness": "b0865468a360bc987a1fc6127404f826cd9688664964b168d24eba6af67adfbc",
    "convert": "a9a43eb6786f6afc612a0fcca7adcd48adabce275bcfdd11510eb35f660a97a5",
}


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="recorded with Python 3.11; argparse lays out its help differently across releases",
)
@pytest.mark.parametrize("command", list(_HELP_SHA256), ids=lambda c: c or "qgha")
def test_help_texts_unchanged(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert run([command, "-h"] if command else ["-h"]) == (0, "", "", "")
    text = capsys.readouterr().out
    assert text.startswith(f"usage: qgha {command}".rstrip())
    assert hashlib.sha256(text.encode()).hexdigest() == _HELP_SHA256[command]


# -- the plain-argv reader against argparse ---------------------------------
# _read_argv takes an argv only where argparse takes it too, with the same
# namespace; every other argv is argparse's to read.

_VALUE_COUNTS = {
    "--oracle": 0, "--max-n": 1, "--depth": 1, "--from-downup": 3, "--from-gdua": 4,
    "--to-gdua": 1, "--field": 1, "--choice": 1,
}
_ABBREVIATIONS = {"--max-n": "--max", "--depth": "--dep", "--from-downup": "--from",
                  "--from-gdua": "--from"}


def _fixed_cli_argvs():
    with open(os.path.join(CORPUS_DIRS[1], "cli.json"), encoding="utf-8") as handle:
        return [entry["argv"] for entry in json.load(handle)["fixed"]]


def _recorded_argvs():
    """The argv of every digest, of every fixed cli-corpus entry, and of each
    argv list literal in this file (a file name for each element that is not
    a string)."""
    with open(os.path.join(TESTS, "digests.json"), encoding="utf-8") as handle:
        argvs = [entry["argv"] for entry in json.load(handle)]
    argvs += _fixed_cli_argvs()
    with open(__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in ast.walk(tree):
        if not isinstance(node, ast.List) or not node.elts:
            continue
        texts = [e.value if isinstance(e, ast.Constant) else "a.json" for e in node.elts]
        if texts[0] in _SUBCOMMANDS and all(isinstance(t, str) for t in texts):
            argvs.append(texts)
    return argvs


def _variants(argv):
    """argv, and argv respelled or broken in the ways only argparse reads."""
    yield argv
    options, positionals, i = [], [], 1
    while i < len(argv):
        count = _VALUE_COUNTS.get(argv[i])
        if count is None:
            positionals.append(i)
            i += 1
        else:
            options.append((i, count))
            i += 1 + count
    # the options before the positionals
    moved = [t for start, n in options for t in argv[start : start + 1 + n]]
    yield argv[:1] + moved + [argv[i] for i in positionals]
    for i, n in options:
        flag, values, rest = argv[i], argv[i + 1 : i + 1 + n], argv[i + 1 + n :]
        if n == 1:
            yield argv[:i] + [f"{flag}={values[0]}"] + rest
        if flag in _ABBREVIATIONS:
            yield argv[:i] + [_ABBREVIATIONS[flag]] + argv[i + 1 :]
        yield argv + [flag, *values]  # repeated
        yield argv[:i] + rest  # left out
        if n:
            yield argv[:i] + [flag, *values[:-1]] + rest  # one value too few
        yield argv[:i] + [flag, *values, "0"] + rest  # one value too many
    for i in positionals:
        yield argv[:i] + ["--", "-x"] + argv[i + 1 :]
        yield argv[:i] + ["--"] + argv[i:]
        yield argv[:i] + argv[i + 1 :]  # one positional too few
    yield argv + ["x"]  # one positional too many
    for i in range(1, len(argv) + 1):
        yield argv[:i] + ["-h"] + argv[i:]


def test_reader_never_disagrees_with_argparse():
    parser = build_parser()
    seen, accepted = set(), set()
    for base in _recorded_argvs():
        for argv in _variants(base):
            if tuple(argv) in seen:
                continue
            seen.add(tuple(argv))
            ns = _read_argv(argv)
            if ns is None:
                continue
            accepted.add(tuple(argv))
            try:
                want = parser.parse_args(argv)
            except (_UsageError, SystemExit):
                pytest.fail(f"argparse refuses an argv the reader takes: {argv}")
            assert vars(ns) == vars(want), argv
    # the benchmark's fixed calls all take the reader's path
    assert {tuple(argv) for argv in _fixed_cli_argvs()} <= accepted
