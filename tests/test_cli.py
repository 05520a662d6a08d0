import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import lcscalc
from lcscalc import cli, hodge, presets
from lcscalc.cecomplex import JacobiResult
from lcscalc.cli import main
from lcscalc.errors import ExprSyntaxError, InvalidMetric, LcsCalcError, UndeclaredParameter
from lcscalc.exterior import Form, form_str
from lcscalc.scalar import parse_scalar
from lcscalc.specfile import (
    algebra_to_text,
    parse_algebra_file,
    parse_algebra_text,
    parse_form_expr,
)

GOLDEN = Path(__file__).parent / "golden"

ACFM_FILE = """\
# four-dimensional solvable example, n = k = lambda = 1
generators alpha beta gamma eta
d alpha = -1 alpha^gamma
d beta = 1 beta^gamma
d eta = 1 alpha^beta
"""

ACFM_PARAM_FILE = """\
params n k lambda
generators alpha beta gamma eta
d alpha = -1*k alpha^gamma
d beta = k beta^gamma
d eta = n*lambda alpha^beta
"""

TORUS_FILE = "generators e1 e2 e3 e4\n"

BROKEN_FILE = """\
generators e1 e2 e3
d e1 = 1 e2^e3
d e2 = 1 e3^e1
d e3 = 1 e1^e2 + 1 e1^e3
"""


@pytest.fixture
def acfm_path(tmp_path):
    path = tmp_path / "acfm.alg"
    path.write_text(ACFM_FILE)
    return str(path)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def test_parse_rational_file():
    alg = parse_algebra_text(ACFM_FILE)
    assert alg.basis.names == ("alpha", "beta", "gamma", "eta")
    assert not alg.mode.is_param
    assert alg.check_d2().ok


def test_parse_param_file():
    alg = parse_algebra_text(ACFM_PARAM_FILE)
    assert alg.mode.symbols == ("n", "k", "lambda")
    k = alg.mode.symbol("k")
    assert alg.dgen[0] == (-k) * alg.basis.gen(0).wedge(alg.basis.gen(2))


def test_parse_tolerates_crlf_and_comments():
    text = "# c1\r\ngenerators a b\r\n\r\nd a = 1 a^b  # inline\r\n"
    alg = parse_algebra_text(text)
    assert alg.basis.names == ("a", "b")


def test_missing_d_lines_default_to_zero():
    alg = parse_algebra_text(TORUS_FILE)
    assert all(f.is_zero() for f in alg.dgen)


def test_round_trip_idempotent():
    for text in (ACFM_FILE, ACFM_PARAM_FILE, TORUS_FILE):
        once = algebra_to_text(parse_algebra_text(text))
        twice = algebra_to_text(parse_algebra_text(once))
        assert once == twice


def test_metric_line():
    alg = parse_algebra_text("generators a b\nmetric diag 4 9\n")
    assert alg.metric == (Fraction(4), Fraction(9))
    with pytest.raises(InvalidMetric):
        parse_algebra_text("generators a b\nmetric diag 1\n")


def test_file_errors_carry_lines():
    with pytest.raises(UndeclaredParameter) as info:
        parse_algebra_text("generators a b\nd a = q a^b\n")
    assert "line 2" in str(info.value)
    with pytest.raises(ExprSyntaxError):
        parse_algebra_text("generators a b\nd c = 1 a^b\n")
    with pytest.raises(ExprSyntaxError):
        parse_algebra_text("params a\ngenerators a b\n")


def test_chains_longer_than_the_dimension_are_zero():
    assert parse_algebra_text("generators a\nd a = 1 a^a\n").dgen[0].is_zero()
    alg = parse_algebra_text("generators a b\nd a = 2 a^b^a + 1 a^b\n")
    assert alg.dgen[0] == alg.basis.monomial_form((0, 1))


def test_form_expression_grammar():
    alg = parse_algebra_text(ACFM_PARAM_FILE)
    form = parse_form_expr("2*k alpha^gamma - 1/2 beta^gamma", alg.basis, alg.mode)
    k = alg.mode.symbol("k")
    expected = (2 * k) * alg.basis.monomial_form((0, 2)) + alg.mode.from_fraction(
        Fraction(-1, 2)
    ) * alg.basis.monomial_form((1, 2))
    assert form == expected
    bare = parse_form_expr("gamma", alg.basis, alg.mode)
    assert bare == alg.basis.gen(2)
    zero = parse_form_expr("0", alg.basis, alg.mode)
    assert zero.is_zero()


# terms are added left to right: only a zero running sum may change degree
SUMS = [
    ("gamma - gamma + alpha^beta", "2 1 alpha^beta"),
    ("gamma + alpha^beta", "DegreeMismatch: cannot add degree 1 and degree 2"),
    ("0 gamma + alpha^beta", "2 1 alpha^beta"),
    ("alpha^alpha + gamma", "1 1 gamma"),
    ("alpha^beta^gamma^eta^alpha + gamma", "1 1 gamma"),
    ("alpha^beta + gamma - gamma", "DegreeMismatch: cannot add degree 2 and degree 1"),
    ("gamma - gamma", "1 0"),
    ("gamma - gamma + alpha^alpha", "2 0"),
    ("gamma + alpha^beta + )", "DegreeMismatch: cannot add degree 1 and degree 2"),
    ("-gamma + 2 gamma - 1/2 alpha^gamma^alpha + 3 gamma", "1 4 gamma"),
]


@pytest.mark.parametrize("text,expected", SUMS)
def test_form_sums_keep_their_degree_rules(text, expected):
    alg = parse_algebra_text(ACFM_FILE)
    try:
        form = parse_form_expr(text, alg.basis, alg.mode)
        got = f"{form.degree} {form_str(form)}"
    except LcsCalcError as exc:
        got = f"{type(exc).__name__}: {exc}"
    assert got == expected


# factors of a form term: plain integer literals, which the term parser
# multiplies as ints, and factors it hands over to the scalar grammar
TERM_FACTORS = ["0", "1", "2", "13", "87", "210", "k", "(k + 1)", "2^3", "(1/2)", "n^2", "0^0"]


@given(
    st.lists(st.tuples(st.sampled_from([" ", "*", "/"]), st.sampled_from(TERM_FACTORS)),
             min_size=1, max_size=5),
    st.sampled_from(["", " alpha", "*beta^gamma", " alpha^beta^gamma^eta"]),
    st.sampled_from(["", "-", "+"]),
    st.booleans(),
)
def test_form_term_coefficients_match_the_scalar_grammar(factors, chain, sign, params):
    """A term's coefficient is its factors read by `parse_scalar`, juxtaposition as '*'."""
    alg = parse_algebra_text(ACFM_PARAM_FILE if params else ACFM_FILE)
    factors = [("", factors[0][1])] + factors[1:]
    text = sign + "".join(op + f for op, f in factors) + chain
    scalar_text = sign + "".join(("*" if op == " " else op) + f for op, f in factors)
    try:
        coeff = parse_scalar(scalar_text.lstrip("*"), alg.mode)
    except LcsCalcError as exc:
        expected = type(exc), str(exc)
    else:
        names = chain.strip(" *").split("^") if chain else []
        idx = tuple(alg.basis.index(name) for name in names)
        expected = Form(alg.basis, len(idx), {idx: coeff})
    try:
        got = parse_form_expr(text, alg.basis, alg.mode)
    except LcsCalcError as exc:
        got = type(exc), str(exc)
    assert got == expected
    if isinstance(got, Form) and got.terms:
        (c,) = got.terms.values()
        assert type(c) is type(alg.one_scalar())


def _fractions_made(fn) -> int:
    """Fractions constructed while fn runs: calls of the constructors of `fractions.Fraction`.

    Before Python 3.12 every Fraction passes through `__new__`; from 3.12 on
    arithmetic results come from `_from_coprime_ints`, which skips it.
    """
    codes = {Fraction.__new__.__code__}
    if hasattr(Fraction, "_from_coprime_ints"):
        codes.add(Fraction._from_coprime_ints.__func__.__code__)
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code in codes:
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return count


def test_rational_form_terms_make_no_fraction():
    """Rational terms, '-' ones included, reach the Form as integer numerators over one den."""
    alg = parse_algebra_file(str(GOLDEN / "h7xr_dense.alg"))
    for text in (GOLDEN / "h7xr_dense.forms").read_text(encoding="utf-8").splitlines():
        form = parse_form_expr(text, alg.basis, alg.mode)
        assert " - " in text and "/" in text and len(form.nums) == 28
        assert _fractions_made(lambda: parse_form_expr(text, alg.basis, alg.mode)) == 0


@pytest.mark.parametrize(
    "text,shown",
    [
        ("(k + 1) alpha", "(1 + k) alpha"),
        ("-(k + 1) alpha^eta + k beta^gamma - 2 beta^gamma",
         "(-1 - k) alpha^eta + (-2 + k) beta^gamma"),
        ("(k + 1)/(k - 1) alpha^beta", "(-1 - k)/(1 - k) alpha^beta"),
    ],
)
def test_sum_coefficients_round_trip_in_parentheses(text, shown):
    """A coefficient with a top-level sign is rendered in parentheses, and parses back."""
    alg = parse_algebra_text(ACFM_PARAM_FILE)
    form = parse_form_expr(text, alg.basis, alg.mode)
    assert form_str(form) == shown
    assert parse_form_expr(shown, alg.basis, alg.mode) == form


# directive errors of an algebra file: message, line and column
DIRECTIVE_ERRORS = [
    ("generators a b\nparams k\n", "params must precede generators", 2),
    ("params k\nparams t\ngenerators a b\n", "duplicate params line", 2),
    ("params k t k\ngenerators a b\n", "parameter names must be distinct", 1),
    ("generators a b\ngenerators c d\n", "duplicate generators line", 2),
    ("# none\ngenerators\n", "generators line declares no names", 2),
    ("generators a b\nd a 1 a^b\n", "d line needs '='", 2),
    ("generators a b\nd a = 1 a^b\nd a = 2 a^b\n", "duplicate d line for 'a'", 3),
    ("generators a b\nmetric diag 1 1\nmetric diag 4 4\n", "duplicate metric line", 3),
    ("generators a b\nmetric full 1 0 0 1\n", "only 'metric diag' is supported", 2),
]


@pytest.mark.parametrize(
    "text,message,line",
    DIRECTIVE_ERRORS,
    ids=[
        "params-after-generators", "duplicate-params", "repeated-parameter",
        "duplicate-generators", "empty-generators", "d-without-equals", "duplicate-d",
        "duplicate-metric", "metric-not-diag",
    ],
)
def test_directive_errors_carry_their_line(text, message, line):
    with pytest.raises(ExprSyntaxError) as info:
        parse_algebra_text(text)
    assert type(info.value) is ExprSyntaxError
    assert str(info.value) == f"{message} (line {line}, column 1)"
    assert (info.value.line, info.value.col) == (line, 1)


# ---------------------------------------------------------------------------
# CLI commands and exit codes
# ---------------------------------------------------------------------------


def test_check_success(acfm_path, capsys):
    assert main(["check", acfm_path]) == 0
    out = capsys.readouterr().out
    assert "d2: pass" in out
    assert "jacobi: pass" in out
    assert "unimodular: true" in out


def test_check_structural_failure(tmp_path, capsys):
    path = tmp_path / "broken.alg"
    path.write_text(BROKEN_FILE)
    assert main(["check", str(path)]) == 2
    out = capsys.readouterr().out
    assert "d2: FAIL" in out


def test_check_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text("generators a b\nd a = q a^b\n")
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert "input error" in err


def _assert_one_line_input_error(err: str):
    assert err.count("\n") == 1 and err.startswith("lcscalc: input error:")
    assert "Traceback" not in err


def test_deep_nesting_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.alg"
    path.write_text("generators a b\nd a = " + "(" * 3000 + "1" + ")" * 3000 + " a^b\n")
    assert main(["check", str(path)]) == 1
    _assert_one_line_input_error(capsys.readouterr().err)


def test_non_utf8_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.alg"
    path.write_bytes("generators a b\nd a = 1 a^b  # café\n".encode("latin-1"))
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    _assert_one_line_input_error(err)
    assert "not valid UTF-8 (line 2, column 19)" in err


def test_oversized_power_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "power.alg"
    path.write_text("params k\ngenerators a b\nd a = k^100000000 a^b\n")
    assert main(["check", str(path)]) == 1
    _assert_one_line_input_error(capsys.readouterr().err)


@pytest.mark.parametrize(
    "text,message",
    [
        (
            "generators a b\nd a = k^100000000 a^b\n",
            "parameter 'k' is not declared (line 2, column 7)",
        ),
        (
            "generators a b c d\nmetric diag 1 1 1 x\n",
            "parameter 'x' is not declared (line 2, column 19)",
        ),
        (
            "generators a b\nd a = " + "7" * 5000 + " a^b\n",
            "literal of 5000 digits is above the limit of 4300 (line 2, column 7)",
        ),
    ],
    ids=["d-line-column", "metric-line-column", "overlong-literal"],
)
def test_file_errors_give_the_line_and_column(tmp_path, capsys, text, message):
    path = tmp_path / "bad.alg"
    path.write_text(text)
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    _assert_one_line_input_error(err)
    assert message in err


@pytest.mark.parametrize(
    "names,message",
    [
        ("a a", "generator names must be distinct"),
        ("1a", "invalid generator name '1a'"),
        (" ".join(f"e{i}" for i in range(17)), "need 1..16 generators, got 17"),
    ],
    ids=["duplicate", "invalid", "seventeen"],
)
def test_bad_generator_lines_are_input_errors(tmp_path, capsys, names, message):
    path = tmp_path / "gens.alg"
    path.write_text(f"# names\ngenerators {names}\n")
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    _assert_one_line_input_error(err)
    assert f"ExprSyntaxError: {message} (line 2, column 1)" in err


def test_one_generator_reports(tmp_path, capsys):
    path = tmp_path / "line.alg"
    path.write_text("generators a\nd a = 0\n")
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "d2: pass\njacobi: pass\nunimodular: true\n" in out
    # the real line: untwisted cohomology is that of R, any nonzero twist kills it
    assert main(["cohomology", str(path), "--omega", "0"]) == 0
    assert "dims: 1 1\n" in capsys.readouterr().out
    assert main(["cohomology", str(path), "--omega", "3 a"]) == 0
    assert "dims: 0 0\n" in capsys.readouterr().out


@pytest.mark.parametrize("omega", ["0", "1 e1"])
def test_cohomology_refuses_a_metric_that_is_not_a_square(tmp_path, capsys, omega):
    """The harmonic stage needs exact square roots of the metric entries."""
    path = tmp_path / "metric.alg"
    path.write_text("generators e1 e2 e3\nd e3 = 1 e1^e2\nmetric diag 2 1 1\n")
    assert main(["cohomology", str(path), "--omega", omega]) == 1
    err = capsys.readouterr().err
    _assert_one_line_input_error(err)
    assert "InvalidMetric: metric entry for e1 must be the square of a rational" in err


def test_only_decimal_digits_are_numbers(tmp_path, capsys):
    path = tmp_path / "digits.alg"
    path.write_text("generators a b\nd a = 2\u00b2 a^b\n")
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    _assert_one_line_input_error(err)
    assert "unexpected character '\u00b2' (line 2, column 8)" in err
    # decimal digits of other scripts still read as numbers
    alg = parse_algebra_text("generators a b\nd a = \u0663 a^b\n")
    assert alg.dgen[0] == 3 * alg.basis.monomial_form((0, 1))


@pytest.mark.parametrize(
    "value",
    ["7" * 5000, "1e1000000000", "0.5"],
    ids=["5000-digits", "exponent", "decimal"],
)
def test_acfm_parameters_are_exact_scalars(capsys, value):
    assert main(["acfm", "--n", value, "--k", "1", "--lambda", "1"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 160
    assert err.startswith("lcscalc acfm: error: argument --n: ExprSyntaxError: ")


def test_acfm_parameters_take_scalar_expressions(capsys):
    assert main(["acfm", "--n", "(2)^3", "--k=-3/2", "--lambda", "1/3"]) == 0
    assert "params: n=8 k=-3/2 lambda=1/3\n" in capsys.readouterr().out


def test_unrecognized_arguments_stay_on_one_line(capsys):
    assert main(["check", "x.alg", "a\nb"]) == 1
    assert capsys.readouterr().err == "lcscalc: error: unrecognized arguments: a b\n"


def test_parser_is_built_once_and_reused(acfm_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    runs = []
    for argv in (
        ["cohomology", acfm_path],  # --omega missing
        ["check", acfm_path],
        ["acfm", "--n", "1/0"],
        ["check", acfm_path, "--json"],
        ["cohomology", acfm_path],
        ["acfm", "--n", "1/0"],
    ):
        code = main(argv)
        runs.append((code, *capsys.readouterr()))
    assert runs[0] == runs[4] and runs[2] == runs[5]
    assert runs[0][0] == runs[2][0] == 1
    assert runs[0][1] == runs[2][1] == ""
    assert runs[0][2] == (
        "lcscalc cohomology: error: the following arguments are required: --omega\n"
    )
    assert runs[2][2].count("\n") == 1
    assert runs[1][0] == runs[3][0] == 0
    assert json.loads(runs[3][1])["d2"] == "pass"


def _decimal_digits(n: int) -> str:
    """Decimal text of a positive integer by chunked divmod, so str() is not used."""
    chunks = []
    while n:
        n, r = divmod(n, 10**100)
        chunks.append(f"{r:0100d}")
    return "".join(reversed(chunks)).lstrip("0")


def test_integers_beyond_the_str_limit_render(tmp_path, capsys):
    path = tmp_path / "torus.alg"
    path.write_text(TORUS_FILE)
    assert main(["lcs", str(path), "--form", "99999^1000 e1^e2 + 1 e3^e4"]) == 0
    out = capsys.readouterr().out
    power = _decimal_digits(99999**1000)
    assert len(power) == 5000
    assert f"form: {power} e1^e2 + 1 e3^e4\n" in out
    assert f"pfaffian: {_decimal_digits(2 * 99999**1000)}\n" in out


def test_lcs_on_two_generators(tmp_path, capsys):
    path = tmp_path / "plane.alg"
    path.write_text("generators a b\n")
    assert main(["lcs", str(path), "--form", "1 a^b"]) == 0
    out = capsys.readouterr().out
    assert "lee form: 0" in out


def test_cohomology_report(acfm_path, capsys):
    assert main(["cohomology", acfm_path, "--omega", "-1 gamma"]) == 0
    out = capsys.readouterr().out
    assert "invariant-complex" in out
    assert "dims: 0 1 2 1 0" in out
    assert "degree 1: dim 1; harmonic: 1 alpha;" in out


def test_cohomology_omega_not_closed(acfm_path, capsys):
    assert main(["cohomology", acfm_path, "--omega", "1 eta"]) == 2
    assert "OmegaNotClosed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,option,text",
    [
        ("cohomology", "--omega", "1 alpha^beta"),
        ("lcs", "--form", "1 alpha"),
        ("moser", "--family", "2 alpha^eta + 1 beta^gamma; 1 alpha"),
    ],
)
def test_wrong_degree_is_an_input_error(acfm_path, capsys, command, option, text):
    assert main([command, acfm_path, option, text]) == 1
    err = capsys.readouterr().err
    _assert_one_line_input_error(err)
    assert "DegreeMismatch" in err


def test_cohomology_torus(tmp_path, capsys):
    path = tmp_path / "torus.alg"
    path.write_text(TORUS_FILE)
    assert main(["cohomology", str(path), "--omega", "0"]) == 0
    assert "dims: 1 4 6 4 1" in capsys.readouterr().out


def test_cohomology_non_unimodular_reports_harmonic_bases(tmp_path, capsys):
    path = tmp_path / "affine.alg"
    path.write_text("generators e1 e2\nd e1 = 1 e1^e2\n")
    assert main(["cohomology", str(path), "--omega", "0"]) == 0
    out = capsys.readouterr().out
    assert "unimodular: false\nadjointness: applicable\ndims: 1 1 0\n" in out
    assert "degree 1: dim 1; harmonic: 1 e2; decomposition:" in out


def test_lcs_report_nonexact(acfm_path, capsys):
    assert main(["lcs", acfm_path, "--form", "2 alpha^eta + 1 beta^gamma"]) == 0
    out = capsys.readouterr().out
    assert "pfaffian: 4" in out
    assert "lee form: -1 gamma" in out
    assert "class: not exact" in out
    assert "lee homomorphism: identically 0 on automorphisms" in out


def test_lcs_report_exact(acfm_path, capsys):
    assert main(["lcs", acfm_path, "--form", "1 alpha^beta - 1 gamma^eta"]) == 0
    out = capsys.readouterr().out
    assert "class: exact" in out
    assert "primitive: 1 eta" in out
    assert "l = -1" in out or "l = 1" in out


def test_lcs_degenerate(acfm_path, capsys):
    assert main(["lcs", acfm_path, "--form", "1 alpha^eta + 1 beta^gamma + 1 alpha^beta - 1 gamma^eta"]) == 2
    captured = capsys.readouterr()
    assert "pfaffian: 0" in captured.out
    assert "Degenerate" in captured.err


def test_jacobi_failure_after_d2_is_a_cross_check_error(acfm_path, capsys, monkeypatch):
    # d*d = 0 is equivalent to the Jacobi identity, so the second route must agree
    failing = JacobiResult(False, (0, 1, 2))
    monkeypatch.setattr(cli, "jacobi_check", lambda brackets: failing)
    assert main(["check", acfm_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "lcscalc: failure: CrossCheckError: Jacobi identity fails although d*d = 0\n"
    )


def test_decomposition_that_does_not_fill_a_degree_is_a_cross_check_error(
    acfm_path, capsys, monkeypatch
):
    """harmonic + image_d + image_delta = C(N, l) is checked before the report prints."""
    rank = hodge.TwistedComplex.delta_rank
    monkeypatch.setattr(hodge.TwistedComplex, "delta_rank", lambda cx, l: rank(cx, l) + 1)
    assert main(["cohomology", acfm_path, "--omega", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "lcscalc: failure: CrossCheckError: decomposition dimensions do not fill degree 0\n"
    )


def test_a_primitive_that_solve_gets_wrong_is_a_cross_check_error(capsys, monkeypatch):
    """Every primitive is re-checked by d_w x = theta before theorem 1 leans on it."""
    solve = hodge.solve

    def perturbed(rows, rhs, width):
        sol = solve(rows, rhs, width)
        return sol and [x + 1 for x in sol]

    monkeypatch.setattr(hodge, "solve", perturbed)
    assert main(["acfm", "--n", "1", "--k", "2", "--lambda", "3", "--theorem1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "lcscalc: failure: CrossCheckError: primitive verification failed\n"


def test_missing_input_file_is_one_line(tmp_path, capsys):
    path = tmp_path / "missing.alg"
    assert main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"lcscalc: error: [Errno 2] No such file or directory: '{path}'\n"


def test_moser_family_of_empty_members_is_an_input_error(acfm_path, capsys):
    assert main(["moser", acfm_path, "--family", ";"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "lcscalc: input error: InvalidParams: family must be nonempty\n"


def test_structure_data_with_nonzero_d_squared_is_a_failure(tmp_path, capsys):
    path = tmp_path / "broken.alg"
    path.write_text(BROKEN_FILE)
    assert main(["cohomology", str(path), "--omega", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "lcscalc: failure: StructureError: d*d != 0 on generator e1: residual 1 e1^e2^e3\n"
    )


def test_lcs_on_an_odd_number_of_generators_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "odd.alg"
    path.write_text("generators a b c\nd c = 1 a^b\n")
    assert main(["lcs", str(path), "--form", "1 a^b"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "lcscalc: input error: OddDimension: top power needs an even number of generators, got 3\n"
    )


def test_moser_pass(acfm_path, capsys):
    family = "2 alpha^eta + 1 beta^gamma; 2 alpha^eta + 2 beta^gamma"
    assert main(["moser", acfm_path, "--family", family]) == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out
    assert "difference primitive: 1/2 beta" in out


def test_moser_degenerate(acfm_path, capsys):
    family = "1 alpha^eta + 4 beta^gamma; 1 alpha^eta + 4 beta^gamma + 2 alpha^beta - 2 gamma^eta"
    assert main(["moser", acfm_path, "--family", family]) == 2
    out = capsys.readouterr().out
    assert "verdict: FAIL member 1" in out


def test_acfm_preset_reports(capsys):
    assert main(["acfm", "--param-mode", "--pfaffian-t"]) == 0
    out = capsys.readouterr().out
    assert "pfaffian t: 2*(t1*t2 - n*k*lambda*t3^2)" in out

    assert main(["acfm", "--param-mode", "--pfaffian-s"]) == 0
    out = capsys.readouterr().out
    assert "pfaffian s: -2*(s1*s2 - n*k*lambda*s3^2)" in out

    assert main(["acfm", "--n", "1", "--k", "1", "--lambda", "1", "--pfaffian-t"]) == 0
    out = capsys.readouterr().out
    assert "pfaffian t: 2*(t1*t2 - t3^2)" in out

    assert main(["acfm", "--n", "1", "--k", "1", "--lambda", "1", "--theorem1"]) == 0
    out = capsys.readouterr().out
    assert "family t lee form: -1 gamma" in out
    assert "family s lee form: 1 gamma" in out

    assert main(["acfm", "--n", "0", "--k", "1", "--lambda", "1"]) == 1
    assert "InvalidParams" in capsys.readouterr().err

    assert main(["acfm", "--param-mode", "--theorem1"]) == 1
    capsys.readouterr()


def test_acfm_theorem1_reuses_its_pfaffians(capsys, monkeypatch):
    calls = []
    pfaffians = presets.family_pfaffians

    def counted(families, params=None):
        calls.append(tuple(families))
        return pfaffians(families, params)

    monkeypatch.setattr(presets, "family_pfaffians", counted)
    argv = ["acfm", "--n", "1", "--k", "-2", "--lambda", "1", "--theorem1"]
    assert main(argv + ["--pfaffian-t", "--pfaffian-s"]) == 0
    out = capsys.readouterr().out
    assert calls == [("t", "s")]
    assert "pfaffian t: 2*(t1*t2 + 2*t3^2)\n" in out
    assert "pfaffian s: -2*(s1*s2 + 2*s3^2)\n" in out
    assert "family t pfaffian: 2*(t1*t2 + 2*t3^2)\n" in out


def test_acfm_reports_build_one_parameter_mode_preset(capsys, monkeypatch):
    # both family Pfaffians are read off one parameter-mode preset
    builds = []
    acfm = presets.acfm

    def counted(params, mode=None):
        builds.append("params" if mode is not None and mode.is_param else "rational")
        return acfm(params, mode)

    monkeypatch.setattr(presets, "acfm", counted)
    assert main(["acfm", "--param-mode", "--pfaffian-t", "--pfaffian-s"]) == 0
    assert builds == ["params"]
    builds.clear()
    argv = ["acfm", "--n", "1", "--k", "-2", "--lambda", "1", "--pfaffian-t", "--pfaffian-s"]
    assert main(argv) == 0
    assert builds == ["params", "rational"]
    builds.clear()
    assert main(argv + ["--theorem1"]) == 0
    assert builds == ["rational", "params"]
    out = capsys.readouterr().out
    assert "pfaffian t: 2*(t1*t2 + 2*t3^2)\n" in out
    assert "pfaffian s: -2*(s1*s2 + 2*s3^2)\n" in out


@pytest.mark.parametrize("option", ["--n", "--k", "--lambda"])
def test_acfm_param_mode_refuses_numeric_parameters(capsys, option):
    assert main(["acfm", "--param-mode", "--pfaffian-t", option, "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "lcscalc: input error: InputError: --param-mode takes no --n, --k or --lambda\n"
    )


def test_json_reports_parse(acfm_path, capsys):
    assert main(["cohomology", acfm_path, "--omega", "-1 gamma", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dims"] == [0, 1, 2, 1, 0]
    assert payload["degrees"][2]["harmonic_basis"] == ["1 alpha^gamma", "1 alpha^eta"]

    assert main(["lcs", acfm_path, "--form", "2 alpha^eta + 1 beta^gamma", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pfaffian"] == "4"
    assert payload["class"]["coords"] == ["0", "2"]


def test_reports_are_deterministic(acfm_path, capsys):
    runs = []
    for _ in range(2):
        assert main(["lcs", acfm_path, "--form", "2 alpha^eta + 1 beta^gamma"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# a reader that closes stdout early
# ---------------------------------------------------------------------------


def _lcscalc(args, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(Path(lcscalc.__file__).parents[1]))
    # buffered stdout: a small report reaches the pipe only when it is flushed
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "lcscalc.cli", *args], env=env, **kwargs)


def test_small_report_into_a_closed_pipe_is_quiet(tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(tmp_path / "err", "wb") as err:
        args = ["acfm", "--n", "1", "--k", "-2", "--lambda", "1", "--theorem1"]
        proc = _lcscalc(args, stdout=write_end, stderr=err)
        os.close(write_end)
        assert proc.wait(timeout=60) == 1
    assert (tmp_path / "err").read_bytes() == b""


def test_large_report_into_a_reader_that_stops_is_quiet(tmp_path):
    # one 4000-digit coefficient per pair of e1..e7: the echo is about 84 kB,
    # more than a pipe buffer, so the report blocks until the reader stops
    digits = "9" * 4000
    pairs = [f"{digits} e{i}^e{j}" for i in range(1, 8) for j in range(i + 1, 8)]
    path = tmp_path / "wide.alg"
    names = " ".join(f"e{i}" for i in range(1, 9))
    path.write_text(f"generators {names}\nd e8 = {' + '.join(pairs)}\n")
    with open(tmp_path / "err", "wb") as err:
        proc = _lcscalc(["check", str(path)], stdout=subprocess.PIPE, stderr=err)
        assert proc.stdout.readline() == b"report: structure check\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
    assert (tmp_path / "err").read_bytes() == b""
