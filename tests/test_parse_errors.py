"""Diagnostics of malformed input: exception type, message, line and column.

Each case goes through one public entry point: `parse_form_expr` placed at
line 3, column 7 of its file, `parse_scalar` on its own, or the entries of
a `metric diag` line, which start at column 19 of line 2 (3 with a `params`
line).  The message carries the position for `ExprSyntaxError` and
`UndeclaredParameter`; `DivisionByZero` and the form-level errors carry
none.
"""

from __future__ import annotations

import pytest

from lcscalc.errors import (
    DegreeMismatch, DivisionByZero, ExprSyntaxError, InvalidMetric, UndeclaredParameter,
)
from lcscalc.exterior import Basis
from lcscalc.scalar import ScalarMode, parse_scalar
from lcscalc.specfile import parse_algebra_text, parse_form_expr

RATIONAL = ScalarMode.rational()
PARAMS = ScalarMode.params("k", "t")
BASIS = Basis(("e1", "e2", "e3", "e4"))
LONG = "7" * 4301


def _form(text, mode):
    return parse_form_expr(text, BASIS, mode, line=3, col=7)


def _metric(text, mode):
    head = "params k t\n" if mode.is_param else ""
    return parse_algebra_text(f"{head}generators e1 e2 e3 e4\nmetric diag 1 1 1 {text}\n")


ENTRY = {
    "form": _form,
    "scalar": lambda text, mode: parse_scalar(text, mode),
    "metric": _metric,
}

DIV0 = (DivisionByZero, "scalar division by zero", None)
LITERAL = "integer literal of 4301 digits is above the limit of 4300"

# (entry, mode, text, exception type, message, (line, column) or None)
CASES = [
    # division by a zero literal, before and after a parameter, and by a zero sum
    ("form", RATIONAL, "2/0", *DIV0),
    ("form", PARAMS, "2/0", *DIV0),
    ("form", RATIONAL, "2 / 0 e1", *DIV0),
    ("form", RATIONAL, "1/2/0 e1", *DIV0),
    ("form", RATIONAL, "3*4/0*5 e1^e2", *DIV0),
    ("form", RATIONAL, "2/0 q e1", *DIV0),
    ("form", PARAMS, "k/0 e1", *DIV0),
    ("form", PARAMS, "1/(k-k) e1", *DIV0),
    ("scalar", RATIONAL, "2/0", *DIV0),
    ("scalar", PARAMS, "k/0", *DIV0),
    ("metric", RATIONAL, "2/0", ExprSyntaxError, "unexpected '/' (line 2, column 20)", (2, 20)),
    # generators where a scalar belongs
    ("form", RATIONAL, "e1/e2", ExprSyntaxError, "trailing input '/' (line 3, column 9)", (3, 9)),
    ("form", RATIONAL, "2/e1", ExprSyntaxError,
     "cannot divide by a generator (line 3, column 9)", (3, 9)),
    ("form", PARAMS, "k/e1", ExprSyntaxError,
     "cannot divide by a generator (line 3, column 9)", (3, 9)),
    ("scalar", RATIONAL, "e1/e2", UndeclaredParameter,
     "parameter 'e1' is not declared (line 1, column 1)", None),
    ("metric", RATIONAL, "e1", UndeclaredParameter,
     "parameter 'e1' is not declared (line 2, column 19)", None),
    ("form", RATIONAL, "e1^2", ExprSyntaxError,
     "'^' in a form term must join generator names (line 3, column 9)", (3, 9)),
    ("form", RATIONAL, "1 e1 ^ 2", ExprSyntaxError,
     "'^' in a form term must join generator names (line 3, column 12)", (3, 12)),
    ("form", RATIONAL, "2 e1^", ExprSyntaxError,
     "'^' in a form term must join generator names (line 3, column 11)", (3, 11)),
    # dangling operators and parentheses
    ("form", RATIONAL, "1 +", ExprSyntaxError,
     "expected a scalar or generator (line 3, column 10)", (3, 10)),
    ("form", RATIONAL, "1 e1 +", ExprSyntaxError,
     "expected a scalar or generator (line 3, column 13)", (3, 13)),
    ("form", RATIONAL, "", ExprSyntaxError,
     "expected a scalar or generator (line 3, column 7)", (3, 7)),
    ("form", RATIONAL, "-", ExprSyntaxError,
     "expected a scalar or generator (line 3, column 8)", (3, 8)),
    ("scalar", RATIONAL, "1 +", ExprSyntaxError,
     "expected a number, parameter or '(' (line 1, column 4)", (1, 4)),
    ("metric", RATIONAL, "1 +", ExprSyntaxError, "unexpected '+' (line 2, column 21)", (2, 21)),
    ("form", RATIONAL, "((", ExprSyntaxError,
     "expected a number, parameter or '(' (line 3, column 9)", (3, 9)),
    ("form", RATIONAL, "((1", ExprSyntaxError,
     "expected ')', found end of input (line 3, column 10)", (3, 10)),
    ("form", RATIONAL, "2 (1 e1", ExprSyntaxError,
     "expected ')', found 'e1' (line 3, column 12)", (3, 12)),
    ("scalar", RATIONAL, "((", ExprSyntaxError,
     "expected a number, parameter or '(' (line 1, column 3)", (1, 3)),
    ("metric", PARAMS, "((1", ExprSyntaxError,
     "expected ')', found end of input (line 3, column 22)", (3, 22)),
    ("form", RATIONAL, ")", ExprSyntaxError, "unexpected ')' (line 3, column 7)", (3, 7)),
    ("form", RATIONAL, "2*/e1", ExprSyntaxError, "unexpected '/' (line 3, column 9)", (3, 9)),
    ("form", RATIONAL, "2/-1 e1", ExprSyntaxError, "unexpected '-' (line 3, column 9)", (3, 9)),
    # exponents
    ("form", RATIONAL, "2^e1", ExprSyntaxError,
     "exponent must be a nonnegative integer (line 3, column 8)", (3, 8)),
    ("form", RATIONAL, "3/2^-1 e1", ExprSyntaxError,
     "exponent must be a nonnegative integer (line 3, column 10)", (3, 10)),
    ("form", RATIONAL, "3 2^1001 e1", ExprSyntaxError,
     "exponent 1001 is above the limit of 1000 (line 3, column 11)", (3, 11)),
    ("metric", PARAMS, "k^2", ExprSyntaxError, "unexpected '^' (line 3, column 20)", (3, 20)),
    # undeclared parameters
    ("form", RATIONAL, "q e1", UndeclaredParameter,
     "parameter 'q' is not declared (line 3, column 7)", None),
    ("form", RATIONAL, "2/3 k e1", UndeclaredParameter,
     "parameter 'k' is not declared (line 3, column 11)", None),
    ("form", PARAMS, "3 k/q e1", UndeclaredParameter,
     "parameter 'q' is not declared (line 3, column 11)", None),
    ("scalar", PARAMS, "k*q", UndeclaredParameter,
     "parameter 'q' is not declared (line 1, column 3)", None),
    ("metric", PARAMS, "q", UndeclaredParameter,
     "parameter 'q' is not declared (line 3, column 19)", None),
    # characters and literals the tokenizer refuses
    ("form", RATIONAL, "2²", ExprSyntaxError,
     "unexpected character '²' (line 3, column 8)", (3, 8)),
    ("form", RATIONAL, "½ e1", ExprSyntaxError,
     "unexpected character '½' (line 3, column 7)", (3, 7)),
    ("form", RATIONAL, "2/0 ½", ExprSyntaxError,
     "unexpected character '½' (line 3, column 11)", (3, 11)),
    ("scalar", RATIONAL, "2²", ExprSyntaxError,
     "unexpected character '²' (line 1, column 2)", (1, 2)),
    ("metric", RATIONAL, "½", ExprSyntaxError,
     "unexpected character '½' (line 2, column 19)", (2, 19)),
    ("form", RATIONAL, LONG, ExprSyntaxError, f"{LITERAL} (line 3, column 7)", (3, 7)),
    ("form", RATIONAL, f"1/{LONG} e1", ExprSyntaxError, f"{LITERAL} (line 3, column 9)", (3, 9)),
    ("scalar", RATIONAL, LONG, ExprSyntaxError, f"{LITERAL} (line 1, column 1)", (1, 1)),
    ("metric", RATIONAL, LONG, ExprSyntaxError, f"{LITERAL} (line 2, column 19)", (2, 19)),
    # trailing input, and terms that do not add up
    ("form", RATIONAL, "1 e1 e2)", ExprSyntaxError,
     "trailing input 'e2' (line 3, column 12)", (3, 12)),
    ("form", RATIONAL, "e1 3", ExprSyntaxError, "trailing input 3 (line 3, column 10)", (3, 10)),
    ("form", RATIONAL, "2 e1 = 3", ExprSyntaxError,
     "trailing input '=' (line 3, column 12)", (3, 12)),
    ("scalar", RATIONAL, "1 2", ExprSyntaxError, "trailing input 2 (line 1, column 3)", (1, 3)),
    ("scalar", PARAMS, "k^2 e1", ExprSyntaxError,
     "trailing input 'e1' (line 1, column 5)", (1, 5)),
    ("form", PARAMS, "2 e1 + k", DegreeMismatch, "cannot add degree 1 and degree 0", None),
    ("metric", RATIONAL, "1 2", InvalidMetric, "metric diag needs 4 entries, got 5", None),
]


@pytest.mark.parametrize(
    "entry, mode, text, exc_type, message, position",
    CASES,
    ids=[f"{c[0]}-{'param' if c[1].is_param else 'rational'}-{c[2][:12]!r}" for c in CASES],
)
def test_malformed_input_diagnostics(entry, mode, text, exc_type, message, position):
    with pytest.raises(exc_type) as info:
        ENTRY[entry](text, mode)
    assert type(info.value) is exc_type
    assert str(info.value) == message
    if position is not None:
        assert (info.value.line, info.value.col) == position
