"""ParamScalar canonical forms against sympy's `cancel` (test-only oracle)."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from lcscalc.scalar import ScalarMode, _grlex  # noqa: E402

NAMES = ("n", "k", "t")
MODE = ScalarMode.params(*NAMES)
GENS = sympy.symbols(NAMES)


@st.composite
def expressions(draw, depth=4):
    """A random expression built twice: as a ParamScalar and in sympy."""
    if depth == 0 or draw(st.integers(min_value=0, max_value=4)) == 0:
        if draw(st.integers(min_value=0, max_value=2)):
            i = draw(st.integers(min_value=0, max_value=len(NAMES) - 1))
            return MODE.symbol(NAMES[i]), GENS[i]
        c = draw(st.integers(min_value=-6, max_value=6))
        return MODE.from_fraction(c), sympy.Integer(c)
    # "/" twice, so that most draws have a non-constant denominator
    op = draw(st.sampled_from(["+", "-", "*", "/", "/", "^"]))
    a, sa = draw(expressions(depth - 1))
    if op == "^":
        e = draw(st.integers(min_value=0, max_value=4))
        return a ** e, sa ** e
    b, sb = draw(expressions(depth - 1))
    if op == "+":
        return a + b, sa + sb
    if op == "-":
        return a - b, sa - sb
    if op == "*":
        return a * b, sa * sb
    if not b:
        return a, sa
    return a / b, sa / sb


@st.composite
def constant_denominator_expressions(draw, depth=4):
    """Like `expressions`, with rational leaves c/q and '/' rare.

    Most intermediate values have a constant denominator up to a product of
    q's, so their canonical form is an integer gcd with the content.
    """
    if depth == 0 or draw(st.integers(min_value=0, max_value=3)) == 0:
        if draw(st.integers(min_value=0, max_value=2)) == 0:
            i = draw(st.integers(min_value=0, max_value=len(NAMES) - 1))
            return MODE.symbol(NAMES[i]), GENS[i]
        c = draw(st.integers(min_value=-30, max_value=30))
        q = draw(st.integers(min_value=1, max_value=97))
        return MODE.from_fraction(Fraction(c, q)), sympy.Rational(c, q)
    op = draw(st.sampled_from(["+", "+", "-", "-", "*", "*", "^", "/"]))
    a, sa = draw(constant_denominator_expressions(depth - 1))
    if op == "^":
        e = draw(st.integers(min_value=0, max_value=3))
        return a ** e, sa ** e
    b, sb = draw(constant_denominator_expressions(depth - 1))
    if op == "+":
        return a + b, sa + sb
    if op == "-":
        return a - b, sa - sb
    if op == "*":
        return a * b, sa * sb
    if not b:
        return a, sa
    return a / b, sa / sb


def _integer_dict(poly, scale) -> dict:
    out = {}
    for e, c in poly.terms():
        if not c:
            continue  # the zero polynomial lists one zero term
        value = Fraction(int(c.p), int(c.q)) * scale
        assert value.denominator == 1
        out[tuple(e)] = value.numerator
    return out


def canonical_from_sympy(expr):
    """cancel, then integer coefficients with coprime content, then the sign."""
    num, den = sympy.fraction(sympy.cancel(expr))
    pn = sympy.Poly(num, *GENS, domain="QQ")
    pd = sympy.Poly(den, *GENS, domain="QQ")
    coeffs = pn.coeffs() + pd.coeffs()
    scale = Fraction(lcm(*(int(c.q) for c in coeffs)))
    num_d, den_d = _integer_dict(pn, scale), _integer_dict(pd, scale)
    content = gcd(*num_d.values(), *den_d.values())
    num_d = {e: c // content for e, c in num_d.items()}
    den_d = {e: c // content for e, c in den_d.items()}
    if den_d[min(den_d, key=_grlex)] < 0:
        num_d = {e: -c for e, c in num_d.items()}
        den_d = {e: -c for e, c in den_d.items()}
    return num_d, den_d


@given(expressions())
def test_canonical_form_matches_sympy_cancel(pair):
    value, expr = pair
    num, den = canonical_from_sympy(expr)
    assert (value.num, value.den) == (num, den)


@given(constant_denominator_expressions())
def test_constant_denominator_canonical_form_matches_sympy_cancel(pair):
    value, expr = pair
    num, den = canonical_from_sympy(expr)
    assert (value.num, value.den) == (num, den)
