from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lcscalc.errors import (
    DivisionByZero,
    ExprSyntaxError,
    MixedModes,
    UndeclaredParameter,
)
from lcscalc.scalar import (
    ParamScalar,
    ScalarMode,
    parse_scalar,
    scalar_arith,
    scalar_str,
)

RATIONAL = ScalarMode.rational()
PMODE = ScalarMode.params("n", "k", "lambda", "t1", "t2", "t3")


def sym(name):
    return PMODE.symbol(name)


def test_rational_addition():
    assert scalar_arith(Fraction(1, 2), Fraction(1, 3), "add") == Fraction(5, 6)


def test_param_product_normalizes():
    k, t1, t2, t3 = sym("k"), sym("t1"), sym("t2"), sym("t3")
    n, lam = sym("n"), sym("lambda")
    value = (k * t1) * t2 - (n * k * lam) * (t3 * t3)
    expected = parse_scalar("k*t1*t2 - n*k*lambda*t3*t3", PMODE)
    assert value == expected


def test_param_division_gives_rational_function():
    k = sym("k")
    value = scalar_arith(PMODE.one(), 2 * k, "div")
    assert scalar_str(value) == "(1)/(2*k)"
    assert value * (2 * k) == PMODE.one()


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        scalar_arith(PMODE.one(), PMODE.zero(), "div")
    with pytest.raises(DivisionByZero):
        parse_scalar("1/0", RATIONAL)


def test_parse_rational():
    assert parse_scalar("-1/2", RATIONAL) == Fraction(-1, 2)
    assert parse_scalar("7", RATIONAL) == 7
    assert parse_scalar("3/2*2", RATIONAL) == 3


def test_parse_pfaffian_polynomial():
    value = parse_scalar("2*(t1*t2 - n*k*lambda*t3*t3)", PMODE)
    direct = 2 * (sym("t1") * sym("t2") - sym("n") * sym("k") * sym("lambda") * sym("t3") ** 2)
    assert value == direct
    assert scalar_str(value) == "2*(t1*t2 - n*k*lambda*t3^2)"


def test_parse_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as info:
        parse_scalar("1 + * 2", RATIONAL)
    assert info.value.col == 5
    with pytest.raises(UndeclaredParameter):
        parse_scalar("q + 1", PMODE)
    with pytest.raises(UndeclaredParameter):
        parse_scalar("k", RATIONAL)


def test_mixed_modes_rejected():
    other = ScalarMode.params("a", "b")
    with pytest.raises(MixedModes):
        sym("k") + other.symbol("a")


def test_constants_display_as_rationals():
    half = PMODE.from_fraction(Fraction(1, 2))
    assert scalar_str(half) == "1/2"
    assert scalar_str(PMODE.zero()) == "0"
    assert half.as_fraction() == Fraction(1, 2)
    assert sym("k").as_fraction() is None


scalars = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@given(scalars, scalars, scalars)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if c:
        assert (a / c) * c == a


small_ints = st.integers(min_value=-4, max_value=4)


@st.composite
def param_scalars(draw):
    k, t1 = sym("k"), sym("t1")
    value = PMODE.from_fraction(draw(small_ints))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        piece = draw(st.sampled_from([k, t1, PMODE.from_fraction(draw(small_ints))]))
        op = draw(st.sampled_from(["add", "mul", "sub"]))
        value = scalar_arith(value, piece, op)
    return value


@given(param_scalars(), param_scalars(), param_scalars())
def test_param_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(param_scalars(), param_scalars())
def test_canonical_zero_detects_equality(a, b):
    assert (a - b == PMODE.zero()) == (a == b)
    diff = a - b
    assert bool(diff) == (a != b)


@given(param_scalars(), param_scalars())
def test_division_inverts_multiplication(a, b):
    if b:
        assert (a / b) * b == a


@given(param_scalars())
def test_serialize_parse_roundtrip(a):
    assert parse_scalar(scalar_str(a), PMODE) == a


def test_roundtrip_with_denominators():
    value = (sym("t1") + 1) / (2 * sym("k") ** 2 - sym("n"))
    text = scalar_str(value)
    assert parse_scalar(text, PMODE) == value


def test_param_hash_consistency():
    a = sym("k") * sym("t1")
    b = sym("t1") * sym("k")
    assert a == b
    assert hash(a) == hash(b)


@given(scalars, param_scalars())
def test_equal_scalars_hash_alike_across_modes(q, p):
    # a == b must imply hash(a) == hash(b), whichever mode each side is in
    constant = PMODE.from_fraction(q)
    assert constant == q and hash(constant) == hash(q)
    assert q in {constant} and constant in {q}
    for a, b in ((p, p * PMODE.one()), (p, q), (p, PMODE.from_fraction(q))):
        if a == b:
            assert hash(a) == hash(b)
    as_fraction = p.as_fraction()
    if as_fraction is not None:
        assert hash(p) == hash(as_fraction)
