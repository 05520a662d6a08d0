import sys
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
    MAX_DIGITS,
    MAX_EXPONENT,
    MAX_NESTING,
    ParamScalar,
    ScalarMode,
    _padd,
    _pconst,
    _pdiv_exact,
    _pgcd,
    _pmul,
    parse_scalar,
    scalar_str,
    tokenize,
)

from helpers import (
    char_loop_tokenize,
    cross_multiplied,
    general_pdiv_exact,
    is_canonical,
    prs_gcd,
    term_loop_pmul,
)

RATIONAL = ScalarMode.rational()
PMODE = ScalarMode.params("n", "k", "lambda", "t1", "t2", "t3")


def sym(name):
    return PMODE.symbol(name)


def test_rational_addition():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_param_product_normalizes():
    k, t1, t2, t3 = sym("k"), sym("t1"), sym("t2"), sym("t3")
    n, lam = sym("n"), sym("lambda")
    value = (k * t1) * t2 - (n * k * lam) * (t3 * t3)
    expected = parse_scalar("k*t1*t2 - n*k*lambda*t3*t3", PMODE)
    assert value == expected


def test_param_division_gives_rational_function():
    k = sym("k")
    value = PMODE.one() / (2 * k)
    assert scalar_str(value) == "(1)/(2*k)"
    assert value * (2 * k) == PMODE.one()


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        PMODE.one() / PMODE.zero()
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


@pytest.mark.parametrize(
    "q", [0, 1, -1, Fraction(3, 7), Fraction(-3, 7), Fraction(12, 5), Fraction(-1, 9)]
)
def test_from_fraction_builds_the_canonical_form_directly(q):
    nvars = len(PMODE.symbols)
    q = Fraction(q)
    made = ParamScalar._make(
        PMODE.symbols, _pconst(nvars, q.numerator), _pconst(nvars, q.denominator)
    )
    direct = ParamScalar.from_fraction(PMODE.symbols, q)
    assert (direct.num, direct.den) == (made.num, made.den)
    assert hash(direct) == hash(made) == hash(q)


def test_constant_denominators_run_no_polynomial_gcd(monkeypatch):
    # over a constant denominator the gcd is an integer gcd with the content
    from lcscalc import scalar

    calls = []

    def counted(f):
        def wrapper(a, b):
            calls.append((f.__name__, a, b))
            return f(a, b)

        return wrapper

    def integer(p):
        return len(p) == 1 and not any(next(iter(p)))

    def checked_pmul(a, b):
        # the integer-denominator route never multiplies two denominators
        if integer(a) and integer(b):
            calls.append(("_pmul", a, b))
        return _pmul(a, b)

    monkeypatch.setattr(scalar, "_pgcd", counted(_pgcd))
    monkeypatch.setattr(scalar, "_pdiv_exact", counted(_pdiv_exact))
    monkeypatch.setattr(scalar, "_pmul", checked_pmul)
    k = sym("k")
    assert 2 * k == k + k
    half = Fraction(1, 3) * k + Fraction(1, 6) * k
    assert scalar_str(half) == "(k)/(2)"
    assert scalar_str(Fraction(-4, 6) * (k + 1)) == "(-2 - 2*k)/(3)"
    assert scalar_str(k / 3 - k / 2) == "(-k)/(6)"
    assert scalar_str((k + 1) / Fraction(-2, 3)) == "(-3 - 3*k)/(2)"
    assert scalar_str(k / 4 * (k / 6)) == "(k^2)/(24)"
    assert calls == []


def test_constants_display_as_rationals():
    half = PMODE.from_fraction(Fraction(1, 2))
    assert scalar_str(half) == "1/2"
    assert scalar_str(PMODE.zero()) == "0"
    assert half.as_fraction() == Fraction(1, 2)
    assert sym("k").as_fraction() is None


def _digits(n: int) -> str:
    """Decimal text of n > 0 in chunks of 100 digits, which str() renders under any limit."""
    chunks = []
    while n:
        n, r = divmod(n, 10**100)
        chunks.append(f"{r:0100d}")
    return "".join(reversed(chunks)).lstrip("0")


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="the interpreter has no int digit limit"
)
def test_integers_render_under_the_lowest_digit_limit():
    """640 is the lowest limit allowed: 2**2000 has 603 digits, 10**640 has 641."""
    big = 7 * 10**4999 + 3
    edges = [2**1999, 2**2000 - 1, 2**2000, 10**640, 3**5000]
    expected = [_digits(big)] + [_digits(n) for n in edges]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert len(expected[0]) == 5000
        assert [scalar_str(Fraction(n)) for n in [big] + edges] == expected
        assert scalar_str(Fraction(-big, 2**2000)) == f"-{expected[0]}/{expected[3]}"
        assert scalar_str(big * sym("k")) == f"{expected[0]}*k"
    finally:
        sys.set_int_max_str_digits(limit)


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
        value = {"add": value + piece, "mul": value * piece, "sub": value - piece}[op]
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


# ---------------------------------------------------------------------------
# one-term fast paths against the PRS gcd and the general division
# ---------------------------------------------------------------------------

NV = 3
exponents = st.tuples(*[st.integers(min_value=0, max_value=3)] * NV)
nonzero = st.integers(min_value=-12, max_value=12).filter(bool)
polys = st.dictionaries(exponents, nonzero, min_size=1, max_size=5)
monomials = st.dictionaries(exponents, nonzero, min_size=1, max_size=1)


def _constant(c):
    return {(0,) * NV: c}


@given(polys, st.one_of(monomials, nonzero.map(_constant)))
def test_one_term_gcd_matches_prs(p, m):
    expected = prs_gcd(p, m)
    assert _pgcd(p, m) == expected
    assert _pgcd(m, p) == expected


@given(polys, monomials)
def test_one_term_division_matches_general_path(p, m):
    product = _pmul(p, m)
    assert _pdiv_exact(product, m) == general_pdiv_exact(product, m) == p
    try:
        expected = general_pdiv_exact(p, m)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            _pdiv_exact(p, m)
    else:
        assert _pdiv_exact(p, m) == expected


multi_term = st.dictionaries(exponents, nonzero, min_size=2, max_size=5)


@given(polys, multi_term, st.one_of(st.just({}), polys, monomials))
def test_heap_division_matches_max_scan(a, b, extra):
    # a*b divides exactly; a*b + extra mostly does not
    dividend = _padd(_pmul(a, b), extra)
    try:
        expected = general_pdiv_exact(dividend, b)
    except ArithmeticError:
        assert extra
        with pytest.raises(ArithmeticError):
            _pdiv_exact(dividend, b)
    else:
        assert _pdiv_exact(dividend, b) == expected
        if not extra:
            assert expected == a


def test_one_term_division_raises_when_inexact():
    with pytest.raises(ArithmeticError):
        _pdiv_exact({(1, 0, 0): 3}, {(0, 1, 0): 1})
    with pytest.raises(ArithmeticError):
        _pdiv_exact({(1, 0, 0): 3, (0, 0, 0): 1}, _constant(3))


@given(polys, st.one_of(monomials, nonzero.map(_constant)))
def test_one_term_product_matches_the_term_loop(p, m):
    expected = term_loop_pmul(p, m)
    for product in (_pmul(p, m), _pmul(m, p)):
        assert product == expected
        assert product is not p and product is not m


# ---------------------------------------------------------------------------
# the integer-denominator route against the cross-multiplied formulas
# ---------------------------------------------------------------------------

SYMS = ("x", "y", "z")
int_dens = st.sampled_from([1, 2, 3, 4, 6, 12, -4, -9]).map(_constant)
# numerators of degree at most 2 and denominators of degree at most 1 in
# each symbol, so that the polynomial gcds of the products stay small
small_polys = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=2)] * NV), nonzero, min_size=1, max_size=4
)
linear_dens = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=1)] * NV), nonzero, min_size=1, max_size=3
)


@st.composite
def quotients(draw):
    num = draw(st.one_of(st.just({}), small_polys))
    den = draw(st.one_of(int_dens, int_dens, linear_dens))
    return ParamScalar._make(SYMS, num, den)


@st.composite
def operand_pairs(draw):
    a = draw(quotients())
    b = draw(
        st.one_of(
            quotients(),
            # the same denominator, reduced or not
            small_polys.map(lambda p: ParamScalar._make(SYMS, p, a.den)),
            # sums and differences that cancel to zero, or reduce after the lcm
            st.sampled_from([a, -a]),
            st.fractions(min_value=-3, max_value=3, max_denominator=4).map(lambda q: a * q),
            st.integers(min_value=-6, max_value=6),
            st.fractions(min_value=-4, max_value=4, max_denominator=6),
        )
    )
    return a, b


OPS = {
    "+": lambda x, y: x + y,
    "-": lambda x, y: x - y,
    "*": lambda x, y: x * y,
    "/": lambda x, y: x / y,
}


@given(operand_pairs())
def test_arithmetic_matches_the_cross_multiplied_formulas(pair):
    a, b = pair
    for x, y in ((a, b), (b, a)):
        for op, fn in OPS.items():
            if op == "/" and not y:
                continue
            got = fn(x, y)
            want = cross_multiplied(a._coerce(x), op, y)
            assert (got.num, got.den) == (want.num, want.den)
            assert hash(got) == hash(want)
            assert is_canonical(got)


@pytest.mark.parametrize(
    "a, b, total",
    [
        ("x/6", "x/3", "(x)/(2)"),
        ("(x + y)/4", "-(x + y)/12", "(x + y)/(6)"),
        ("x/10", "2*x/15", "(7*x)/(30)"),
        ("x/6", "5*x/6", "x"),
        ("y/4", "-y/4", "0"),
    ],
)
def test_sums_over_integer_denominators_reduce_after_the_lcm(a, b, total):
    mode = ScalarMode.params(*SYMS)
    a, b = parse_scalar(a, mode), parse_scalar(b, mode)
    for value, oracle in ((a + b, cross_multiplied(a, "+", b)), (a - -b, cross_multiplied(a, "-", -b))):
        assert scalar_str(value) == total
        assert (value.num, value.den) == (oracle.num, oracle.den)
        assert is_canonical(value)


@pytest.mark.parametrize(
    "text, divisor, expected",
    [
        ("x", -2, "(-x)/(2)"),
        ("x/3 + 1/3", Fraction(-1, 3), "-1 - x"),
        ("(2*x - 4*y)/6", -4, "(-x + 2*y)/(12)"),
        ("6*x*y", -3, "-2*x*y"),
        ("x/(y + 1)", -2, "(-x)/(2 + 2*y)"),
        ("(y + 1)/x", Fraction(-2, 5), "(-5 - 5*y)/(2*x)"),
    ],
)
def test_division_by_a_negative_constant_keeps_the_denominator_positive(text, divisor, expected):
    mode = ScalarMode.params(*SYMS)
    value = parse_scalar(text, mode) / divisor
    assert scalar_str(value) == expected
    assert is_canonical(value)


@st.composite
def rational_functions(draw):
    k, t1 = sym("k"), sym("t1")
    num = draw(param_scalars())
    den = draw(param_scalars()) + draw(st.sampled_from([k, t1, k * t1 + 1]))
    if not den:
        den = k
    return num / den


@given(rational_functions(), st.integers(min_value=0, max_value=6))
def test_power_equals_repeated_product(x, n):
    # __pow__ skips the gcd; the n-fold product runs it at every step
    product = PMODE.one()
    for _ in range(n):
        product = product * x
    power = x ** n
    assert (power.num, power.den) == (product.num, product.den)


# ---------------------------------------------------------------------------
# input limits on '^', nesting and integer literals
# ---------------------------------------------------------------------------


def test_exponent_limits():
    k = sym("k")
    assert parse_scalar(f"k^{MAX_EXPONENT}", PMODE) == k ** MAX_EXPONENT
    assert parse_scalar("(k+1)^2^3", PMODE) == (k + 1) ** 6
    for text in (
        f"k^{MAX_EXPONENT + 1}",
        "k^100000000",
        "2^40^40",  # chained exponents multiply
        "(k + t1 + t2 + 1)^200",  # up to C(203, 200) terms
    ):
        with pytest.raises(ExprSyntaxError):
            parse_scalar(text, PMODE)
    with pytest.raises(ExprSyntaxError):
        parse_scalar(f"2^{MAX_EXPONENT + 1}", RATIONAL)


def test_nesting_limit():
    ok = "(" * MAX_NESTING + "1" + ")" * MAX_NESTING
    assert parse_scalar(ok, RATIONAL) == 1
    with pytest.raises(ExprSyntaxError):
        parse_scalar("(" + ok + ")", RATIONAL)


def test_integer_literal_limit():
    assert parse_scalar("7" * MAX_DIGITS, RATIONAL) == int("7" * MAX_DIGITS)
    with pytest.raises(ExprSyntaxError) as info:
        parse_scalar("1 + " + "7" * (MAX_DIGITS + 1), RATIONAL)
    assert info.value.col == 5


# ---------------------------------------------------------------------------
# tokenizer on Unicode digits, numerals and letters
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, tokens",
    [
        # an identifier continues on any str.isalnum() character; a decimal
        # digit of any script is an integer
        ("k\u00b2 + \u0663", [("ident", "k\u00b2", 1), ("+", "+", 4), ("int", 3, 6)]),
        ("_x1 \u00e9t\u00e9", [("ident", "_x1", 1), ("ident", "\u00e9t\u00e9", 5)]),
    ],
)
def test_tokenize_unicode_words(text, tokens):
    assert tokenize(text) == tokens + [("end", None, len(text) + 1)]


@pytest.mark.parametrize(
    "text, col",
    # superscript two is a digit but not decimal, one half is numeric only:
    # neither starts a token; a newline is not a blank
    [("2\u00b2", 2), ("\u00bd*k", 1), ("k\n", 2)],
)
def test_tokenize_refuses_numerals_that_are_not_decimal(text, col):
    with pytest.raises(ExprSyntaxError, match="unexpected character") as info:
        tokenize(text)
    assert info.value.col == col


def _tokens_or_error(fn, text, line, col):
    try:
        return fn(text, line, col)
    except ExprSyntaxError as exc:
        return type(exc), str(exc), exc.line, exc.col


@given(
    st.text(alphabet="1\u00b2\u0663 a_\u00e9^(-)/*;#=\t\r\n\u00bd0k", max_size=24)
    | st.text(max_size=12),
    st.integers(1, 9),
    st.integers(1, 40),
)
def test_tokenize_matches_the_character_loop(text, line, col):
    got = _tokens_or_error(tokenize, text, line, col)
    assert got == _tokens_or_error(char_loop_tokenize, text, line, col)
