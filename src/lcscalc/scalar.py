"""Exact coefficient arithmetic.

Two modes are supported: plain rationals (``fractions.Fraction``) and
rational functions in a declared tuple of parameter symbols (`ParamScalar`).
A `ParamScalar` is a quotient of integer-coefficient multivariate
polynomials kept in a canonical form: numerator and denominator are coprime
(polynomial gcd, integer content included), and the denominator's first
term in ascending graded-lexicographic order has a positive coefficient.
Equality and zero tests are therefore structural and exact.

Most values have an integer denominator.  When both operands of `+ - *`
have one, and for `/` when the dividend's denominator and the divisor's
numerator are integers, the result is formed on numerators alone: equal
denominators add as they are, unequal ones are scaled to their lcm, and no
two denominator polynomials are multiplied.  `_over_int` then reduces
num/c by gcd(c, content(num)) with the sign of c.  For an integer c that
is the polynomial gcd of num and c, so the pair is the canonical form the
cross-multiplied formulas would reach through `_make`.

Scalar text is read by a recursive-descent parser over flat tokens:
`tokenize` makes one `(kind, value, col)` tuple per token, and the cursor
keeps the line, so no object is built per token.  The form grammar in
`specfile` reuses the scalar atoms, factors and powers.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from math import comb, gcd, lcm
from operator import add, sub
from typing import Callable, Iterator, Union

from .errors import (
    DivisionByZero,
    ExprSyntaxError,
    MixedModes,
    UndeclaredParameter,
)

Scalar = Union[Fraction, "ParamScalar"]

# ---------------------------------------------------------------------------
# integer multivariate polynomials as {exponent tuple: nonzero int}
# ---------------------------------------------------------------------------


def _grlex(e: tuple[int, ...]) -> tuple:
    # graded order: total degree first, then lex with earlier symbols ranked
    # higher; this is the display order and the leading-term order at once
    return (sum(e), tuple(-x for x in e))


def _padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return out


def _pneg(a: dict) -> dict:
    return {e: -c for e, c in a.items()}


def _psub(a: dict, b: dict) -> dict:
    return _padd(a, _pneg(b))


def _pmul(a: dict, b: dict) -> dict:
    for p, q in ((a, b), (b, a)):
        if len(q) == 1:
            ((e, c),) = q.items()
            if not any(e):
                # a constant factor scales coefficients; no exponent sums
                return {ep: cp * c for ep, cp in p.items()}
            # one term shifts distinct exponents to distinct ones: none collect
            return {tuple(map(add, ep, e)): cp * c for ep, cp in p.items()}
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def _pconst(nvars: int, c: int) -> dict:
    return {(0,) * nvars: c} if c else {}


def _plead_min(p: dict) -> tuple[int, ...]:
    return min(p, key=_grlex)


def _psign_norm(p: dict) -> dict:
    if p and p[_plead_min(p)] < 0:
        return _pneg(p)
    return p


def _pcontent_int(p: dict) -> int:
    return gcd(*p.values())


def _int_den(p: dict) -> int | None:
    """The integer c if p is the constant polynomial c, else None."""
    if len(p) == 1:
        ((e, c),) = p.items()
        if not any(e):
            return c
    return None


def _pscale(p: dict, m: int) -> dict:
    return {e: c * m for e, c in p.items()}


def _pdiv_exact(a: dict, b: dict) -> dict:
    """Exact division a/b; raises ArithmeticError if b does not divide a.

    A multi-term divisor runs the heap division of Monagan and Pearce
    (J. Symbolic Comput. 46, 2011): the remainder's exponents sit in a heap
    keyed `(-degree, e)`, which pops them in descending `_grlex` order, so
    each pop is the remainder's leading term.  Each step cancels that term
    and subtracts the divisor's other terms in place; in a graded monomial
    order they all land below it.  A term cancelled to zero keeps its heap
    entry, and one that reappears gets a second, so a popped exponent no
    longer in the remainder is stale and skipped.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(b) == 1:
        # one-term divisor: divide term by term, no remainder loop
        ((eb, cb),) = b.items()
        q = {}
        for ea, ca in a.items():
            e = tuple(x - y for x, y in zip(ea, eb))
            if ca % cb or any(x < 0 for x in e):
                raise ArithmeticError("inexact polynomial division")
            q[e] = ca // cb
        return q
    eb = max(b, key=_grlex)
    cb = b[eb]
    tail = [(e, c) for e, c in b.items() if e != eb]
    q: dict = {}
    r = dict(a)
    heap = [(-sum(e), e) for e in r]
    heapify(heap)
    while heap:
        er = heappop(heap)[1]
        cr = r.pop(er, 0)
        if not cr:
            continue
        e = tuple(map(sub, er, eb))
        if min(e) < 0 or cr % cb:
            raise ArithmeticError("inexact polynomial division")
        q[e] = c = cr // cb
        for et, ct in tail:
            m = tuple(map(add, e, et))
            s = r.get(m, 0) - c * ct
            if not s:
                del r[m]
                continue
            if m not in r:
                heappush(heap, (-sum(m), m))
            r[m] = s
    return q


def _deg_in(p: dict, v: int) -> int:
    return max((e[v] for e in p), default=-1)


def _coeffs_in(p: dict, v: int) -> dict[int, dict]:
    """Split p by the exponent of variable v; values have v-exponent zero."""
    out: dict[int, dict] = {}
    for e, c in p.items():
        e0 = e[:v] + (0,) + e[v + 1 :]
        out.setdefault(e[v], {})[e0] = c
    return out


def _lc_in(p: dict, v: int) -> dict:
    return _coeffs_in(p, v)[_deg_in(p, v)]


def _prem(f: dict, g: dict, v: int) -> dict:
    """Pseudo-remainder of f by g viewed as polynomials in variable v."""
    dg = _deg_in(g, v)
    lg = _lc_in(g, v)
    nvars = len(next(iter(g)))
    while f and _deg_in(f, v) >= dg:
        df = _deg_in(f, v)
        lf = _lc_in(f, v)
        shift = {(0,) * v + (df - dg,) + (0,) * (nvars - v - 1): 1}
        f = _psub(_pmul(lg, f), _pmul(_pmul(lf, shift), g))
    return f


def _content_in(p: dict, v: int) -> dict:
    return reduce(_pgcd, _coeffs_in(p, v).values())


def _pp_in(p: dict, v: int) -> dict:
    if not p:
        return p
    return _pdiv_exact(p, _content_in(p, v))


def _pgcd(a: dict, b: dict) -> dict:
    """Polynomial gcd over the integers (primitive PRS), sign-normalized."""
    if not a:
        return _psign_norm(dict(b))
    if not b:
        return _psign_norm(dict(a))
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        # a one-term operand c*x^e divides only monomials, so the gcd is
        # gcd(c, content) times x to the componentwise minimum exponent
        ((e, c),) = a.items()
        for eb in b:
            e = tuple(map(min, e, eb))
        return {e: gcd(c, _pcontent_int(b))}
    # both operands have two or more terms, so some variable occurs
    nvars = len(next(iter(a)))
    v = next(i for i in range(nvars) if _deg_in(a, i) > 0 or _deg_in(b, i) > 0)
    ca, cb = _content_in(a, v), _content_in(b, v)
    f, g = _pdiv_exact(a, ca), _pdiv_exact(b, cb)
    if _deg_in(f, v) < _deg_in(g, v):
        f, g = g, f
    while g:
        r = _prem(f, g, v)
        f, g = g, (_pp_in(r, v) if r else {})
    return _psign_norm(_pmul(_pgcd(ca, cb), _pp_in(f, v)))


# ---------------------------------------------------------------------------
# ParamScalar: canonical quotient of integer polynomials
# ---------------------------------------------------------------------------


class ParamScalar:
    """A rational function in the declared parameter symbols.

    Values are immutable; all arithmetic returns new canonical instances.
    Mixing with `int` or `Fraction` coerces the number into the same
    symbol tuple; mixing two different symbol tuples raises `MixedModes`.
    """

    __slots__ = ("symbols", "num", "den")

    def __init__(self, symbols: tuple[str, ...], num: dict, den: dict):
        self.symbols = symbols
        self.num = num
        self.den = den

    # construction ---------------------------------------------------------

    @staticmethod
    def _make(symbols: tuple[str, ...], num: dict, den: dict) -> "ParamScalar":
        """The canonical form of num/den.

        A constant denominator c needs no polynomial gcd and goes to
        `_over_int`, the one integer canonicaliser, which the arithmetic's
        integer-denominator route calls too.  Any other denominator is
        reduced by the polynomial gcd `_pgcd`.
        """
        if not den:
            raise DivisionByZero("scalar division by zero")
        c = _int_den(den)
        if c is not None:
            return _over_int(symbols, num, c)
        nvars = len(symbols)
        if not num:
            return ParamScalar(symbols, {}, _pconst(nvars, 1))
        g = _pgcd(num, den)
        if g != _pconst(nvars, 1):
            num = _pdiv_exact(num, g)
            den = _pdiv_exact(den, g)
        if den[_plead_min(den)] < 0:
            num, den = _pneg(num), _pneg(den)
        return ParamScalar(symbols, num, den)

    @staticmethod
    def from_fraction(symbols: tuple[str, ...], q: Fraction | int) -> "ParamScalar":
        # a Fraction is in lowest terms with a positive denominator: canonical
        q = Fraction(q)
        nvars = len(symbols)
        return ParamScalar(symbols, _pconst(nvars, q.numerator), _pconst(nvars, q.denominator))

    @staticmethod
    def symbol(symbols: tuple[str, ...], name: str) -> "ParamScalar":
        i = symbols.index(name)
        nvars = len(symbols)
        e = (0,) * i + (1,) + (0,) * (nvars - i - 1)
        return ParamScalar(symbols, {e: 1}, _pconst(nvars, 1))

    # coercion ---------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ParamScalar):
            if other.symbols != self.symbols:
                raise MixedModes(
                    f"cannot mix parameter sets {self.symbols} and {other.symbols}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return ParamScalar.from_fraction(self.symbols, other)
        return None

    # arithmetic -------------------------------------------------------------

    def _combine(self, o: "ParamScalar", op: Callable) -> "ParamScalar":
        """self + o or self - o, for op `_padd` or `_psub`."""
        c, e = _int_den(self.den), _int_den(o.den)
        if c is None or e is None:
            num = op(_pmul(self.num, o.den), _pmul(o.num, self.den))
            return ParamScalar._make(self.symbols, num, _pmul(self.den, o.den))
        if c == e:
            return _over_int(self.symbols, op(self.num, o.num), c)
        m = lcm(c, e)
        num = op(_pscale(self.num, m // c), _pscale(o.num, m // e))
        return _over_int(self.symbols, num, m)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o, _padd)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o, _psub)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def _times(self, num: dict, den: dict) -> "ParamScalar":
        """self * (num/den): o for `*`, and o inverted for `/`."""
        c, e = _int_den(self.den), _int_den(den)
        if c is not None and e is not None:
            return _over_int(self.symbols, _pmul(self.num, num), c * e)
        return ParamScalar._make(self.symbols, _pmul(self.num, num), _pmul(self.den, den))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._times(o.num, o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise DivisionByZero("scalar division by zero")
        return self._times(o.den, o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return ParamScalar(self.symbols, _pneg(self.num), self.den)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        # no gcd needed: coprime factors stay coprime in a UFD, and the
        # lowest term of a product under the monomial order _grlex is the
        # product of lowest terms, so the denominator's stays positive.
        # Multiplying by the small base n times is cheaper than squaring
        # ever larger dense multivariate polynomials.
        num = den = _pconst(len(self.symbols), 1)
        for _ in range(n):
            num = _pmul(num, self.num)
            den = _pmul(den, self.den)
        return ParamScalar(self.symbols, num, den)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # a constant equals the matching Fraction, so it must hash like one
        q = self.as_fraction()
        if q is not None:
            return hash(q)
        return hash(
            (self.symbols, frozenset(self.num.items()), frozenset(self.den.items()))
        )

    # inspection ---------------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        zero = (0,) * len(self.symbols)
        return set(self.num) <= {zero} and set(self.den) == {zero}

    def as_fraction(self) -> Fraction | None:
        """The value as an exact rational, or None if symbols occur."""
        if not self.is_constant:
            return None
        zero = (0,) * len(self.symbols)
        return Fraction(self.num.get(zero, 0), self.den[zero])

    def __repr__(self):
        return f"ParamScalar({scalar_str(self)!r})"

    def __str__(self):
        return scalar_str(self)


def _over_int(symbols: tuple[str, ...], num: dict, c: int) -> ParamScalar:
    """The canonical form of num/c for a nonzero integer c.

    gcd(num, c) is the integer gcd(c, content(num)), taken with the sign of
    c so that the reduced denominator is positive.
    """
    if not num:
        return ParamScalar(symbols, {}, _pconst(len(symbols), 1))
    g = gcd(c, *num.values())
    if c < 0:
        g = -g
    if g != 1:
        num = {e: x // g for e, x in num.items()}
        c //= g
    return ParamScalar(symbols, num, _pconst(len(symbols), c))


# ---------------------------------------------------------------------------
# rows of scalars as ring elements, for fraction-free elimination
# ---------------------------------------------------------------------------


class _Poly:
    """An integer polynomial as a ring element: `* - // bool` and nothing else.

    `//` is exact division and raises ArithmeticError when it is not exact.
    """

    __slots__ = ("p",)

    def __init__(self, p: dict):
        self.p = p

    def __mul__(self, other: "_Poly") -> "_Poly":
        return _Poly(_pmul(self.p, other.p))

    def __sub__(self, other: "_Poly") -> "_Poly":
        return _Poly(_psub(self.p, other.p))

    def __floordiv__(self, other: "_Poly") -> "_Poly":
        return _Poly(_pdiv_exact(self.p, other.p))

    def __bool__(self) -> bool:
        return bool(self.p)


def _fraction_row(row: list) -> list[int]:
    """A row of rationals times the lcm of its denominators, as Python ints."""
    m = lcm(*(x.denominator for x in row))
    return [x.numerator * (m // x.denominator) for x in row]


def _param_row(symbols: tuple[str, ...], row: list) -> list[_Poly]:
    """A row of rational functions times a common denominator.

    The multiplier is the lcm of the denominators' integer contents times
    each distinct primitive part once; a Fraction entry counts as a constant
    in the same symbols.
    """
    nvars = len(symbols)
    pairs = [(x.num, x.den) for x in map(ScalarMode(symbols).coerce, row)]
    contents, parts = [], []
    for num, den in pairs:
        if num:
            c = _pcontent_int(den)
            contents.append(c)
            part = _pdiv_exact(den, _pconst(nvars, c))
            if part != _pconst(nvars, 1) and part not in parts:
                parts.append(part)
    common = _pconst(nvars, lcm(*contents))
    for part in parts:
        common = _pmul(common, part)
    return [_Poly(_pmul(num, _pdiv_exact(common, den)) if num else {}) for num, den in pairs]


def ring_rows(rows: list[list]) -> tuple[list[list], object, Callable]:
    """Scale each row of exact scalars into a ring with exact division.

    Rational matrices become Python ints; a matrix with any `ParamScalar`
    entry becomes integer polynomials (`_Poly`) in its symbols.  Scaling a
    row by a nonzero scalar keeps its row space.  Returns the ring rows,
    the ring's one, and `quotient(a, b)`, the scalar a/b in the matrix's mode.
    """
    symbols = next(
        (x.symbols for row in rows for x in row if isinstance(x, ParamScalar)), None
    )
    if symbols is None:
        return [_fraction_row(row) for row in rows], 1, Fraction
    one = _Poly(_pconst(len(symbols), 1))

    def quotient(a: _Poly, b: _Poly) -> ParamScalar:
        return ParamScalar._make(symbols, a.p, b.p)

    return [_param_row(symbols, row) for row in rows], one, quotient


# ---------------------------------------------------------------------------
# mode
# ---------------------------------------------------------------------------


class ScalarMode:
    """Coefficient mode of an algebra: rational, or rational functions."""

    __slots__ = ("symbols",)

    def __init__(self, symbols: tuple[str, ...] | None = None):
        if symbols is not None:
            symbols = tuple(symbols)
            if len(set(symbols)) != len(symbols):
                raise ValueError("parameter symbols must be distinct")
            for s in symbols:
                if not s.isidentifier():
                    raise ValueError(f"invalid parameter symbol {s!r}")
        self.symbols = symbols

    @staticmethod
    def rational() -> "ScalarMode":
        return ScalarMode(None)

    @staticmethod
    def params(*symbols: str) -> "ScalarMode":
        return ScalarMode(tuple(symbols))

    @property
    def is_param(self) -> bool:
        return self.symbols is not None

    def zero(self) -> Scalar:
        return self.from_fraction(0)

    def one(self) -> Scalar:
        return self.from_fraction(1)

    def from_fraction(self, q: Fraction | int) -> Scalar:
        if self.symbols is None:
            return Fraction(q)
        return ParamScalar.from_fraction(self.symbols, q)

    def symbol(self, name: str) -> ParamScalar:
        if self.symbols is None or name not in self.symbols:
            raise UndeclaredParameter(f"parameter {name!r} is not declared")
        return ParamScalar.symbol(self.symbols, name)

    def coerce(self, x) -> Scalar:
        if isinstance(x, ParamScalar):
            if self.symbols != x.symbols:
                raise MixedModes(
                    f"scalar over {x.symbols} used in mode {self.symbols}"
                )
            return x
        return self.from_fraction(x)

    def __eq__(self, other):
        return isinstance(other, ScalarMode) and self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    def __repr__(self):
        if self.symbols is None:
            return "ScalarMode.rational()"
        return f"ScalarMode.params{self.symbols}"


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _int_str(n: int) -> str:
    """Decimal text of an integer of any size.

    str() refuses integers above the interpreter's digit limit
    (`sys.set_int_max_str_digits`, 4300 by default and never below 640), so
    only integers below 2,000 bits, at most 603 digits, take it; the others go
    through Decimal, which has no limit.
    """
    return str(n) if n.bit_length() < 2000 else str(Decimal(n))


def _monomial_str(symbols: tuple[str, ...], e: tuple[int, ...]) -> str:
    parts = []
    for name, p in zip(symbols, e):
        if p == 1:
            parts.append(name)
        elif p > 1:
            parts.append(f"{name}^{_int_str(p)}")
    return "*".join(parts)


def _poly_str(symbols: tuple[str, ...], p: dict) -> str:
    if not p:
        return "0"
    out = []
    for e in sorted(p, key=_grlex):
        c = p[e]
        mon = _monomial_str(symbols, e)
        if mon:
            body = mon if abs(c) == 1 else f"{_int_str(abs(c))}*{mon}"
        else:
            body = _int_str(abs(c))
        if not out:
            out.append(f"-{body}" if c < 0 else body)
        else:
            out.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(out)


def scalar_str(x: Scalar) -> str:
    """Canonical text form; `parse_scalar` reads it back verbatim while every
    integer in it has at most MAX_DIGITS digits."""
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        num = _int_str(x.numerator)
        return num if x.denominator == 1 else f"{num}/{_int_str(x.denominator)}"
    q = x.as_fraction()
    if q is not None:
        return scalar_str(q)
    one = _pconst(len(x.symbols), 1)
    if x.den == one:
        if len(x.num) > 1:
            c = _pcontent_int(x.num)
            if x.num[_plead_min(x.num)] < 0:
                c = -c
            if abs(c) != 1:
                prim = _pdiv_exact(x.num, _pconst(len(x.symbols), c))
                return f"{_int_str(c)}*({_poly_str(x.symbols, prim)})"
        return _poly_str(x.symbols, x.num)
    return f"({_poly_str(x.symbols, x.num)})/({_poly_str(x.symbols, x.den)})"


def needs_parens(s: str) -> bool:
    """True if the rendered scalar has a top-level '+' or '-' after position 0."""
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > 0:
            return True
    return False


# ---------------------------------------------------------------------------
# tokenizer and parser
# ---------------------------------------------------------------------------

_PUNCT = "+-*/^()="

# input limits: a '^' exponent (chained ones multiply), the number of terms
# a power may reach, parenthesis nesting, which recurses in the parser, and
# the digits of an integer literal (int() refuses longer text)
MAX_EXPONENT = 1000
MAX_POWER_TERMS = 10**6
MAX_NESTING = 100
MAX_DIGITS = 4300


def tokenize(text: str, line: int = 1, col: int = 1) -> list[tuple]:
    """Split an expression into flat `(kind, value, col)` tuples.

    kind is "int" (value the int), "ident" (value the name), a punctuation
    character (value the same character) or "end" (value None), which
    closes every list.  Blanks are space, tab and carriage return; a digit
    is a decimal digit of any script, and an identifier starts with a
    letter or '_' and continues on letters, digits, numerals and '_'.  `col`
    places the first character of the text in its file, so each tuple
    carries its 1-based column; the line is kept by the `_Cursor`.
    """
    out: list[tuple] = []
    append = out.append
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r":
            i += 1
        elif ch in _PUNCT:
            append((ch, ch, col + i))
            i += 1
        elif ch.isdecimal():
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            if j - i > MAX_DIGITS:
                raise ExprSyntaxError(
                    f"integer literal of {j - i} digits is above the limit of {MAX_DIGITS}",
                    line,
                    col + i,
                )
            append(("int", int(text[i:j]), col + i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            append(("ident", text[i:j], col + i))
            i = j
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", line, col + i)
    append(("end", None, col + n))
    return out


class _Cursor:
    """Position in the token list of one text, with its line and nesting depth."""

    __slots__ = ("tokens", "pos", "depth", "line")

    def __init__(self, text: str, line: int = 1, col: int = 1):
        self.tokens = tokenize(text, line, col)
        self.pos = 0
        self.depth = 0
        self.line = line

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def next(self) -> tuple:
        t = self.tokens[self.pos]
        if t[0] != "end":
            self.pos += 1
        return t

    def error(self, message: str, col: int) -> ExprSyntaxError:
        return ExprSyntaxError(message, self.line, col)

    def expect(self, kind: str) -> tuple:
        t = self.peek()
        if t[0] != kind:
            raise self.error(
                f"expected {kind!r}, found {t[1]!r}" if t[0] != "end"
                else f"expected {kind!r}, found end of input",
                t[2],
            )
        return self.next()


def _parse_scalar_expr(cur: _Cursor, mode: ScalarMode) -> Scalar:
    value = _parse_scalar_term(cur, mode)
    while cur.peek()[0] in "+-":
        op = cur.next()[0]
        rhs = _parse_scalar_term(cur, mode)
        value = value + rhs if op == "+" else value - rhs
    return value


def _parse_scalar_term(cur: _Cursor, mode: ScalarMode) -> Scalar:
    value = _parse_scalar_factor(cur, mode)
    while cur.peek()[0] in "*/":
        op = cur.next()[0]
        rhs = _parse_scalar_factor(cur, mode)
        if op == "*":
            value = value * rhs
        else:
            if not rhs:
                raise DivisionByZero("scalar division by zero")
            value = value / rhs
    return value


def _parse_scalar_factor(cur: _Cursor, mode: ScalarMode) -> Scalar:
    sign = 1
    while cur.peek()[0] in "+-":
        if cur.next()[0] == "-":
            sign = -sign
    value = _parse_exponent(cur, _parse_scalar_atom(cur, mode))
    return -value if sign < 0 else value


def _parse_exponent(cur: _Cursor, base: Scalar) -> Scalar:
    """Raise base to the '^' exponents that follow it, within the input limits.

    The largest power of a polynomial with t terms has C(t+e-1, e) terms
    (the monomials of degree e in t unknowns), so that bounds its size.
    """
    if cur.peek()[0] != "^":
        return base
    e = 1
    while cur.peek()[0] == "^":
        caret = cur.next()
        kind, value, col = cur.peek()
        if kind != "int":
            raise cur.error("exponent must be a nonnegative integer", caret[2])
        cur.next()
        e *= value
        if e > MAX_EXPONENT:
            raise cur.error(f"exponent {_int_str(e)} is above the limit of {MAX_EXPONENT}", col)
    if isinstance(base, ParamScalar):
        terms = max(len(base.num), len(base.den))
        if comb(terms + e - 1, e) > MAX_POWER_TERMS:
            raise cur.error(
                f"power of a {terms}-term polynomial to {e} may exceed {MAX_POWER_TERMS} terms",
                col,
            )
    return base ** e


def _parse_scalar_atom(cur: _Cursor, mode: ScalarMode) -> Scalar:
    kind, value, col = cur.peek()
    if kind == "int":
        cur.next()
        return mode.from_fraction(value)
    if kind == "ident":
        if mode.symbols is None or value not in mode.symbols:
            raise UndeclaredParameter(
                f"parameter {value!r} is not declared (line {cur.line}, column {col})"
            )
        cur.next()
        return mode.symbol(value)
    if kind == "(":
        if cur.depth == MAX_NESTING:
            raise cur.error(f"parentheses nested deeper than {MAX_NESTING}", col)
        cur.next()
        cur.depth += 1
        value = _parse_scalar_expr(cur, mode)
        cur.expect(")")
        cur.depth -= 1
        return value
    raise cur.error(
        "expected a number, parameter or '('" if kind == "end" else f"unexpected {value!r}",
        col,
    )


def parse_scalar(text: str, mode: ScalarMode) -> Scalar:
    """Parse an exact scalar expression.

    Grammar: sums/differences of terms; terms multiply/divide factors; a
    factor is an optionally signed atom with optional integer '^' powers;
    atoms are integers, declared parameters, or parenthesized expressions.
    Powers, nesting and integer literals are bounded by MAX_EXPONENT,
    MAX_POWER_TERMS, MAX_NESTING and MAX_DIGITS; input beyond them raises
    ExprSyntaxError.
    """
    cur = _Cursor(text)
    value = _parse_scalar_expr(cur, mode)
    kind, tail, col = cur.peek()
    if kind != "end":
        raise cur.error(f"trailing input {tail!r}", col)
    return value
