"""Text format for algebras and expressions for forms.

File layout (UTF-8, '#' comments, blank lines ignored, \\r\\n tolerated)::

    params k lambda          # optional: declares parameter symbols
    generators alpha beta gamma eta
    d alpha = -1*k alpha^gamma
    d beta  = k beta^gamma
    d eta   = 1 alpha^beta   # omitted generators default to d = 0
    metric diag 1 1 1 1      # optional, defaults to the identity

A form expression is a signed sum of terms; each term is an optional
scalar prefix (same grammar as scalars, juxtaposition multiplies) followed
by an optional generator chain joined with '^'.  The integer literals of a
term multiply and divide as Python ints.  In rational mode a form takes
them as integer numerators over one denominator, so no Fraction is made
for a term of literals; in parameter mode one scalar of the mode is made
per term.  `serialize` output parses back to the same value.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .cecomplex import Algebra
from .errors import DivisionByZero, ExprSyntaxError, InvalidMetric
from .exterior import Basis, Form, form_str
from .scalar import (
    ScalarMode,
    _Cursor,
    _parse_exponent,
    _parse_scalar_atom,
    scalar_str,
)


def _parse_scalar_factor(cur: _Cursor, mode: ScalarMode):
    # unlike the scalar grammar's factor, no sign: signs join form terms
    return _parse_exponent(cur, _parse_scalar_atom(cur, mode))


def _ratio(mode: ScalarMode, num: int, den: int):
    q = Fraction(num, den)
    return q if mode.symbols is None else mode.from_fraction(q)


def _parse_form_term(cur: _Cursor, index: dict, mode: ScalarMode, neg: bool) -> tuple:
    """One additive term: its degree, a raw `(index tuple, numerator)` pair and a denominator.

    In rational mode numerator and denominator are ints, the denominator
    positive; in parameter mode the numerator is the mode scalar and the
    denominator 1.

    Juxtaposition multiplies scalar factors; '*' may also join the last
    factor to the generator chain.  Integer literals without a '^' (`13/87`,
    `3*`) multiply and divide as Python ints; the first other factor (a
    parameter, '(' or a power) hands them over to the scalar grammar as one
    mode scalar, which then takes every later factor.  A chain longer than
    the dimension repeats a generator, so it is zero (as in `Form.wedge`): a
    zero term of degree N.  `index` maps generator names to their positions;
    only an identifier token can match one.  The sign of a `neg` term starts
    the integer numerator, or else negates the coefficient once.
    """
    tokens = cur.tokens
    num, den = -1 if neg else 1, 1
    literal = False  # num/den has taken a literal
    coeff = None  # the mode scalar, from the first factor that is not a plain literal
    while True:
        kind, value, col = tokens[cur.pos]
        if value in index or kind not in ("int", "ident", "("):
            break
        op = "*"  # how the next factor joins
        while True:
            if coeff is None and kind == "int" and tokens[cur.pos + 1][0] != "^":
                cur.pos += 1
                if op == "*":
                    num *= value
                elif value:
                    den *= value
                else:
                    raise DivisionByZero("scalar division by zero")
                literal = True
            else:
                factor = _parse_scalar_factor(cur, mode)
                if op == "/" and not factor:
                    raise DivisionByZero("scalar division by zero")
                if coeff is None and literal:  # hand the literals over
                    coeff = _ratio(mode, num, den)
                if coeff is None:
                    coeff = factor
                else:
                    coeff = coeff * factor if op == "*" else coeff / factor
            op = tokens[cur.pos][0]
            if op != "*" and op != "/":
                break
            cur.pos += 1
            kind, value, col = tokens[cur.pos]
            if value in index:
                if op == "/":
                    raise cur.error("cannot divide by a generator", col)
                break
    gens: list[int] = []
    i = index.get(tokens[cur.pos][1])
    while i is not None:
        gens.append(i)
        cur.pos += 1
        caret, _, caret_col = tokens[cur.pos]
        if caret != "^":
            break
        cur.pos += 1
        i = index.get(tokens[cur.pos][1])
        if i is None:
            raise cur.error("'^' in a form term must join generator names", caret_col)
    if coeff is None and not (literal or gens):
        kind, value, col = tokens[cur.pos]
        raise cur.error(
            "expected a scalar or generator" if kind == "end" else f"unexpected {value!r}",
            col,
        )
    if len(gens) > len(index):
        return len(index), ((), 0), 1
    if mode.symbols is None:
        if coeff is not None:  # a Fraction of the scalar grammar
            num, den = coeff.numerator, coeff.denominator
            if neg and not literal:
                num = -num
        return len(gens), (tuple(gens), num), den
    if coeff is None:
        coeff = _ratio(mode, num, den)
    elif neg and not literal:
        coeff = -coeff
    return len(gens), (tuple(gens), coeff), 1


def _form(basis: Basis, degree: int, pairs: list, dens: list) -> Form:
    """The Form of raw `(index tuple, numerator)` pairs over their denominators, over their lcm."""
    m = lcm(*dens)
    if m > 1:
        pairs = [(idx, n if den == m else n * (m // den)) for (idx, n), den in zip(pairs, dens)]
    return Form(basis, degree, pairs, m)


def _parse_form(cur: _Cursor, basis: Basis, index: dict, mode: ScalarMode) -> Form:
    """A signed sum of terms, with the value and the errors of chained `+`.

    The terms are summed by one Form; only a term of another degree meets
    the running sum through `+`, which allows that only if either is zero.
    """
    op = cur.next()[0] if cur.peek()[0] in "+-" else "+"
    degree, pairs, dens = None, [], []
    while True:
        term_degree, pair, den = _parse_form_term(cur, index, mode, op == "-")
        if degree is None or term_degree == degree:
            degree = term_degree
            pairs.append(pair)
            dens.append(den)
        else:
            total = _form(basis, degree, pairs, dens) + _form(basis, term_degree, [pair], [den])
            degree, pairs = total.degree, list(total.nums.items())
            dens = [total.den or 1] * len(pairs)
        if cur.peek()[0] not in "+-":
            return _form(basis, degree, pairs, dens)
        op = cur.next()[0]


def parse_form_expr(
    text: str, basis: Basis, mode: ScalarMode, line: int = 1, col: int = 1
) -> Form:
    """Parse a form expression against a basis and coefficient mode.

    `line` and `col` place the text in its file for diagnostics.
    """
    cur = _Cursor(text, line, col)
    index = {name: i for i, name in enumerate(basis.names)}
    form = _parse_form(cur, basis, index, mode)
    kind, value, col = cur.peek()
    if kind != "end":
        raise cur.error(f"trailing input {value!r}", col)
    return form


# ---------------------------------------------------------------------------
# algebra files
# ---------------------------------------------------------------------------


def parse_algebra_text(text: str) -> Algebra:
    """Parse the line-oriented algebra format into a validated-shape Algebra.

    Structural soundness (d*d = 0) is not enforced here; `check` reports it.
    """
    params: tuple[str, ...] | None = None
    generators: tuple[str, ...] | None = None
    dlines: dict[str, tuple[str, int, int]] = {}
    metric_line: tuple[str, int, int] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0].rstrip()
        line = code.lstrip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "params":
            if generators is not None:
                raise ExprSyntaxError("params must precede generators", lineno, 1)
            if params is not None:
                raise ExprSyntaxError("duplicate params line", lineno, 1)
            names = tuple(rest.split())
            if not names:
                raise ExprSyntaxError("params line declares no symbols", lineno, 1)
            for name in names:
                if not name.isidentifier():
                    raise ExprSyntaxError(f"invalid parameter name {name!r}", lineno, 1)
            if len(set(names)) != len(names):
                raise ExprSyntaxError("parameter names must be distinct", lineno, 1)
            params = names
        elif head == "generators":
            if generators is not None:
                raise ExprSyntaxError("duplicate generators line", lineno, 1)
            names = tuple(rest.split())
            if not names:
                raise ExprSyntaxError("generators line declares no names", lineno, 1)
            if params and set(params) & set(names):
                clash = sorted(set(params) & set(names))
                raise ExprSyntaxError(
                    f"names used as both parameter and generator: {clash}", lineno, 1
                )
            generators, generators_line = names, lineno
        elif head == "d":
            if generators is None:
                raise ExprSyntaxError("d line before generators", lineno, 1)
            gen, eq, expr = rest.partition("=")
            gen = gen.strip()
            if not eq:
                raise ExprSyntaxError("d line needs '='", lineno, 1)
            if gen not in generators:
                raise ExprSyntaxError(f"unknown generator {gen!r}", lineno, 1)
            if gen in dlines:
                raise ExprSyntaxError(f"duplicate d line for {gen!r}", lineno, 1)
            expr = expr.strip()
            dlines[gen] = (expr, lineno, len(code) - len(expr) + 1)
        elif head == "metric":
            if generators is None:
                raise ExprSyntaxError("metric line before generators", lineno, 1)
            if metric_line is not None:
                raise ExprSyntaxError("duplicate metric line", lineno, 1)
            kind, _, entries = rest.partition(" ")
            if kind != "diag":
                raise ExprSyntaxError("only 'metric diag' is supported", lineno, 1)
            entries = entries.strip()
            metric_line = (entries, lineno, len(code) - len(entries) + 1)
        else:
            raise ExprSyntaxError(f"unknown directive {head!r}", lineno, 1)
    if generators is None:
        raise ExprSyntaxError("missing generators line", 1, 1)
    mode = ScalarMode.params(*params) if params else ScalarMode.rational()
    try:
        basis = Basis(generators)
    except ValueError as exc:
        raise ExprSyntaxError(str(exc), generators_line, 1) from None
    # with one generator there are no 2-forms; the zero form stands for any degree
    zero = basis.zero(min(2, basis.dim))
    dgen = []
    for name in generators:
        if name not in dlines:
            dgen.append(zero)
            continue
        expr, lineno, col = dlines[name]
        form = parse_form_expr(expr, basis, mode, line=lineno, col=col)
        if not form.is_zero() and form.degree != 2:
            raise ExprSyntaxError(
                f"d {name} must be a 2-form, got degree {form.degree}", lineno, 1
            )
        dgen.append(zero if form.is_zero() else form)
    metric = None
    if metric_line is not None:
        entries, lineno, col = metric_line
        cur = _Cursor(entries, lineno, col)
        scalars = []
        while cur.peek()[0] != "end":
            scalars.append(_parse_scalar_atom(cur, mode))
        if len(scalars) != basis.dim:
            raise InvalidMetric(
                f"metric diag needs {basis.dim} entries, got {len(scalars)}"
            )
        metric = scalars
    return Algebra(basis, dgen, metric=metric, mode=mode)


def parse_algebra_file(path: str) -> Algebra:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        start = data.rfind(b"\n", 0, exc.start) + 1
        line = data.count(b"\n", 0, start) + 1
        col = len(data[start : exc.start].decode("utf-8")) + 1
        raise ExprSyntaxError("file is not valid UTF-8", line, col) from None
    return parse_algebra_text(text)


def algebra_to_text(alg: Algebra) -> str:
    """Canonical rendering; parse -> render is idempotent."""
    lines = []
    if alg.mode.is_param:
        lines.append("params " + " ".join(alg.mode.symbols))
    lines.append("generators " + " ".join(alg.basis.names))
    for name, dg in zip(alg.basis.names, alg.dgen):
        if not dg.is_zero():
            lines.append(f"d {name} = {form_str(dg)}")
    if any(g != alg.one_scalar() for g in alg.metric):
        entries = []
        for g in alg.metric:
            s = scalar_str(g)
            entries.append(f"({s})" if "/" in s or " " in s else s)
        lines.append("metric diag " + " ".join(entries))
    return "\n".join(lines) + "\n"
