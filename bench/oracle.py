"""Exact arithmetic the benchmark uses to build inputs and know their answers.

Nothing here imports lcscalc.  Structure data are lists of dictionaries
``{(i, j): coeff}`` with ``i < j`` (``d e^k = sum coeff e^i^e^j``); 2-forms
use the same shape and 1-forms are ``{i: coeff}``.  Coefficients are
``Fraction`` or ``Poly`` (a sparse polynomial in the preset symbols).
Frames are changed by plain matrix algebra, and the expected answers come
from closed forms: Heisenberg Betti numbers, Kunneth products, and the Lee
forms, primitives and Pfaffians that follow from how an input was built.
Program output is read back by evaluating its text at sample points.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb, factorial


# ---------------------------------------------------------------------------
# polynomials in the preset symbols
# ---------------------------------------------------------------------------


class Poly:
    """Sparse polynomial over Q; a monomial is a sorted tuple of symbol names."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @staticmethod
    def sym(name: str) -> "Poly":
        return Poly({(name,): Fraction(1)})

    @staticmethod
    def _lift(x) -> "Poly":
        return x if isinstance(x, Poly) else Poly({(): Fraction(x)})

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in Poly._lift(other).terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        out: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in Poly._lift(other).terms.items():
                m = tuple(sorted(ma + mb))
                out[m] = out.get(m, 0) + ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)

    def at(self, point: dict) -> Fraction:
        total = Fraction(0)
        for m, c in self.terms.items():
            for name in m:
                c = c * point[name]
            total += c
        return total

    def __str__(self):
        parts = []
        for m in sorted(self.terms):
            c = self.terms[m]
            body = "*".join((fraction_text(abs(c)),) + m)
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts) or "0"
        return "(" + (text[2:] if text.startswith("+ ") else "-" + text[2:]) + ")"


def at(x, point: dict) -> Fraction:
    """Value of a Fraction or Poly coefficient at a sample point."""
    return x.at(point) if isinstance(x, Poly) else Fraction(x)


def fraction_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# matrices and frames
# ---------------------------------------------------------------------------


def det_and_inverse(m):
    """Determinant and inverse by Gauss-Jordan; the inverse is None if singular."""
    n = len(m)
    work = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(m)
    ]
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i][c]), None)
        if pivot is None:
            return Fraction(0), None
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            det = -det
        pv = work[c][c]
        det *= pv
        work[c] = [x / pv for x in work[c]]
        for i in range(n):
            if i != c and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return det, [row[n:] for row in work]


class Frame:
    """A change of frame f^i = sum_j M[i][j] e^j and its inverse.

    Forms written in the frame e are rewritten in the frame f through
    e^b = sum_c inv[b][c] f^c; the 2x2 minors of inv are cached.
    """

    def __init__(self, m):
        self.m = m
        self.det, self.inv = det_and_inverse(m)
        self._minors: dict = {}

    @staticmethod
    def random(rng: random.Random, n: int) -> "Frame":
        """Seeded dense frame: every entry +1 or -1, redrawn until invertible.

        Frames with entries in -2..2 (or -1..1) make report times vary up to
        tenfold from one frame to the next, mostly through zero entries and
        the size of det M; sign frames are fully dense and vary far less.
        """
        while True:
            frame = Frame([[Fraction(rng.choice((-1, 1))) for _ in range(n)] for _ in range(n)])
            if frame.inv is not None:
                return frame

    def one_form(self, w: dict) -> dict:
        out: dict = {}
        for b, coeff in w.items():
            for c, x in enumerate(self.inv[b]):
                if x:
                    out[c] = out.get(c, 0) + coeff * x
        return clean(out)

    def _minor(self, i: int, j: int) -> dict:
        key = (i, j)
        if key not in self._minors:
            inv = self.inv
            self._minors[key] = clean({
                (c, e): inv[i][c] * inv[j][e] - inv[i][e] * inv[j][c]
                for c, e in combinations(range(len(inv)), 2)
            })
        return self._minors[key]

    def two_form(self, a: dict) -> dict:
        out: dict = {}
        for (i, j), coeff in a.items():
            for idx, x in self._minor(i, j).items():
                out[idx] = out.get(idx, 0) + coeff * x
        return clean(out)

    def structure(self, dgen: list) -> list:
        """d f^a = sum_b M[a][b] d e^b, rewritten in the frame f."""
        moved = [self.two_form(dg) for dg in dgen]
        out = []
        for row in self.m:
            total: dict = {}
            for coeff, dg in zip(row, moved):
                if coeff:
                    for idx, c in dg.items():
                        total[idx] = total.get(idx, 0) + coeff * c
            out.append(clean(total))
        return out


def clean(form: dict) -> dict:
    return {k: v for k, v in form.items() if v}


# ---------------------------------------------------------------------------
# algebras from their construction
# ---------------------------------------------------------------------------


def heisenberg_times_r(m: int, r: int) -> list:
    """h_{2m+1} x R^r: generators x1 y1 .. xm ym z t1 .. tr, d z = sum x_i^y_i."""
    n = 2 * m + 1 + r
    dgen = [{} for _ in range(n)]
    dgen[2 * m] = {(2 * i, 2 * i + 1): Fraction(1) for i in range(m)}
    return dgen


def acfm_times_r(n, k, lam, r: int) -> list:
    """The 4-generator preset (alpha beta gamma eta) times an abelian R^r."""
    dgen = [{} for _ in range(4 + r)]
    dgen[0] = {(0, 2): -k}
    dgen[1] = {(1, 2): k}
    dgen[3] = {(0, 1): n * lam}
    return dgen


def heisenberg_betti(m: int) -> list[int]:
    """b_l(h_{2m+1}) = C(2m, l) - C(2m, l-2) for l <= m, then Poincare duality."""
    low = [comb(2 * m, l) - (comb(2 * m, l - 2) if l >= 2 else 0) for l in range(m + 1)]
    return low + low[::-1]


def kunneth(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def abelian_betti(r: int) -> list[int]:
    return [comb(r, l) for l in range(r + 1)]


# Twisted dimensions of the 4-generator preset for the twist -k gamma, as the
# paper states them, and its untwisted Betti numbers: b_1 = 1 (only gamma is
# closed), Poincare duality for unimodular data, and Euler characteristic 0.
ACFM_TWISTED_DIMS = [0, 1, 2, 1, 0]
ACFM_BETTI = [1, 1, 0, 1, 1]


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------


def wedge_one_one(a: dict, b: dict) -> dict:
    out: dict = {}
    for i, x in a.items():
        for j, y in b.items():
            if i < j:
                out[(i, j)] = out.get((i, j), 0) + x * y
            elif i > j:
                out[(j, i)] = out.get((j, i), 0) - x * y
    return clean(out)


def d_twisted_one(dgen: list, w: dict, p: dict) -> dict:
    """d_w(p) = d p + w ^ p for a 1-form p."""
    out: dict = {}
    for k, c in p.items():
        for idx, x in dgen[k].items():
            out[idx] = out.get(idx, 0) + c * x
    for idx, x in wedge_one_one(w, p).items():
        out[idx] = out.get(idx, 0) + x
    return clean(out)


def add_forms(a: dict, b: dict, sign=1) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
    return clean(out)


def evaluate_form(form: dict, point: dict) -> dict:
    return clean({k: at(v, point) for k, v in form.items()})


def evaluate_structure(dgen: list, point: dict) -> list:
    return [evaluate_form(dg, point) for dg in dgen]


def pfaffian(a: dict, n: int) -> Fraction:
    """Pfaffian of the antisymmetric matrix of a numeric 2-form, by expansion."""

    def entry(i, j):
        if i < j:
            return a.get((i, j), Fraction(0))
        return -a.get((j, i), Fraction(0))

    def pf(idx):
        if not idx:
            return Fraction(1)
        first, rest = idx[0], idx[1:]
        total = Fraction(0)
        for pos, j in enumerate(rest):
            x = entry(first, j)
            if x:
                sign = -1 if pos % 2 else 1
                total += sign * x * pf(rest[:pos] + rest[pos + 1 :])
        return total

    return pf(tuple(range(n)))


def top_power(a: dict, n: int) -> Fraction:
    """Coefficient of Omega^(n/2) on the volume form: (n/2)! Pf(Omega)."""
    return factorial(n // 2) * pfaffian(a, n)


# ---------------------------------------------------------------------------
# rendering inputs in the lcscalc text format
# ---------------------------------------------------------------------------


def form_text(form: dict, names) -> str:
    """A form {index tuple: coeff} in the lcscalc expression syntax."""
    parts = []
    for idx in sorted(form):
        mono = "^".join(names[i] for i in idx)
        c = form[idx]
        if isinstance(c, Poly):
            parts.append(f"+ {c} {mono}")
        else:
            parts.append(f"{'-' if c < 0 else '+'} {fraction_text(abs(Fraction(c)))} {mono}")
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def spec_text(names, dgen, params=()) -> str:
    lines = [f"params {' '.join(params)}"] if params else []
    lines.append("generators " + " ".join(names))
    for name, dg in zip(names, dgen):
        if dg:
            lines.append(f"d {name} = {form_text(dg, names)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# reading program output back
# ---------------------------------------------------------------------------


def _tokens(text: str):
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            yield int(text[i:j])
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield text[i:j]
            i = j
        elif ch in "+-*/^()":
            yield ch
            i += 1
        else:
            raise ValueError(f"unexpected character {ch!r} in {text!r}")


def eval_scalar(text: str, point: dict) -> Fraction:
    """Value of a printed scalar (integers, symbols, + - * / ^, parentheses)."""
    toks = list(_tokens(text)) + [None]
    pos = 0

    def peek():
        return toks[pos]

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def expr():
        value = term()
        while peek() in ("+", "-"):
            value = value + term() if take() == "+" else value - term()
        return value

    def term():
        value = factor()
        while peek() in ("*", "/"):
            value = value * factor() if take() == "*" else value / factor()
        return value

    def factor():
        sign = 1
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        tok = take()
        if tok == "(":
            value = expr()
            if take() != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
        elif isinstance(tok, int):
            value = Fraction(tok)
        elif isinstance(tok, str) and tok in point:
            value = point[tok]
        else:
            raise ValueError(f"unexpected token {tok!r} in {text!r}")
        while peek() == "^":
            take()
            value = value ** take()
        return sign * value

    value = expr()
    if peek() is not None:
        raise ValueError(f"trailing input in {text!r}")
    return value


def _split_top(text: str):
    """Split at top-level ' + ' / ' - ' separators, keeping each term's sign."""
    terms, depth, start, sign = [], 0, 0, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text[i : i + 3] in (" + ", " - "):
            terms.append((sign, text[start:i]))
            sign = 1 if text[i + 1] == "+" else -1
            start = i + 3
            i += 3
            continue
        i += 1
    terms.append((sign, text[start:]))
    return terms


def read_form(text: str, names, point=None) -> dict:
    """Printed form (``c gen^gen + ...``) as {index tuple: value at point}."""
    point = point or {}
    text = text.strip()
    if text == "0":
        return {}
    out: dict = {}
    for sign, term in _split_top(text):
        coeff_part, _, mono = term.rpartition(" ")
        gens = mono.split("^")
        if not all(g in names for g in gens):
            coeff_part, gens = term, []
        value = eval_scalar(coeff_part, point) if coeff_part else Fraction(1)
        idx = tuple(names.index(g) for g in gens)
        out[idx] = out.get(idx, 0) + sign * value
    return clean(out)


def one_form_key(form: dict) -> dict:
    """{i: c} 1-form as the {(i,): c} shape that `read_form` returns."""
    return {(i,): c for i, c in form.items()}
