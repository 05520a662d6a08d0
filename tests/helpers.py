"""Shared test utilities: parsing shortcuts and independent oracles.

The oracles here (determinant evaluation of forms on vector fields,
Fraction-only row reduction, permutation signs by inversion counting) are
deliberately written from scratch so they do not share code paths with the
package internals they cross-check.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations

from hypothesis import strategies as st

from lcscalc.cecomplex import Algebra
from lcscalc.errors import ExprSyntaxError
from lcscalc.exterior import Basis, Form, VectorField, form_str, frame_field
from lcscalc.scalar import (
    MAX_DIGITS,
    ParamScalar,
    _coeffs_in,
    _deg_in,
    _grlex,
    _padd,
    _pmul,
    _prem,
    _psign_norm,
    _psub,
    needs_parens,
    scalar_str,
)
from lcscalc.specfile import parse_form_expr


def F(alg, text: str) -> Form:
    return parse_form_expr(text, alg.basis, alg.mode)


def V(alg, *coeffs) -> VectorField:
    return VectorField(alg.basis, tuple(Fraction(c) for c in coeffs))


# ---------------------------------------------------------------------------
# character-loop tokenizer (the oracle for `scalar.tokenize`)
# ---------------------------------------------------------------------------


def char_loop_tokenize(text: str, line: int = 1, col: int = 1) -> list[tuple]:
    """`(kind, value, col)` tuples by one pass over the characters, closed by an "end" tuple.

    Blanks are space, tab and carriage return; a run of decimal digits is an
    int, a letter or '_' starts an identifier that runs on `isalnum` or '_',
    one of `+-*/^()=` is its own token, and anything else is an error.
    """
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r":
            i += 1
            continue
        pos = col + i
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j - i > MAX_DIGITS:
                raise ExprSyntaxError(
                    f"integer literal of {j - i} digits is above the limit of {MAX_DIGITS}",
                    line,
                    pos,
                )
            out.append(("int", int(text[i:j]), pos))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("ident", text[i:j], pos))
            i = j
        elif ch in "+-*/^()=":
            out.append((ch, ch, pos))
            i += 1
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", line, pos)
    out.append(("end", None, col + len(text)))
    return out


# ---------------------------------------------------------------------------
# determinant / form evaluation oracle
# ---------------------------------------------------------------------------


def perm_sign(seq) -> int:
    inversions = sum(
        1
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
        if seq[i] > seq[j]
    )
    return -1 if inversions % 2 else 1


def det(matrix) -> Fraction:
    n = len(matrix)
    total = Fraction(0)
    for perm in permutations(range(n)):
        term = Fraction(perm_sign(perm))
        for i, j in enumerate(perm):
            term *= matrix[i][j]
        total += term
    return total


def eval_form(theta: Form, vectors) -> Fraction:
    """Evaluate an l-form on l vector fields by determinant expansion."""
    total = Fraction(0)
    for idx, c in theta.terms.items():
        rows = [[v.coeffs[i] for i in idx] for v in vectors]
        total += c * det(rows)
    return total


def interior_oracle(v: VectorField, theta: Form) -> dict:
    """Terms of the contraction, by pairing against all frame-field tuples.

    The nonzero coefficients come back as a plain dict keyed by ascending
    tuples, so a comparison with `interior(v, theta).terms` does not pass
    the expected side through the Form constructor as well.
    """
    basis = theta.basis
    out = {}
    if theta.degree == 0:
        return out
    for rest in combinations(range(basis.dim), theta.degree - 1):
        vectors = [v] + [frame_field(basis, j) for j in rest]
        value = eval_form(theta, vectors)
        if value:
            out[rest] = value
    return out


def shuffle_wedge_value(a: Form, b: Form, slots) -> Fraction:
    """(a^b)(X_s..) = sum over (p,q)-shuffles of sign * a(first p) * b(last q).

    The slots are frame-field indices; the shuffle sign is the permutation
    sign of the chosen slot positions followed by the remaining ones.
    """
    fields = [frame_field(a.basis, s) for s in slots]
    total = Fraction(0)
    for first in combinations(range(len(slots)), a.degree):
        last = [m for m in range(len(slots)) if m not in first]
        value = eval_form(a, [fields[m] for m in first])
        value *= eval_form(b, [fields[m] for m in last])
        total += value if perm_sign(list(first) + last) > 0 else -value
    return total


def top_power_by_wedging(omega: Form, one):
    """Volume coefficient of Omega^(N/2) by N/2 wedges, starting at the scalar `one`.

    An oracle for `lcs.top_power` that builds every power Omega^j.
    """
    basis = omega.basis
    power = basis.one(one)
    for _ in range(basis.dim // 2):
        power = power.wedge(omega)
    return power.coefficient(tuple(range(basis.dim)))


# ---------------------------------------------------------------------------
# differential by the invariant-form Koszul formula (Chevalley-Eilenberg)
# ---------------------------------------------------------------------------


def oracle_brackets(alg: Algebra):
    """[X_i, X_j] = -sum_k A^k_ij X_k, read off d e^k = sum_{i<j} A^k_ij e^i^e^j."""
    n = alg.dim
    coeffs = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for k, dg in enumerate(alg.dgen):
        for (i, j), a in dg.terms.items():
            coeffs[i][j][k] = -a
            coeffs[j][i][k] = a
    return [[VectorField(alg.basis, tuple(coeffs[i][j])) for j in range(n)] for i in range(n)]


def jacobi_by_fields(alg: Algebra):
    """(triple, residual) of the first frame triple i < j < k whose cyclic
    Jacobi sum is nonzero, or None.

    Each double bracket [X_a, [X_b, X_c]] is summed as vector fields, one
    `oracle_brackets` field per coefficient of the inner bracket.
    """
    brackets = oracle_brackets(alg)
    n = alg.dim
    for i, j, k in combinations(range(n), 3):
        total = V(alg, *([0] * n))
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, x in enumerate(brackets[b][c].coeffs):
                total = total + x * brackets[a][m]
        if not total.is_zero():
            return (i, j, k), total
    return None


def koszul_d_value(alg: Algebra, brackets, theta: Form, slots) -> Fraction:
    """(d theta)(X_0..X_l) = sum_{i<j} (-1)^(i+j) theta([X_i,X_j], X_0..^i..^j..X_l).

    The slots are frame-field indices; an invariant form is constant on
    frame fields, so the derivative terms of the formula vanish.
    """
    total = Fraction(0)
    for i in range(len(slots)):
        for j in range(i + 1, len(slots)):
            rest = [frame_field(alg.basis, s) for m, s in enumerate(slots) if m not in (i, j)]
            value = eval_form(theta, [brackets[slots[i]][slots[j]]] + rest)
            total += value if (i + j) % 2 == 0 else -value
    return total


def wedge_value(omega: Form, theta: Form, slots) -> Fraction:
    """(w^theta)(X_0..X_l) = sum_i (-1)^i w(X_i) theta(X_0..^i..X_l) for a 1-form w."""
    basis = theta.basis
    total = Fraction(0)
    for i, s in enumerate(slots):
        rest = [frame_field(basis, t) for m, t in enumerate(slots) if m != i]
        value = eval_form(omega, [frame_field(basis, s)]) * eval_form(theta, rest)
        total += value if i % 2 == 0 else -value
    return total


def koszul_d(alg: Algebra, theta: Form) -> Form:
    """d theta from its values on every ascending tuple of frame fields."""
    degree = theta.degree + 1
    if degree > alg.dim:
        return alg.basis.zero(alg.dim)
    brackets = oracle_brackets(alg)
    return Form(
        alg.basis,
        degree,
        {J: koszul_d_value(alg, brackets, theta, J) for J in combinations(range(alg.dim), degree)},
    )


def koszul_twisted_by_evaluation(alg: Algebra, omega: Form, degree: int):
    """Matrix of d_w from degree l to l+1: entry (J, I) is (d_w e_I)(X_J), each one evaluated.

    A permutation-expansion determinant per bracket pair: the check of
    `koszul_twisted_matrix` on at most 5 generators and of `koszul_d_matrix`
    in degrees 0-2 on 8 generators.
    """
    if degree >= alg.dim:
        return []
    brackets = oracle_brackets(alg)
    sources = [
        Form(alg.basis, degree, {I: Fraction(1)})
        for I in combinations(range(alg.dim), degree)
    ]
    return [
        [
            koszul_d_value(alg, brackets, e, J) + wedge_value(omega, e, J)
            for e in sources
        ]
        for J in combinations(range(alg.dim), degree + 1)
    ]


def koszul_twisted_matrix(alg: Algebra, omega: Form, degree: int):
    """Matrix of d_w = d + w ^ from degree l to l+1, in closed form.

    `koszul_d_matrix` plus w ^ e_I = sum_i w_i e_i ^ e_I: e_i ^ e_I is
    (-1)^|I n [0, i)| e_{I + {i}} for i not in I, so column I gains that sign
    times w_i at row I + {i}.
    """
    out = koszul_d_matrix(alg, degree)
    rows = {J: r for r, J in enumerate(combinations(range(alg.dim), degree + 1))}
    for col, I in enumerate(combinations(range(alg.dim), degree)):
        for (i,), wi in omega.terms.items():
            if i not in I:
                below = sum(1 for x in I if x < i)
                row = out[rows[tuple(sorted(I + (i,)))]]
                row[col] += -wi if below % 2 else wi
    return out


def koszul_d_matrix(alg: Algebra, degree: int):
    """Matrix of the untwisted d from degree l to l+1 by the Koszul formula, in closed form.

    Entry (J, I) is (d e_I)(X_J) = sum_{a<b} (-1)^(a+b) e_I([X_Ja, X_Jb], X_J minus Ja, Jb).
    The frame fields left over are all of I but one index I_p, or e_I
    vanishes on them, and then e_I takes (-1)^p times the bracket's e^(I_p)
    coefficient.  It equals `koszul_twisted_by_evaluation` with w = 0 without
    a determinant per entry, so it reaches 8 generators in a fraction of a second.
    """
    brackets = [[v.coeffs for v in row] for row in oracle_brackets(alg)]
    out = []
    for J in combinations(range(alg.dim), degree + 1):
        row = []
        for I in combinations(range(alg.dim), degree):
            total = Fraction(0)
            for a, b in combinations(range(degree + 1), 2):
                rest = [x for k, x in enumerate(J) if k not in (a, b)]
                missing = [p for p, x in enumerate(I) if x not in rest]
                if len(missing) == 1:
                    p = missing[0]
                    value = brackets[J[a]][J[b]][I[p]]
                    total += value if (a + b + p) % 2 == 0 else -value
            row.append(total)
        out.append(row)
    return out


def operator_matrix(images: list, target_monomials: list) -> list[list]:
    """Matrix of a linear map from the list of basis images (Forms).

    Row i, column j holds the coefficient of target monomial i in the image
    of source element j: the int 0 where it has none.
    """
    return [[img.coefficient(mono) for img in images] for mono in target_monomials]


# ---------------------------------------------------------------------------
# Fraction-only row reduction (rank, kernel and solve oracles)
# ---------------------------------------------------------------------------


def _field(x):
    """An int as a Fraction; a Fraction or a `ParamScalar` as it is."""
    return Fraction(x) if isinstance(x, int) else x


def fraction_rref(rows, ncols):
    """RREF over the first ncols columns by division in the field; (rows, pivot columns).

    The entries are Fractions, or `ParamScalar`s for a parameter-mode system.
    """
    work = [[_field(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        pv = work[r][c]
        work[r] = [x / pv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, pivots


def rref_rank(rows) -> int:
    if not rows:
        return 0
    return len(fraction_rref(rows, len(rows[0]))[1])


def mod_rank(rows, ncols: int, p: int) -> int:
    """Rank modulo a prime by Gaussian elimination on lists, every entry reduced."""
    work = [[x % p for x in row] for row in rows]
    found = 0
    for c in range(ncols):
        pivot = next((i for i in range(found, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[found], work[pivot] = work[pivot], work[found]
        inv = pow(work[found][c], p - 2, p)
        for i in range(found + 1, len(work)):
            f = work[i][c] * inv % p
            if f:
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[found])]
        found += 1
    return found


def fraction_nullspace(rows, ncols):
    work, pivots = fraction_rref(rows, ncols)
    out = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row_index, pc in enumerate(pivots):
            if work[row_index][free]:
                vec[pc] = -work[row_index][free]
        out.append(vec)
    return out


def fraction_solve(rows, rhs, ncols):
    """The solution with free variables zero, or None when rows * x = rhs is inconsistent."""
    work, pivots = fraction_rref([list(row) + [b] for row, b in zip(rows, rhs)], ncols)
    if any(row[ncols] for row in work[len(pivots):]):
        return None
    x = [Fraction(0)] * ncols
    for row_index, pc in enumerate(pivots):
        x[pc] = work[row_index][ncols]
    return x


def invert_matrix(rows):
    """The inverse by Gauss-Jordan elimination in the field of the entries, or None if singular."""
    n = len(rows)
    work = [
        [_field(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, n) if work[i][c]), None)
        if pivot is None:
            return None
        work[r], work[pivot] = work[pivot], work[r]
        pv = work[r][c]
        work[r] = [x / pv for x in work[r]]
        for i in range(n):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return [row[n:] for row in work]


# ---------------------------------------------------------------------------
# ParamScalar arithmetic by cross-multiplication
# ---------------------------------------------------------------------------


def term_loop_pmul(a: dict, b: dict) -> dict:
    """Polynomial product summed over every pair of terms, no one-term shortcut."""
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def cross_multiplied(a: ParamScalar, op: str, b) -> ParamScalar:
    """a op b for op in "+-*/", on cross-multiplied numerators and
    denominators (every denominator product formed), made canonical by `_make`."""
    b = a._coerce(b)
    if op in "+-":
        combine = _padd if op == "+" else _psub
        num = combine(term_loop_pmul(a.num, b.den), term_loop_pmul(b.num, a.den))
        den = term_loop_pmul(a.den, b.den)
    elif op == "*":
        num, den = term_loop_pmul(a.num, b.num), term_loop_pmul(a.den, b.den)
    else:
        num, den = term_loop_pmul(a.num, b.den), term_loop_pmul(a.den, b.num)
    return ParamScalar._make(a.symbols, num, den)


def is_canonical(x: ParamScalar) -> bool:
    """Numerator and denominator coprime by the PRS gcd, lowest denominator term positive."""
    one = {(0,) * len(x.symbols): 1}
    coprime = x.den == one if not x.num else prs_gcd(x.num, x.den) == one
    return coprime and x.den[min(x.den, key=_grlex)] > 0


# ---------------------------------------------------------------------------
# polynomial gcd by primitive PRS alone (no one-term shortcuts)
# ---------------------------------------------------------------------------


def general_pdiv_exact(a: dict, b: dict) -> dict:
    """Exact division by repeated leading-term elimination, for any divisor."""
    q: dict = {}
    r = dict(a)
    eb = max(b, key=_grlex)
    cb = b[eb]
    while r:
        er = max(r, key=_grlex)
        cr = r[er]
        e = tuple(x - y for x, y in zip(er, eb))
        if any(x < 0 for x in e) or cr % cb:
            raise ArithmeticError("inexact polynomial division")
        q[e] = c = cr // cb
        r = _psub(r, _pmul({e: c}, b))
    return q


def _prs_content(p: dict, v: int) -> dict:
    return reduce(prs_gcd, _coeffs_in(p, v).values())


def _prs_primitive(p: dict, v: int) -> dict:
    return general_pdiv_exact(p, _prs_content(p, v)) if p else p


def prs_gcd(a: dict, b: dict) -> dict:
    """Sign-normalized gcd over the integers, recursing on every variable."""
    if not a:
        return _psign_norm(dict(b))
    if not b:
        return _psign_norm(dict(a))
    nvars = len(next(iter(a)))
    v = next(
        (i for i in range(nvars) if _deg_in(a, i) > 0 or _deg_in(b, i) > 0), None
    )
    if v is None:
        zero = (0,) * nvars
        return {zero: math.gcd(a[zero], b[zero])}
    ca, cb = _prs_content(a, v), _prs_content(b, v)
    f, g = general_pdiv_exact(a, ca), general_pdiv_exact(b, cb)
    if _deg_in(f, v) < _deg_in(g, v):
        f, g = g, f
    while g:
        r = _prem(f, g, v)
        f, g = g, (_prs_primitive(r, v) if r else {})
    return _psign_norm(_pmul(prs_gcd(ca, cb), _prs_primitive(f, v)))


# ---------------------------------------------------------------------------
# form arithmetic on Fraction dicts: maps from ascending tuples to Fractions
# ---------------------------------------------------------------------------


# denominators of random rational coefficients: small ones, and large coprime ones
SMALL = (1, 2, 3, 4, 6, 12)
HARD = (7**20, 10**30 + 1, 3**41)


def rationals(dens) -> st.SearchStrategy:
    """Nonzero Fractions over one or two of the given denominators."""
    nums = st.integers(-(10**6), 10**6).filter(bool)
    return st.builds(lambda n, a, b: Fraction(n, a * b), nums, st.sampled_from(dens),
                     st.sampled_from((1,) + dens))


@st.composite
def rational_forms(draw, basis: Basis, degree: int, dens) -> Form:
    """A rational form on some of the monomials of a degree."""
    monomials = basis.monomials(degree)
    picked = draw(st.lists(st.sampled_from(monomials), unique=True, max_size=len(monomials)))
    return Form(basis, degree, {m: draw(rationals(dens)) for m in picked})


def assert_lowest_terms(form: Form):
    """A rational form's (den, nums) is canonical and is the value of its terms."""
    den, nums = form.den, form.nums
    assert type(den) is int and den > 0
    assert all(type(n) is int and n for n in nums.values())
    assert math.gcd(den, *nums.values()) == 1
    assert {key: Fraction(n, den) for key, n in nums.items()} == form.terms


def _collected(pairs) -> dict:
    """Sum `(ascending tuple, value)` pairs as Fractions and drop the zeros."""
    out: dict = {}
    for key, c in pairs:
        out[key] = out.get(key, Fraction(0)) + c
    return {key: c for key, c in out.items() if c}


def _signed_products(a: dict, b: dict):
    for ia, ca in a.items():
        for ib, cb in b.items():
            if not set(ia) & set(ib):
                yield tuple(sorted(ia + ib)), perm_sign(ia + ib) * ca * cb


def fraction_sum(a: dict, b: dict) -> dict:
    return _collected([*a.items(), *b.items()])


def fraction_scaled(c, a: dict) -> dict:
    return _collected((key, c * x) for key, x in a.items())


def fraction_wedge(a: dict, b: dict) -> dict:
    return _collected(_signed_products(a, b))


def fraction_interior(coeffs, a: dict) -> dict:
    """i(v) e_I = sum_m (-1)^m v_{I_m} e_{I - I_m}."""
    return _collected(
        (idx[:m] + idx[m + 1 :], (-1) ** m * c * coeffs[i])
        for idx, c in a.items()
        for m, i in enumerate(idx)
    )


def fraction_d(alg: Algebra, a: dict) -> dict:
    """d e_I = sum_m (-1)^m (d e_{I_m}) ^ e_{I - I_m}; a 2-form commutes with every form."""
    pairs = []
    for idx, c in a.items():
        for m, i in enumerate(idx):
            rest = {idx[:m] + idx[m + 1 :]: (-1) ** m * c}
            pairs.extend(_signed_products(alg.dgen[i].terms, rest))
    return _collected(pairs)


def assert_integer_route(result: Form, expected: dict):
    """A rational result against a Fraction-dict formula: text, terms, (den, nums) and ==."""
    assert form_str(result) == fraction_form_str(result.basis.names, expected)
    assert_lowest_terms(result)
    assert result.terms == expected
    assert result == Form.canonical(result.basis, result.degree, expected)


def fraction_form_str(names, terms: dict) -> str:
    """Each coefficient through `scalar_str`, signs joined as ` + ` and ` - `."""
    parts = []
    for idx in sorted(terms):
        c = scalar_str(terms[idx])
        if needs_parens(c):
            c = f"({c})"
        mono = "^".join(names[i] for i in idx)
        body = f"{c} {mono}" if mono else c
        if not parts:
            parts.append(body)
        elif body.startswith("-"):
            parts.append(f" - {body[1:]}")
        else:
            parts.append(f" + {body}")
    return "".join(parts) or "0"


# ---------------------------------------------------------------------------
# randomized structure data with known-good seeds
# ---------------------------------------------------------------------------


def _substitute_two_form(form: Form, one_forms) -> Form:
    basis = one_forms[0].basis
    out = basis.zero(2)
    for (a, b), c in form.terms.items():
        out = out + c * one_forms[a].wedge(one_forms[b])
    return out


def change_of_basis(alg: Algebra, matrix) -> Algebra:
    """Rewrite the structure data in the frame f^i = sum_j M[i][j] e^j."""
    inverse = invert_matrix(matrix)
    if inverse is None:
        raise ValueError("matrix is singular")
    basis = alg.basis
    sub = [
        Form(basis, 1, {(b,): inverse[a][b] for b in range(basis.dim)})
        for a in range(basis.dim)
    ]
    dgen = []
    for i in range(basis.dim):
        total = basis.zero(2)
        for j in range(basis.dim):
            if matrix[i][j]:
                total = total + matrix[i][j] * _substitute_two_form(alg.dgen[j], sub)
        dgen.append(total)
    return Algebra(basis, dgen, mode=alg.mode)


def random_invertible(rng: random.Random, n: int):
    while True:
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if invert_matrix(m) is not None:
            return m


def random_good_algebra(rng: random.Random, n: int) -> Algebra:
    names = tuple(f"e{i + 1}" for i in range(n))
    basis = Basis(names)
    kind = rng.choice(["abelian", "almost_abelian", "nilpotent", "scaled"])
    dgen = [basis.zero(2) for _ in range(n)]
    if kind == "almost_abelian" and n >= 2:
        for i in range(n - 1):
            c = Fraction(rng.randint(-3, 3))
            if c:
                dgen[i] = Form(basis, 2, {(i, n - 1): c})
    elif kind == "nilpotent" and n >= 3:
        c = Fraction(rng.randint(1, 3))
        dgen[n - 1] = Form(basis, 2, {(0, 1): c})
        if n >= 5:
            dgen[n - 2] = Form(basis, 2, {(1, 2): Fraction(rng.randint(-2, 2))})
    elif kind == "scaled" and n >= 3:
        c = Fraction(rng.randint(1, 2), rng.randint(1, 3))
        dgen[0] = Form(basis, 2, {(0, n - 1): -c})
        dgen[1] = Form(basis, 2, {(1, n - 1): c})
    alg = Algebra(basis, dgen)
    if rng.random() < 0.5:
        alg = change_of_basis(alg, random_invertible(rng, n))
    return alg


def perturb_algebra(rng: random.Random, alg: Algebra) -> Algebra:
    """Chain two bumps so the result usually (not always) violates d*d = 0.

    Needs at least three generators; with two there are no 3-forms and any
    structure data trivially squares to zero.
    """
    basis = alg.basis
    n = basis.dim
    if n < 3:
        raise ValueError("perturbation needs at least three generators")
    i = rng.randrange(n)
    others = [x for x in range(n) if x != i]
    a = rng.choice(others)
    b = rng.choice([x for x in others if x != a])
    dgen = list(alg.dgen)
    dgen[i] = dgen[i] + Form(
        basis, 2, {(min(a, b), max(a, b)): Fraction(rng.randint(1, 3))}
    )
    x = rng.choice([t for t in range(n) if t not in (a, b)])
    dgen[a] = dgen[a] + Form(
        basis, 2, {(min(x, a), max(x, a)): Fraction(rng.randint(1, 3))}
    )
    return Algebra(basis, dgen, mode=alg.mode)
