"""The linear systems of a 2-form against the Form route and a field elimination.

`lcs` assembles the matrix of (X, mu) -> L_X(Omega) - mu * Omega straight
from Omega's coefficients and the d tables; it is compared with
`helpers.operator_matrix` over the images i(X_i) d(Omega) + d(i(X_i) Omega)
and -Omega built as Forms.  The Lee form and the dual field come from the
inverse B of Omega's matrix, read off the Pfaffian memo of `top_power`
(`lcs._inverse_image`).  B is compared with `helpers.invert_matrix`, and
each answer with `helpers.fraction_solve` on `operator_matrix` of the
images g_i ^ Omega (right-hand side -d(Omega)) or i(X_i) Omega:
- the Lee form of Omega = d_w eta, for a closed w, on 2, 4, 6 and 8
  generators, and in parameter mode on 4;
- NoSolution exactly when the elimination finds no solution, for random
  nondegenerate forms, and in parameter mode on 6 generators at seeded
  rational points of the parameters;
- the dual field of random 1-forms.
The data are `helpers.random_good_algebra` algebras (half of them in a
dense frame) and random nondegenerate 2-forms with mixed denominators, in
rational and parameter mode.  The integer Pfaffian of `top_power` is
compared with the volume coefficient of repeated wedging, and
`is_unimodular`, which reads the traces of ad X_i off the structure data,
with the traces of the bracket table of `helpers.oracle_brackets`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    change_of_basis, fraction_nullspace, fraction_solve, invert_matrix, koszul_d_matrix,
    oracle_brackets, operator_matrix, random_good_algebra, random_invertible,
    top_power_by_wedging,
)
from lcscalc.cecomplex import Algebra, d, d_omega, is_unimodular
from lcscalc.errors import LeeNotClosed, MixedModes, NoSolution
from lcscalc.exterior import Basis, Form, frame_field, interior
from lcscalc.lcs import (
    LcsForm, _automorphism_rows, _inverse_image, _pfaffians, automorphism_algebra, dual_field,
    is_lcs, top_power,
)
from lcscalc.presets import acfm_rational, acfm_symbolic
from lcscalc.scalar import ParamScalar, ScalarMode
from lcscalc.specfile import parse_algebra_text

PARAMS = ScalarMode.params("k", "t")
DENOMINATORS = [1, 2, 3, 4, 5, 6, 7, 9, 12, 35, 97, 210]

seeds = st.integers(0, 10**6)


def _in_params(alg: Algebra, factor) -> Algebra:
    """The same structure data times a parameter-mode scalar; d*d stays zero."""
    return Algebra(alg.basis, [factor * f for f in alg.dgen], mode=PARAMS)


def _scalar(rng: random.Random, mode: ScalarMode):
    c = Fraction(rng.randint(-20, 20), rng.choice(DENOMINATORS))
    if mode.is_param:
        c = rng.randint(-2, 2) * mode.symbol("k") + rng.randint(-1, 1) * mode.symbol("t") + c
    return c


def _two_form(rng: random.Random, basis: Basis, mode: ScalarMode) -> Form:
    """A random 2-form with mixed denominators; dense about half of the time."""
    monos = list(basis.monomials(2))
    if rng.random() < 0.5:
        monos = rng.sample(monos, rng.randint(1, len(monos)))
    return Form(basis, 2, {m: _scalar(rng, mode) for m in monos})


def _nondegenerate(rng: random.Random, alg: Algebra) -> Form:
    while True:
        omega2 = _two_form(rng, alg.basis, alg.mode)
        if top_power(alg, omega2):
            return omega2


def _algebra(seed: int, sizes=(4, 6), params: bool = False) -> tuple[random.Random, Algebra]:
    rng = random.Random(seed)
    alg = random_good_algebra(rng, rng.choice(sizes))
    if params:
        alg = _in_params(alg, rng.choice([PARAMS.symbol("k"), PARAMS.symbol("t") - 2]))
    return rng, alg


@given(seeds)
def test_automorphism_rows_are_cartan_over_forms(seed):
    rng, alg = _algebra(seed)
    omega2 = _nondegenerate(rng, alg)
    d_omega2 = d(alg, omega2)
    images = []
    for i in range(alg.dim):
        x = frame_field(alg.basis, i)
        images.append(interior(x, d_omega2) + d(alg, interior(x, omega2)))
    images.append(-omega2)
    expected = operator_matrix(images, list(alg.basis.monomials(2)))
    scale, rows = _automorphism_rows(alg, omega2)
    assert all(type(x) is int for row in rows for x in row)
    assert [[Fraction(x, scale) for x in row] for row in rows] == expected


def test_automorphism_rows_refuse_symbolic_data_in_a_rational_algebra():
    _, alg = _algebra(7)
    omega2 = PARAMS.symbol("k") * _nondegenerate(random.Random(7), alg)
    cert = LcsForm(omega2, alg.basis.zero(1), top_power(alg, omega2))
    with pytest.raises(MixedModes):
        automorphism_algebra(alg, cert)


def _lee_by_elimination(alg: Algebra, omega2: Form) -> Form | None:
    """The free-variables-zero solution of w ^ Omega = -d(Omega), or None."""
    images = [alg.basis.gen(i).wedge(omega2) for i in range(alg.dim)]
    monos = list(alg.basis.monomials(3))
    rhs = [(-d(alg, omega2)).coefficient(m) for m in monos]
    sol = fraction_solve(operator_matrix(images, monos), rhs, alg.dim)
    return None if sol is None else Form(alg.basis, 1, zip(alg.basis.monomials(1), sol))


# the non-abelian algebra in 2 generators, h3 x R, h5 x R and h7 x R
NILPOTENT_OR_SOLVABLE = {
    2: "generators e1 e2\nd e1 = 1 e1^e2\n",
    4: "generators e1 e2 e3 e4\nd e3 = 1 e1^e2\n",
    6: "generators e1 e2 e3 e4 e5 e6\nd e5 = 1 e1^e2 + 1 e3^e4\n",
    8: "generators e1 e2 e3 e4 e5 e6 e7 e8\nd e7 = 1 e1^e2 + 1 e3^e4 + 1 e5^e6\n",
}


def _lcs_form(rng: random.Random, alg: Algebra, scale=1) -> tuple[Form, Form]:
    """(w, d_w eta) for a random closed w and 1-form eta, nondegenerate: its Lee form is w."""
    monos = alg.basis.monomials(1)
    kernel = fraction_nullspace(koszul_d_matrix(alg, 1), alg.dim)
    closed = [Form(alg.basis, 1, zip(monos, vec)) for vec in kernel]
    while True:
        w = alg.basis.zero(1)
        for form in closed:
            w = w + scale * rng.randint(-3, 3) * form
        eta = Form(alg.basis, 1, {m: _scalar(rng, ScalarMode.rational()) for m in monos})
        omega2 = d_omega(alg, w, eta)
        if top_power(alg, omega2):
            return w, omega2


@pytest.mark.parametrize("n", [2, 4, 6, 8])
@given(seeds, st.booleans())
def test_lee_form_is_the_solution_of_the_lee_system(n, seed, frame):
    rng = random.Random(seed)
    alg = parse_algebra_text(NILPOTENT_OR_SOLVABLE[n])
    if n == 4 and rng.random() < 0.5:
        k = Fraction(rng.randint(1, 5), 3)
        alg = acfm_rational(rng.randint(1, 3), k, rng.randint(-2, 2) or 1)
    if frame:
        alg = change_of_basis(alg, random_invertible(rng, n))
    w, omega2 = _lcs_form(rng, alg)
    lee = is_lcs(alg, omega2).lee
    assert lee == _lee_by_elimination(alg, omega2)
    assert lee == (w if n > 2 else alg.basis.zero(1))


@given(seeds)
def test_param_lee_form_is_the_solution_of_the_lee_system(seed):
    rng = random.Random(seed)
    alg = acfm_symbolic()
    if rng.random() < 0.5:
        alg = change_of_basis(alg, random_invertible(rng, 4))
    w, omega2 = _lcs_form(rng, alg, scale=alg.mode.symbol("k"))
    lee = is_lcs(alg, omega2).lee
    assert lee == _lee_by_elimination(alg, omega2) == w


@given(seeds, st.booleans())
def test_no_solution_exactly_when_elimination_finds_none(seed, params):
    """On 4 generators a solution always exists; parameter-mode eliminations on 6 take seconds."""
    rng, alg = _algebra(seed, sizes=(4,) if params else (4, 6), params=params)
    omega2 = _nondegenerate(rng, alg)
    expected = _lee_by_elimination(alg, omega2)
    try:
        lee = is_lcs(alg, omega2).lee
    except NoSolution:
        assert expected is None
    except LeeNotClosed as exc:
        assert expected is not None and str(exc).startswith(f"solution {expected} is not closed")
    else:
        assert lee == expected


def _at(x, point: tuple[Fraction, ...]) -> Fraction | None:
    """A scalar at a rational point of the parameters, or None where its denominator vanishes."""
    if not isinstance(x, ParamScalar):
        return x

    def value(poly):
        return sum(c * prod(v**e for v, e in zip(point, exps)) for exps, c in poly.items())

    den = value(x.den)
    return Fraction(value(x.num)) / den if den else None


def _form_at(form: Form, point) -> Form | None:
    terms = {m: _at(c, point) for m, c in form.terms.items()}
    return None if None in terms.values() else Form(form.basis, form.degree, terms)


@pytest.mark.parametrize("seed", range(24))
def test_param_verdicts_on_six_generators_hold_at_rational_points(seed):
    """NoSolution, LeeNotClosed or the Lee form, as the elimination finds at each point.

    Each point keeps the Pfaffian and every denominator of the Lee form
    nonzero.  A parameter-mode elimination on 6 generators takes seconds,
    a rational one at a point milliseconds.  These draws end in NoSolution
    or, for a closed Omega, in the Lee form 0.
    """
    rng, alg = _algebra(seed, sizes=(6,), params=True)
    omega2 = _nondegenerate(rng, alg)
    try:
        verdict = is_lcs(alg, omega2).lee
    except (NoSolution, LeeNotClosed) as exc:
        verdict = exc
    points, checked = random.Random(seed), 0
    while checked < 3:
        point = tuple(Fraction(points.randint(-99, 99), points.randint(1, 97)) for _ in PARAMS.symbols)
        at = Algebra(alg.basis, [_form_at(f, point) for f in alg.dgen])
        omega_at = _form_at(omega2, point)
        lee_at = _form_at(verdict, point) if isinstance(verdict, Form) else verdict
        if lee_at is None or not top_power(at, omega_at):
            continue
        expected = _lee_by_elimination(at, omega_at)
        if isinstance(verdict, NoSolution):
            assert expected is None
        elif isinstance(verdict, LeeNotClosed):
            assert expected is not None and not d(at, expected).is_zero()
        else:
            assert expected == lee_at
        checked += 1


@given(seeds, st.booleans())
def test_dual_field_is_the_solution_of_the_contraction_system(seed, params):
    rng, alg = _algebra(seed, sizes=(2, 4) if params else (2, 4, 6), params=params)
    omega2 = _nondegenerate(rng, alg)
    theta = Form(alg.basis, 1, {(i,): _scalar(rng, alg.mode) for i in range(alg.dim)})
    images = [interior(frame_field(alg.basis, i), omega2) for i in range(alg.dim)]
    monos = list(alg.basis.monomials(1))
    rows = operator_matrix(images, monos)
    expected = fraction_solve(rows, [theta.coefficient(m) for m in monos], alg.dim)
    field = dual_field(alg, LcsForm(omega2, alg.basis.zero(1), top_power(alg, omega2)), theta)
    assert list(field.coeffs) == expected


@given(seeds, st.booleans())
def test_inverse_of_the_form_matrix_is_the_pfaffian_adjugate(seed, params):
    """Column c of B: the image of e_c with every b != c fed B_bc."""
    rng, alg = _algebra(seed, sizes=(2, 4) if params else (2, 4, 6, 8), params=params)
    omega2 = _nondegenerate(rng, alg)
    matrix = [[0] * alg.dim for _ in range(alg.dim)]
    for (i, j), c in omega2.terms.items():
        matrix[i][j], matrix[j][i] = c, -c
    pf, m = _pfaffians(alg, omega2)
    column = lambda idx: [(b, b, idx[0]) for b in range(alg.dim) if b != idx[0]]  # noqa: E731
    got = [[0] * alg.dim for _ in range(alg.dim)]
    for c in range(alg.dim):
        numerators, den = _inverse_image(alg, pf, m, alg.basis.gen(c), column)
        for b, s in numerators.items():
            got[b][c] = Fraction(s, den) if isinstance(den, int) else s / den
    assert got == invert_matrix(matrix)


@given(seeds, st.sampled_from([2, 4, 6]))
def test_integer_top_power_matches_the_wedge_power(seed, n):
    rng = random.Random(seed)
    basis = Basis(tuple(f"e{i + 1}" for i in range(n)))
    alg = Algebra(basis, [basis.zero(2)] * n)
    omega2 = _two_form(rng, basis, alg.mode)
    got = top_power(alg, omega2)
    assert got == top_power_by_wedging(omega2, Fraction(1))
    assert type(got) is Fraction


def _unimodular_by_brackets(alg: Algebra) -> bool:
    table = oracle_brackets(alg)
    return all(
        not sum((table[i][j].coeffs[j] for j in range(alg.dim)), Fraction(0))
        for i in range(alg.dim)
    )


@given(seeds, st.booleans())
def test_unimodular_matches_the_bracket_traces(seed, params):
    _, alg = _algebra(seed, sizes=(2, 3, 4, 5, 6), params=params)
    assert is_unimodular(alg) == _unimodular_by_brackets(alg)


def test_unimodular_on_symbolic_traces():
    head = "params k t\ngenerators e1 e2 e3\nd e1 = k e1^e3\n"
    for line, unimodular in (
        ("d e2 = -k e2^e3", True),
        ("d e2 = k e2^e3", False),
        ("d e2 = (t - k) e2^e3", False),
    ):
        alg = parse_algebra_text(head + line + "\n")
        assert is_unimodular(alg) is unimodular is _unimodular_by_brackets(alg)
