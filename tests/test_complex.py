"""The differential and the per-twist complex against independent oracles.

(a) d, and the matrices of d_w and of the mirror d_{tau-w} assembled from
    D_l, equal the invariant-form Koszul formula evaluated on frame fields
    (`helpers.koszul_d`), with brackets read straight off the structure
    constants, also on non-unimodular algebras, for a twist whose
    denominator does not divide D and on the 8-generator h7 x R of the
    golden corpus; this holds also for structure data with d*d != 0, since
    d is an antiderivation either way.  The Koszul matrix of d_w is built in
    closed form (`helpers.koszul_twisted_matrix`), which is checked against
    one determinant evaluation per entry on at most 5 generators, and the
    untwisted one (`helpers.koszul_d_matrix`) also in degrees 0-2 on 8;
(b) every harmonic basis equals the kernel of the Koszul d_w stacked on
    delta_w taken as `delta_omega` of each monomial, under the
    Fraction-only row reduction of `helpers`, also under a metric whose
    weights are not all 1, where the rows of d_w and delta_w (d_{tau-w} read
    through the star) equal `operator_matrix` over `d_omega` and
    `delta_omega` of each monomial, and delta_w is the metric adjoint
    G^-1 (d_w)^T G of the Koszul matrix;
(c) a cohomology report builds D_l once per degree, for w and tau - w
    alike, assembles each (twist, degree) matrix once and
    stays within 3N+1 rank/nullspace calls on N generators, and without a
    twist it makes no rank call: delta_w's ranks are d's, read off its
    kernels; the rank of delta_w equals the Fraction rank of `delta_omega`
    on each monomial, also on non-unimodular algebras;
(d) the primitive integer rows of both operators, times their contents
    over L, are the Koszul matrix and its transpose, also for twists whose
    denominators are prime to the structure's D, and every row and kernel
    vector is primitive; on 8 generators every kernel of d is the Fraction
    kernel of the closed-form Koszul matrix (`helpers.koszul_d_matrix`);
(e) each primitive is the free-variables-zero solution of the Koszul d_w
    system under the Fraction-only solve of `helpers`.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    change_of_basis,
    fraction_nullspace,
    fraction_solve,
    invert_matrix,
    koszul_d,
    koszul_d_matrix,
    koszul_twisted_by_evaluation,
    koszul_twisted_matrix,
    operator_matrix,
    perturb_algebra,
    random_good_algebra,
    random_invertible,
    rref_rank,
)
from lcscalc import cecomplex, hodge, linalg
from lcscalc.cecomplex import Algebra, d, d_omega
from lcscalc.cli import main
from lcscalc.cohomology import cohomology_report, primitive
from lcscalc.errors import InvalidMetric
from lcscalc.exterior import Basis, Form, form_str
from lcscalc.hodge import delta_omega, harmonic_space
from lcscalc.scalar import ScalarMode
from lcscalc.specfile import parse_algebra_file, parse_algebra_text, parse_form_expr
from test_golden import DENSE8_LEE, FRAME_TWIST

GOLDEN = Path(__file__).parent / "golden"


def dense_preset_product(seed: int, n: int, mode: ScalarMode):
    """Preset x R^(n-4) in a random dense frame, with a nonzero closed twist.

    In the original frame gamma and the R generators are the closed 1-forms;
    the twist is a random combination of them rewritten in the new frame.
    """
    rng = random.Random(seed)
    basis = Basis(tuple(f"e{i + 1}" for i in range(n)))
    if mode.is_param:
        k, nlam = mode.symbol("k"), mode.symbol("n") * mode.symbol("lambda")
    else:
        k, nlam = Fraction(rng.randint(1, 3)), Fraction(rng.randint(1, 3))
    dgen = [
        Form(basis, 2, {(0, 2): -k}),
        Form(basis, 2, {(1, 2): k}),
        basis.zero(2),
        Form(basis, 2, {(0, 1): nlam}),
    ] + [basis.zero(2)] * (n - 4)
    frame = random_invertible(rng, n)
    alg = change_of_basis(Algebra(basis, dgen, mode=mode), frame)
    inverse = invert_matrix(frame)
    twist = basis.zero(1)
    for a in [2] + list(range(4, n)):
        c = Fraction(rng.choice([-2, -1, 1, 2]))
        if mode.is_param:
            c = c * k
        twist = twist + c * Form(basis, 1, {(b,): inverse[a][b] for b in range(n)})
    assert not twist.is_zero()
    return alg, twist


RATIONAL_CASES = [(1, 5), (2, 6), (3, 6)]
PARAM_MODE = ScalarMode.params("n", "k", "lambda")


def _scaled_rows(cx, degree: int, step: int) -> list[list]:
    """The complex's rows of d_w (step 1) or delta_w (step -1), each times its content over L.

    Parameter-mode rows hold the scalars already.
    """
    rows, contents, scale = cx.rows(degree, step)
    if scale:
        rows = [[Fraction(g * x, scale) for x in row] for g, row in zip(contents, rows)]
    return list(rows)


def _matrix(cx, degree: int, step: int) -> list[list]:
    """The matrix of d_w or delta_w: delta_w's entry (K, I) is the scaled row's times g_K / g_I."""
    rows = _scaled_rows(cx, degree, step)
    if step < 0 and rows:
        low, high = _gram(cx.alg, degree - 1), _gram(cx.alg, degree)
        rows = [[x * gi / gk for x, gi in zip(row, high)] for row, gk in zip(rows, low)]
    return rows


def _mirror_cases() -> dict:
    """Rational algebras and twists; those read from files are not unimodular, so tau != 0.

    `rrr_metric` with -3/7 e4 has a twist denominator that does not divide
    D = 1, so its rows are scaled by L / D = 7.
    """
    cases = {
        f"{seed}-{n}": dense_preset_product(seed, n, ScalarMode.rational())
        for seed, n in RATIONAL_CASES
    }
    for name, twist in (
        ("nonunimodular", "1 e3"), ("rrr_metric", "-1 e4"), ("rrr_metric", "-3/7 e4")
    ):
        alg = parse_algebra_file(str(GOLDEN / f"{name}.alg"))
        cases[f"{name} {twist}"] = alg, parse_form_expr(twist, alg.basis, alg.mode)
    return cases


MIRROR_CASES = _mirror_cases()


def _assert_both_twists_match_koszul(alg, w):
    """d_w and the mirror d_{tau-w}, each read off D_l, equal the Koszul matrices."""
    cx = alg.twisted_complex(w)
    mirror = alg.trace_form() - w
    for degree in range(alg.dim + 1):
        assert _matrix(cx, degree, 1) == koszul_twisted_matrix(alg, w, degree)
        assert _scaled_rows(cx._mirror, degree, 1) == koszul_twisted_matrix(alg, mirror, degree)


@pytest.mark.parametrize("case", sorted(MIRROR_CASES))
def test_assembled_matrix_matches_monomial_route(case):
    """d_w and d_{tau-w} equal the Koszul formula evaluated on each monomial and frame tuple."""
    alg, w = MIRROR_CASES[case]
    if " " in case:
        assert not alg.trace_form().is_zero()
    if case == "rrr_metric -3/7 e4":
        assert alg.d_den == 1 and alg.twisted_complex(w).rows(1, 1)[2] == 7
    _assert_both_twists_match_koszul(alg, w)


def test_assembled_matrix_matches_monomial_route_in_param_mode():
    _assert_both_twists_match_koszul(*dense_preset_product(4, 5, PARAM_MODE))


def test_assembled_matrix_matches_koszul_on_eight_generators():
    """h7 x R in a dense frame, twisted by the shared Lee form of the lcs_dense8 forms."""
    alg = parse_algebra_file(str(GOLDEN / "h7xr_dense.alg"))
    _assert_both_twists_match_koszul(alg, parse_form_expr(DENSE8_LEE, alg.basis, alg.mode))


def _evaluation_cases() -> dict:
    """The cases on at most 5 generators, where determinant evaluation is fast enough."""
    cases = {case: pair for case, pair in MIRROR_CASES.items() if pair[0].dim <= 5}
    cases["4-5-params"] = dense_preset_product(4, 5, PARAM_MODE)
    return cases


EVALUATION_CASES = _evaluation_cases()


@pytest.mark.parametrize("case", sorted(EVALUATION_CASES))
def test_closed_form_koszul_matrix_matches_evaluation(case):
    """Each entry (d_w e_I)(X_J) by determinant evaluation, for w and tau - w."""
    alg, w = EVALUATION_CASES[case]
    for omega in (w, alg.trace_form() - w):
        for degree in range(alg.dim + 1):
            expected = koszul_twisted_by_evaluation(alg, omega, degree)
            assert koszul_twisted_matrix(alg, omega, degree) == expected


# the Koszul oracle is slow in parameter mode, so it checks one such algebra
@pytest.mark.parametrize(
    "seed,mode",
    [(1, ScalarMode.rational()), (2, ScalarMode.rational()), (2, PARAM_MODE)],
    ids=["1-rational", "2-rational", "2-params"],
)
def test_cotwisted_matrix_is_the_transpose_of_the_koszul_matrix(seed, mode):
    """On these unimodular algebras delta_w is the adjoint of d_w.

    The metric is the identity, so monomials are orthonormal and the adjoint
    is the transpose.  The oracle never calls the star.
    """
    alg, w = dense_preset_product(seed, 6, mode)
    cx = alg.twisted_complex(w)
    for degree in range(alg.dim):
        transpose = [list(col) for col in zip(*koszul_twisted_matrix(alg, w, degree))]
        assert _matrix(cx, degree + 1, -1) == transpose


# squares of rationals, so the star stays exact; the weights are 2 1 1/3 3 2/5 1
SQUARE_METRIC = [Fraction(g) for g in ("4", "1", "1/9", "9", "4/25", "1")]


def with_square_metric(alg: Algebra) -> Algebra:
    return Algebra(alg.basis, alg.dgen, SQUARE_METRIC, alg.mode)


def _gram(alg: Algebra, degree: int) -> list[Fraction]:
    """The diagonal inner products <e_I, e_I> = prod_{i in I} 1/g_i of one degree."""
    return [
        1 / math.prod((alg.metric[i] for i in idx), start=Fraction(1))
        for idx in combinations(range(alg.dim), degree)
    ]


@pytest.mark.parametrize("seed", [1, 2])
def test_cotwisted_matrix_is_the_metric_adjoint_of_the_koszul_matrix(seed):
    """delta_w = G_l^-1 * (d_w)^T * G_(l+1), G the diagonal Gram matrices.

    delta_w is the adjoint of d_w on these unimodular algebras; under a
    diagonal metric the monomials stay orthogonal with <e_I, e_I> =
    prod_{i in I} 1/g_i.  The oracle calls neither `d` nor the star.
    """
    alg, w = dense_preset_product(seed, 6, ScalarMode.rational())
    alg = with_square_metric(alg)
    cx = alg.twisted_complex(w)
    for degree in range(alg.dim):
        koszul = koszul_twisted_matrix(alg, w, degree)
        assert _matrix(cx, degree + 1, -1) == _adjoint(alg, koszul, degree)


def _adjoint(alg: Algebra, koszul: list[list], degree: int) -> list[list]:
    """G_l^-1 * K^T * G_(l+1) for the Koszul matrix K of d_w leaving degree l."""
    low, high = _gram(alg, degree), _gram(alg, degree + 1)
    return [[koszul[j][i] * high[j] / low[i] for j in range(len(high))] for i in range(len(low))]


def _form_route(alg: Algebra, op, degree: int, step: int) -> list[list]:
    """Matrix of op from degree l to l+step, one Form image per monomial."""
    if not 0 <= degree + step <= alg.dim:
        return []
    images = [op(alg.basis.monomial_form(m)) for m in alg.basis.monomials(degree)]
    return operator_matrix(images, list(alg.basis.monomials(degree + step)))


@pytest.mark.parametrize(
    "seed,mode",
    [(1, ScalarMode.rational()), (2, ScalarMode.rational()), (2, PARAM_MODE)],
    ids=["1-rational", "2-rational", "2-params"],
)
def test_matrices_match_the_form_route_under_a_metric(seed, mode):
    """Both matrices equal d_omega and delta_omega applied to each monomial Form.

    `d` reads the same d table as the matrices, so a wrong table entry shows
    on both sides and this test does not catch it; it checks the twist terms
    and how `TwistedComplex.rows` reads d_{tau-w} through the star (the overall
    sign, the re-indexing by complements), and that the weight products
    g_K / g_I are all that its delta_w rows leave out.  The table itself is
    checked by the Koszul and metric-adjoint oracles above.
    """
    alg, w = dense_preset_product(seed, 6, mode)
    alg = with_square_metric(alg)
    cx = alg.twisted_complex(w)
    for degree in range(alg.dim + 1):
        d_route = _form_route(alg, lambda a: d_omega(alg, w, a), degree, 1)
        delta_route = _form_route(alg, lambda a: delta_omega(alg, w, a), degree, -1)
        assert _matrix(cx, degree, 1) == d_route
        assert _matrix(cx, degree, -1) == delta_route


def _random_form(rng: random.Random, alg: Algebra, degree: int) -> Form:
    """A form with a random coefficient (zero included) on every monomial."""
    coeffs = [Fraction(c) for c in range(-3, 4)]
    if alg.mode.is_param:
        k, n = alg.mode.symbol("k"), alg.mode.symbol("n")
        coeffs += [k, 2 * k - n, k * n / 3]
    terms = {m: rng.choice(coeffs) for m in combinations(range(alg.dim), degree)}
    return Form(alg.basis, degree, terms)


def _assert_d_matches_koszul(alg: Algebra, rng: random.Random):
    for degree in range(alg.dim + 1):
        theta = _random_form(rng, alg, degree)
        assert d(alg, theta) == koszul_d(alg, theta)


@pytest.mark.parametrize("seed,n", RATIONAL_CASES)
def test_d_matches_koszul_formula_on_dense_algebras(seed, n):
    rng = random.Random(seed)
    alg, _ = dense_preset_product(seed, n, ScalarMode.rational())
    _assert_d_matches_koszul(alg, rng)
    _assert_d_matches_koszul(random_good_algebra(rng, n), rng)


def test_d_matches_koszul_formula_in_param_mode():
    alg, _ = dense_preset_product(4, 5, PARAM_MODE)
    _assert_d_matches_koszul(alg, random.Random(4))


def test_d_matches_koszul_formula_without_jacobi():
    rng = random.Random(7)
    broken = 0
    for n in (4, 5, 5):
        alg, _ = dense_preset_product(rng.randrange(100), n, ScalarMode.rational())
        alg = perturb_algebra(rng, alg)
        broken += not alg.check_d2().ok
        _assert_d_matches_koszul(alg, rng)
    assert broken


def _stacked_oracle(alg, omega, degree):
    """Kernel of the Koszul d_w stacked on delta_w from `delta_omega` of each monomial.

    Some cases are not unimodular: the 4-generator algebra that
    `random_good_algebra` draws from Random(5) is one.
    """
    delta = _form_route(alg, lambda a: delta_omega(alg, omega, a), degree, -1)
    rows = koszul_twisted_matrix(alg, omega, degree) + delta
    return fraction_nullspace(rows, len(list(alg.basis.monomials(degree))))


def _cases_for_harmonic():
    for seed, n in RATIONAL_CASES:
        yield dense_preset_product(seed, n, ScalarMode.rational())
    rng = random.Random(5)
    for n in (3, 4, 5, 5):
        alg = random_good_algebra(rng, n)
        yield alg, alg.basis.zero(1)
    for seed in (2, 3):
        alg, w = dense_preset_product(seed, 6, ScalarMode.rational())
        yield with_square_metric(alg), w
    for alg, w, _ in _integer_cases()[::3]:  # one twist prime to D, one under a metric
        yield alg, w


def _closed_one_forms(alg: Algebra) -> list[Form]:
    """The reduced basis of the closed 1-forms, from the Koszul matrix of d."""
    kernel = fraction_nullspace(koszul_twisted_matrix(alg, alg.basis.zero(1), 1), alg.dim)
    return [Form(alg.basis, 1, {(i,): c for i, c in enumerate(v)}) for v in kernel]


@functools.cache
def _integer_cases() -> list:
    """Structure data with D > 1 and nonzero twists, some with denominators prime to D.

    Each case carries its Koszul matrices of d_w, one per degree.
    """
    dense6 = parse_algebra_file(str(GOLDEN / "dense6.alg"))  # D = 4
    a, b, _ = _closed_one_forms(dense6)
    frame = parse_algebra_file(str(GOLDEN / "frame_twist.alg"))  # D = 441
    cases = [
        (dense6, Fraction(1, 7) * a - Fraction(3, 11) * b),
        (frame, parse_form_expr(FRAME_TWIST, frame.basis, frame.mode)),
    ]
    alg, w = dense_preset_product(1, 5, ScalarMode.rational())
    cases.append((alg, Fraction(1, 7) * w))
    alg, w = dense_preset_product(2, 6, ScalarMode.rational())
    cases.append((with_square_metric(alg), Fraction(-3, 11) * w))
    return [
        (alg, w, [koszul_twisted_matrix(alg, w, degree) for degree in range(alg.dim + 1)])
        for alg, w in cases
    ]


def test_integer_rows_times_their_factors_are_the_koszul_matrices():
    """Row by row the assembled integers are the Koszul d_w, and delta_w's its transpose.

    delta_w itself is G^-1 (d_w)^T G; its rows leave out the metric factor
    g_K / g_I, so under any metric they are the transpose on these
    unimodular algebras.
    """
    for alg, w, koszul in _integer_cases():
        assert alg.d_den > 1 and not w.is_zero()
        cx = alg.twisted_complex(w)
        for degree in range(alg.dim):
            assert _scaled_rows(cx, degree, 1) == koszul[degree]
            transpose = [list(col) for col in zip(*koszul[degree])]
            assert _scaled_rows(cx, degree + 1, -1) == transpose
            assert _matrix(cx, degree + 1, -1) == _adjoint(alg, koszul[degree], degree)


def test_assembled_rows_and_kernel_vectors_are_primitive():
    """gcd 1 everywhere; each kernel vector over its last entry is the reduced one."""
    for alg, w, koszul in _integer_cases():
        cx = alg.twisted_complex(w)
        for degree in range(alg.dim + 1):
            for step in (1, -1):
                assert all(math.gcd(*row) == 1 for row in cx.rows(degree, step)[0] if any(row))
            kernel = cx.kernel(degree)
            assert all(math.gcd(*vec) == 1 for vec in kernel)
            reduced = [[Fraction(x, [y for y in vec if y][-1]) for x in vec] for vec in kernel]
            assert reduced == fraction_nullspace(koszul[degree], cx.size(degree))


def test_untwisted_kernels_at_eight_generators_match_the_fraction_kernels():
    """Every kernel of d on h7 x R in a dense frame is the reduced Koszul kernel, made primitive.

    Its 70 x 56 and 56 x 70 matrices are where the order of the rows and the
    order of their pivots differ most.  The closed-form Koszul matrix is
    checked against the determinant formula in the low degrees first.
    """
    alg = parse_algebra_file(str(GOLDEN / "h7xr_dense.alg"))
    zero = alg.basis.zero(1)
    for degree in range(3):
        assert koszul_d_matrix(alg, degree) == koszul_twisted_by_evaluation(alg, zero, degree)
    cx = alg.twisted_complex(zero)
    for degree in range(alg.dim + 1):
        kernel = cx.kernel(degree)
        assert all(math.gcd(*vec) == 1 for vec in kernel)
        reduced = [[Fraction(x, [y for y in vec if y][-1]) for x in vec] for vec in kernel]
        assert reduced == fraction_nullspace(koszul_d_matrix(alg, degree), cx.size(degree))


def test_harmonic_bases_match_stacked_kernel():
    for alg, w in _cases_for_harmonic():
        for degree in range(alg.dim + 1):
            monos = list(alg.basis.monomials(degree))
            got = [
                [f.coefficient(m) or Fraction(0) for m in monos]
                for f in harmonic_space(alg, w, degree).basis
            ]
            assert got == _stacked_oracle(alg, w, degree)


def test_primitives_match_the_fraction_solve_of_the_koszul_system():
    """primitive(d_w eta) is the solution of Koszul d_w * x = d_w eta with free variables zero.

    The oracle reduces the Koszul matrix in Fractions, so it shares neither
    the assembled rows nor the scaling of the right-hand side to them.  The
    cases have D > 1, twists with denominators prime to D and one metric.
    """
    rng = random.Random(14)
    for alg, w, koszul in _integer_cases():
        for degree in range(1, alg.dim + 1):
            theta = d_omega(alg, w, _random_form(rng, alg, degree - 1))
            rhs = [theta.coefficient(m) or Fraction(0) for m in alg.basis.monomials(degree)]
            sol = fraction_solve(koszul[degree - 1], rhs, math.comb(alg.dim, degree - 1))
            expected = Form(alg.basis, degree - 1, zip(alg.basis.monomials(degree - 1), sol))
            assert primitive(alg, w, theta).primitive == expected


def test_primitive_in_param_mode_keeps_its_free_variables_zero():
    """Pinned primitives of d_w eta over Q(n, k, lambda), neither of them eta itself."""
    alg, w = dense_preset_product(2, 6, PARAM_MODE)
    eta = _random_form(random.Random(14), alg, 1)
    assert form_str(primitive(alg, w, d_omega(alg, w, eta)).primitive) == (
        "-254/51 e1 + (65 + 17*n*k)/(51) e2 + (-157 - 51*n + 102*k)/(51) e3"
        " - 164/51 e4 - 48/17 e5"
    )
    eta = alg.basis.monomial_form((4, 5))
    assert form_str(primitive(alg, w, d_omega(alg, w, eta)).primitive) == (
        "(198865*k + 41898*n*lambda)/(1240*k - 5952*n*lambda) e1^e2"
        " + (-293471*k - 315862*n*lambda)/(3720*k - 17856*n*lambda) e1^e3"
        " + (-67643*k - 98626*n*lambda)/(930*k - 4464*n*lambda) e1^e4"
        " + (-104275*k - 150494*n*lambda)/(1240*k - 5952*n*lambda) e1^e5"
        " + (-32499*k - 14270*n*lambda)/(1240*k - 5952*n*lambda) e1^e6"
        " + (-236465*k - 7564*n*lambda)/(1860*k - 8928*n*lambda) e2^e3"
        " + (-61799*k - 1891*n*lambda)/(465*k - 2232*n*lambda) e2^e4"
        " + (-99335*k - 1488*n*lambda)/(620*k - 2976*n*lambda) e2^e5"
        " + (-25751*k - 1488*n*lambda)/(620*k - 2976*n*lambda) e2^e6"
        " + (-34*k + 61*n*lambda)/(15*k - 72*n*lambda) e3^e4"
    )


def _count_calls(monkeypatch) -> list:
    """Log every call of rank, nullspace, `hodge._assemble` and `cecomplex._d_matrix`.

    `_assemble` is the one builder of d_w, and delta_w is d_{tau-w} read
    through the star: the complex reads its kernels, ranks, harmonic bases
    and primitives off these rows.  `_d_matrix` builds D_l, the untwisted d
    that `_assemble` copies for every twist and that `d` reads.  Each
    function is wrapped under every lcscalc name bound to it, so a call
    through any module alias is counted.
    """
    log = []
    for fn in (linalg.rank, linalg.nullspace, hodge._assemble, cecomplex._d_matrix):

        def counted(*args, _fn=fn, **kwargs):
            log.append((_fn.__name__, args))
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "lcscalc" or name.startswith("lcscalc."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counted)
    return log


def _reductions(log) -> int:
    return sum(1 for name, _ in log if name in ("rank", "nullspace"))


def _most_builds_of_one_matrix(log) -> int:
    """The most builds of one (twist, degree) matrix.

    delta_w reads the matrices of d_{tau-w}, so a twisted report builds d_w
    and d_{tau-w} leaving each degree, once each.
    """
    builds = Counter(args[1:3] for name, args in log if name == "_assemble")
    return max(builds.values())


@pytest.mark.parametrize("omega", ["0", "1 e1 - 1 e6"])
def test_report_builds_each_matrix_once(omega, monkeypatch, capsys):
    """Each d_w is assembled once, and D_l once per degree for both w and tau - w."""
    log = _count_calls(monkeypatch)
    monkeypatch.chdir(GOLDEN)
    assert main(["cohomology", "dense6.alg", "--omega", omega]) == 0
    capsys.readouterr()
    assert 0 < _reductions(log) <= 3 * 6 + 1
    assert _most_builds_of_one_matrix(log) == 1
    shared = Counter(args[1] for name, args in log if name == "_d_matrix")
    assert shared and max(shared.values()) == 1
    if omega != "0":  # the twist and its mirror both assemble every degree from one D_l
        assembled = Counter(args[2] for name, args in log if name == "_assemble")
        assert set(assembled) == set(range(7)) and set(assembled.values()) == {2}
        assert set(shared) == set(range(6))


def test_library_calls_share_the_complex(monkeypatch):
    alg, w = dense_preset_product(2, 6, ScalarMode.rational())
    log = _count_calls(monkeypatch)
    report = cohomology_report(alg, w)
    for degree in range(alg.dim + 1):
        assert hodge.decomposition_dims(alg, w, degree)[0] == report.dims[degree]
    assert cohomology_report(alg, w) == report
    assert _reductions(log) <= 3 * alg.dim + 1
    assert _most_builds_of_one_matrix(log) == 1


def test_untwisted_report_makes_no_rank_call(monkeypatch, capsys):
    """Without a twist delta_w is d read through the star, and d's kernels are reduced already."""
    log = _count_calls(monkeypatch)
    monkeypatch.chdir(GOLDEN)
    assert main(["cohomology", "dense6.alg", "--omega", "0"]) == 0
    capsys.readouterr()
    assert [name for name, _ in log if name == "rank"] == []
    assert _reductions(log) > 0


@settings(max_examples=30)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(3, 5),
    twisted=st.booleans(),
    metric=st.booleans(),
)
@example(seed=1, n=4, twisted=True, metric=True)  # not unimodular
def test_delta_rows_and_rank_match_the_form_route(seed, n, twisted, metric):
    """delta_w's rows and rank, read off d_{tau-w} leaving N - l, are those of delta_omega.

    Many draws are not unimodular, and on every one delta_w is the metric
    adjoint of the Koszul d_w, an oracle that calls neither `d` nor the
    star.  The metric weights are squares of rationals, so the star stays
    exact.
    """
    rng = random.Random(seed)
    alg = random_good_algebra(rng, n)
    if metric:
        weights = [Fraction(rng.randint(1, 3), rng.randint(1, 3)) ** 2 for _ in range(n)]
        alg = Algebra(alg.basis, alg.dgen, weights)
    w = alg.basis.zero(1)
    if twisted:
        for form in _closed_one_forms(alg):
            w = w + rng.choice([-2, -1, 1, 2]) * form
    cx = alg.twisted_complex(w)
    for degree in range(n + 2):
        delta = _form_route(alg, lambda a: delta_omega(alg, w, a), degree, -1)
        assert cx.delta_rank(degree) == rref_rank(delta)
        if degree <= n:  # the Form route's matrix leaving degree N + 1 is a row of no columns
            assert _matrix(cx, degree, -1) == delta
        if 0 < degree <= n:
            koszul = koszul_twisted_matrix(alg, w, degree - 1)
            assert _matrix(cx, degree, -1) == _adjoint(alg, koszul, degree - 1)


@pytest.mark.parametrize("omega", ["0", "1 e1"])
def test_delta_refuses_a_metric_that_is_not_a_square(omega):
    """delta_w is defined through the star, which is exact for square metric entries only."""
    alg = parse_algebra_text("generators e1 e2 e3\nd e3 = 1 e1^e2\nmetric diag 2 1 1\n")
    cx = alg.twisted_complex(parse_form_expr(omega, alg.basis, alg.mode))
    for degree in range(alg.dim + 1):
        with pytest.raises(InvalidMetric):
            cx.delta_rank(degree)
        with pytest.raises(InvalidMetric):
            cx.harmonic(degree)
