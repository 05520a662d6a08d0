"""The differential and the per-twist complex against independent oracles.

(a) d, and the d_w matrix built from it, equal the invariant-form Koszul
    formula evaluated on frame fields (`helpers.koszul_d`), with brackets
    read straight off the structure constants; this holds also for
    structure data with d*d != 0, since d is an antiderivation either way;
(b) every harmonic basis equals the kernel of the stacked [d_w; delta_w]
    matrix under the Fraction-only row reduction of `helpers`, also under a
    metric whose weights are not all 1, where the assembled d_w and delta_w
    equal `operator_matrix` over `d_omega` and `delta_omega` of each monomial,
    and delta_w is the metric adjoint G^-1 (d_w)^T G of the Koszul matrix;
(c) a cohomology report assembles each matrix once and stays within 3N+1
    rank/nullspace calls on N generators.
"""

from __future__ import annotations

import math
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from helpers import (
    change_of_basis,
    fraction_nullspace,
    invert_matrix,
    koszul_d,
    koszul_twisted_matrix,
    perturb_algebra,
    random_good_algebra,
    random_invertible,
)
from lcscalc import hodge, linalg
from lcscalc.cecomplex import Algebra, d, d_omega
from lcscalc.cli import main
from lcscalc.cohomology import cohomology_report
from lcscalc.exterior import Basis, Form
from lcscalc.hodge import cotwisted_matrix, delta_omega, harmonic_space, twisted_matrix
from lcscalc.linalg import operator_matrix
from lcscalc.scalar import ScalarMode

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


@pytest.mark.parametrize("seed,n", RATIONAL_CASES)
def test_assembled_matrix_matches_monomial_route(seed, n):
    """d_w equals the Koszul formula evaluated on each monomial and frame tuple."""
    alg, w = dense_preset_product(seed, n, ScalarMode.rational())
    for degree in range(n + 1):
        assert twisted_matrix(alg, w, degree) == koszul_twisted_matrix(alg, w, degree)


def test_assembled_matrix_matches_monomial_route_in_param_mode():
    alg, w = dense_preset_product(4, 5, PARAM_MODE)
    for degree in range(6):
        assert twisted_matrix(alg, w, degree) == koszul_twisted_matrix(alg, w, degree)


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
    for degree in range(alg.dim):
        transpose = [list(col) for col in zip(*koszul_twisted_matrix(alg, w, degree))]
        assert cotwisted_matrix(alg, w, degree + 1) == transpose


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
    for degree in range(alg.dim):
        low, high = _gram(alg, degree), _gram(alg, degree + 1)
        koszul = koszul_twisted_matrix(alg, w, degree)
        adjoint = [
            [koszul[j][i] * high[j] / low[i] for j in range(len(high))]
            for i in range(len(low))
        ]
        assert cotwisted_matrix(alg, w, degree + 1) == adjoint


def _form_route(alg: Algebra, op, degree: int, step: int) -> list[list]:
    """Matrix of op from degree l to l+step, one Form image per monomial."""
    if not 0 <= degree + step <= alg.dim:
        return []
    images = [op(alg.basis.monomial_form(m)) for m in alg.basis.monomials(degree)]
    return operator_matrix(images, list(alg.basis.monomials(degree + step)), alg.zero_scalar())


@pytest.mark.parametrize(
    "seed,mode",
    [(1, ScalarMode.rational()), (2, ScalarMode.rational()), (2, PARAM_MODE)],
    ids=["1-rational", "2-rational", "2-params"],
)
def test_matrices_match_the_form_route_under_a_metric(seed, mode):
    """Both matrices equal d_omega and delta_omega applied to each monomial Form.

    `d` reads the same d table as the matrices, so a wrong table entry shows
    on both sides and this test does not catch it; it checks the twist terms
    and how `cotwisted_matrix` composes the star with d - w^ (the overall
    sign, the re-indexing by complements, the weight products).  The table
    itself is checked by the Koszul and metric-adjoint oracles above.
    """
    alg, w = dense_preset_product(seed, 6, mode)
    alg = with_square_metric(alg)
    for degree in range(alg.dim + 1):
        d_route = _form_route(alg, lambda a: d_omega(alg, w, a), degree, 1)
        delta_route = _form_route(alg, lambda a: delta_omega(alg, w, a), degree, -1)
        assert twisted_matrix(alg, w, degree) == d_route
        assert cotwisted_matrix(alg, w, degree) == delta_route


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
    rows = koszul_twisted_matrix(alg, omega, degree) + cotwisted_matrix(alg, omega, degree)
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


def test_harmonic_bases_match_stacked_kernel():
    for alg, w in _cases_for_harmonic():
        for degree in range(alg.dim + 1):
            monos = list(alg.basis.monomials(degree))
            got = [
                [f.coefficient(m) or Fraction(0) for m in monos]
                for f in harmonic_space(alg, w, degree).basis
            ]
            assert got == _stacked_oracle(alg, w, degree)


def _count_calls(monkeypatch) -> list:
    """Log every call of rank, nullspace and the two matrix builders.

    Each function is wrapped under every lcscalc name bound to it, so a
    call through any module alias is counted.
    """
    log = []
    for fn in (linalg.rank, linalg.nullspace, hodge.twisted_matrix, hodge.cotwisted_matrix):

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
    builds = Counter((name, args[2]) for name, args in log if name.endswith("twisted_matrix"))
    return max(builds.values())


@pytest.mark.parametrize("omega", ["0", "1 e1 - 1 e6"])
def test_report_builds_each_matrix_once(omega, monkeypatch, capsys):
    log = _count_calls(monkeypatch)
    monkeypatch.chdir(GOLDEN)
    assert main(["cohomology", "dense6.alg", "--omega", omega]) == 0
    capsys.readouterr()
    assert 0 < _reductions(log) <= 3 * 6 + 1
    assert _most_builds_of_one_matrix(log) == 1


def test_library_calls_share_the_complex(monkeypatch):
    alg, w = dense_preset_product(2, 6, ScalarMode.rational())
    log = _count_calls(monkeypatch)
    report = cohomology_report(alg, w)
    for degree in range(alg.dim + 1):
        assert hodge.decomposition_dims(alg, w, degree)[0] == report.dims[degree]
    assert cohomology_report(alg, w) == report
    assert _reductions(log) <= 3 * alg.dim + 1
    assert _most_builds_of_one_matrix(log) == 1
