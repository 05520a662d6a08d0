"""Acyclic twisted complexes, certified from ranks modulo a prime.

A complex with H^0_w = H^1_w = 0 tries to certify every other degree from
ranks modulo p (`linalg.echelon_mod`) through the bound
r_{l-1} + r_l <= C(N, l).  Each harmonic space is then zero when the rank
of d_w into its degree, from that closure, and the rank of delta_w into
it, from the closure of the complex of tau - w, add up to C(N, l); a
degree where they fall short takes the exact route.  The oracles share
none of that: Koszul matrices and the Form route of d_omega and
delta_omega reduced in Fractions, and twisted Poincare duality, dims(w) in
degree l equal to dims(tau - w) in degree N - l, tau the trace form.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import fraction_nullspace, koszul_twisted_matrix, random_good_algebra, rref_rank
from lcscalc import cecomplex, hodge, linalg
from lcscalc.cecomplex import Algebra, d_omega
from lcscalc.cli import main
from lcscalc.cohomology import cohomology_report
from lcscalc.exterior import Form
from lcscalc.hodge import delta_omega
from lcscalc.specfile import parse_algebra_file, parse_algebra_text, parse_form_expr
from test_complex import _closed_one_forms, _count_calls, _form_route, _stacked_oracle
from test_golden import CASES, DENSE6_LEE, GOLDEN, STDERR

# e(1,1) x e(1,1): each factor has H^0_w = 0 and H^1_w = R for its twist, so
# by Kunneth the product passes the gate (H^0_w = H^1_w = 0) but has H^2_w = R
E11_SQUARED = """generators e1 e2 e3 e4 e5 e6
d e2 = 1 e1^e2
d e3 = -1 e1^e3
d e5 = 1 e4^e5
d e6 = -1 e4^e6
"""

# not unimodular, with w = e1: aff(1), aff(1) x R and R acting on R^2 with
# a central e3.  Each complex is acyclic, and so is the complex of tau - w
# that delta_w reads
NOT_UNIMODULAR = {
    "aff1": "generators e1 e2\nd e2 = 1 e1^e2\n",
    "aff1xR": "generators e1 e2 e3\nd e2 = 1 e1^e2\n",
    "RxR2xR": "generators e1 e2 e3 e4\nd e2 = 1 e1^e2\nd e4 = 1 e1^e4\n",
}


def _koszul_dims(alg: Algebra, omega: Form) -> list[int]:
    ranks = [rref_rank(koszul_twisted_matrix(alg, omega, degree)) for degree in range(alg.dim)]
    ranks = [0] + ranks + [0]
    return [comb(alg.dim, l) - ranks[l] - ranks[l + 1] for l in range(alg.dim + 1)]


def _random_twist(rng: random.Random, alg: Algebra) -> Form:
    w = alg.basis.zero(1)
    for form in _closed_one_forms(alg):
        w = w + rng.choice([-2, -1, 0, 1, 2]) * form
    return w


def test_acyclic_report_reduces_no_kernel_beyond_degree_one(monkeypatch, capsys):
    """Kernels of d_0 and d_1 for w and for -w; every other rank is modular."""
    log = _count_calls(monkeypatch)
    monkeypatch.chdir(GOLDEN)
    assert main(CASES["cohomology_acyclic"][0]) == 0
    capsys.readouterr()
    names = [name for name, _ in log]
    assert names.count("nullspace") <= 4
    assert "rank" not in names


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 5))
@example(seed=3, n=5)
def test_twisted_duality_on_random_draws(seed, n):
    """dims(w) reversed are dims(tau - w), their alternating sum is 0, and both match Koszul ranks.

    Many draws are not unimodular, where tau - w is not -w.
    """
    rng = random.Random(seed)
    alg = random_good_algebra(rng, n)
    w = _random_twist(rng, alg)
    dims = [alg.twisted_complex(w).betti(l) for l in range(n + 1)]
    mirror = [alg.twisted_complex(alg.trace_form() - w).betti(l) for l in range(n + 1)]
    assert dims[::-1] == mirror
    assert sum((-1) ** l * b for l, b in enumerate(dims)) == 0
    assert dims == _koszul_dims(alg, w)


def test_twisted_duality_on_dense6():
    alg = parse_algebra_file(str(GOLDEN / "dense6.alg"))
    w = parse_form_expr("1 e1 - 1 e6", alg.basis, alg.mode)
    dims = [alg.twisted_complex(w).betti(l) for l in range(alg.dim + 1)]
    assert dims == [0, 1, 4, 6, 4, 1, 0]
    assert [alg.twisted_complex(-w).betti(l) for l in range(alg.dim + 1)] == dims[::-1]


def test_a_degree_that_does_not_close_leaves_the_exact_route():
    """The gate passes on e(1,1)^2 with w = e1 + e4, and degree 2 ends the attempt."""
    alg = parse_algebra_text(E11_SQUARED)
    w = parse_form_expr("1 e1 + 1 e4", alg.basis, alg.mode)
    cx = alg.twisted_complex(w)
    assert cx.kernel(0) == [] and len(cx.kernel(1)) == 1
    assert _koszul_dims(alg, w) == [0, 0, 1, 2, 1, 0, 0]
    assert cohomology_report(alg, w).dims == (0, 0, 1, 2, 1, 0, 0)
    assert cx._acyclic() is None


@pytest.mark.parametrize("name", sorted(NOT_UNIMODULAR))
def test_a_certified_complex_keeps_its_own_harmonic_and_delta_ranks(name):
    """Off unimodular data the certificate, delta_w's ranks and the harmonic spaces agree.

    delta_w's ranks are d_{tau-w}'s, and by twisted duality the complex of
    tau - w is certified too; the ranks of d_w and delta_w fill every
    degree, so every harmonic space is zero, as the Koszul oracle finds it.
    """
    alg = parse_algebra_text(NOT_UNIMODULAR[name])
    w = parse_form_expr("1 e1", alg.basis, alg.mode)
    cx = alg.twisted_complex(w)
    degrees = range(alg.dim + 1)
    assert [cx.betti(l) for l in degrees] == _koszul_dims(alg, w) == [0] * len(degrees)
    mirror = alg.twisted_complex(alg.trace_form() - w)
    assert mirror.omega != -w
    assert cx._acyclic() is not None and mirror._acyclic() is not None
    for degree in degrees:
        delta = _form_route(alg, lambda a: delta_omega(alg, w, a), degree, -1)
        assert cx.delta_rank(degree) == rref_rank(delta)
        monos = list(alg.basis.monomials(degree))
        got = [[f.coefficient(m) or Fraction(0) for m in monos] for f in cx.harmonic(degree).basis]
        assert got == _stacked_oracle(alg, w, degree) == []
    assert cohomology_report(alg, w).dims == (0,) * len(degrees)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 5), twisted=st.booleans())
def test_stacked_rows_have_the_kernel_of_the_form_route(seed, n, twisted):
    """The rows of d_w and `_delta_rows` have, over Q, the kernel of [d_omega; delta_omega].

    The exact harmonic route reduces d_w's rows to K and `_delta_rows` times K.

    The metric weights are squares of rationals, so the star stays exact;
    many draws have cohomology or are not unimodular, so their kernels are
    not zero and a dropped g_I factor changes them.
    """
    rng = random.Random(seed)
    alg = random_good_algebra(rng, n)
    weights = [Fraction(rng.randint(1, 3), rng.randint(1, 3)) ** 2 for _ in range(n)]
    alg = Algebra(alg.basis, alg.dgen, weights)
    w = _random_twist(rng, alg) if twisted else alg.basis.zero(1)
    cx = alg.twisted_complex(w)
    for degree in range(n + 1):
        d_route = _form_route(alg, lambda a: d_omega(alg, w, a), degree, 1)
        delta_route = _form_route(alg, lambda a: delta_omega(alg, w, a), degree, -1)
        size = comb(n, degree)
        expected = fraction_nullspace(d_route + delta_route, size)
        stacked = cx.rows(degree, 1)[0] + cx._delta_rows(degree)
        assert fraction_nullspace(stacked, size) == expected


@pytest.mark.parametrize("omega", ["0", "1 e1 - 1 e6"])
def test_stacked_rows_under_the_golden_metric(omega):
    alg = parse_algebra_file(str(GOLDEN / "dense6_metric.alg"))
    w = parse_form_expr(omega, alg.basis, alg.mode)
    cx = alg.twisted_complex(w)
    kernels = []
    for degree in range(alg.dim + 1):
        d_route = _form_route(alg, lambda a: d_omega(alg, w, a), degree, 1)
        delta_route = _form_route(alg, lambda a: delta_omega(alg, w, a), degree, -1)
        size = comb(alg.dim, degree)
        expected = fraction_nullspace(d_route + delta_route, size)
        stacked = cx.rows(degree, 1)[0] + cx._delta_rows(degree)
        assert fraction_nullspace(stacked, size) == expected
        kernels.append(len(expected))
    assert any(kernels)


def test_acyclic_report_reduces_each_degree_once_modulo_p(monkeypatch, capsys):
    """One modular rank per degree 2..N-1 for w and for tau - w, and no view of delta_w's rows.

    The harmonic spaces are read off those ranks alone.
    """
    built, reduced = {}, []
    real_rows, real_echelon = hodge.TwistedComplex.rows, hodge.echelon_mod

    def rows(cx, degree, step):
        out = real_rows(cx, degree, step)
        built[id(out[0])] = (str(cx.omega), degree, step)
        return out

    def echelon(matrix, *args):
        reduced.append(built.get(id(matrix)))
        return real_echelon(matrix, *args)

    monkeypatch.setattr(hodge.TwistedComplex, "rows", rows)
    monkeypatch.setattr(hodge, "echelon_mod", echelon)
    monkeypatch.chdir(GOLDEN)
    assert main(CASES["cohomology_acyclic"][0]) == 0
    capsys.readouterr()
    alg = parse_algebra_file("h5xr_dense.alg")
    w = parse_form_expr(DENSE6_LEE, alg.basis, alg.mode)
    twists = [str(w), str(alg.trace_form() - w)]
    assert Counter(reduced) == Counter((t, l, 1) for t in twists for l in range(2, alg.dim))
    assert all(step > 0 for _, _, step in built.values())


@pytest.mark.parametrize("change", [-1, 1])
def test_a_harmonic_degree_the_ranks_do_not_fill_takes_the_exact_route(change):
    """A rank of tau - w's certificate moved off by one leaves its degree to K and delta_w*K.

    d_{tau-w} leaving 2 is delta_w leaving N - 2 = 4, so degree 3 no longer
    adds up to C(6, 3); every other degree still does.
    """
    alg = parse_algebra_file(str(GOLDEN / "h5xr_dense.alg"))
    w = parse_form_expr(DENSE6_LEE, alg.basis, alg.mode)
    cx = alg.twisted_complex(w)
    mirror = alg.twisted_complex(alg.trace_form() - w)
    assert cx._acyclic() is not None and mirror._acyclic() is not None
    ranks = list(mirror._store[("acyclic",)])
    ranks[2] += change
    mirror._store[("acyclic",)] = tuple(ranks)
    for degree in range(alg.dim + 1):
        monos = list(alg.basis.monomials(degree))
        got = [[f.coefficient(m) or Fraction(0) for m in monos] for f in cx.harmonic(degree).basis]
        assert got == _stacked_oracle(alg, w, degree) == []
        assert (("kernel", degree) in cx._store) == (degree in (0, 1, 3))


@pytest.mark.parametrize("prime", [2, 3])
@pytest.mark.parametrize("suffix", ["txt", "json"])
@pytest.mark.parametrize("case", sorted(c for c in CASES if c.startswith("cohomology")))
def test_cohomology_reports_do_not_depend_on_the_prime(case, suffix, prime, capsys, monkeypatch):
    """Small primes make modular ranks fall short; the exact route then gives the same bytes."""
    monkeypatch.setattr(linalg, "PRIME", prime)
    argv, code = CASES[case]
    monkeypatch.chdir(GOLDEN)
    assert main(argv + (["--json"] if suffix == "json" else [])) == code
    out, err = capsys.readouterr()
    assert err == STDERR.get(case, "")
    assert out == (GOLDEN / f"{case}.{suffix}").read_text(encoding="utf-8")


def test_a_twist_and_its_negative_are_checked_closed_once(monkeypatch, capsys):
    """Accepting w registers tau - w, so delta_w's complex of tau - w computes no d(tau - w)."""
    calls = []
    real = cecomplex.d

    def counted(alg, a):
        calls.append(a.degree)
        return real(alg, a)

    for name, module in list(sys.modules.items()):
        if name == "lcscalc" or name.startswith("lcscalc."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)
    monkeypatch.chdir(GOLDEN)
    assert main(["cohomology", "dense6.alg", "--omega", "1 e1 - 1 e6"]) == 0
    capsys.readouterr()
    assert calls == [2] * 6 + [1]  # d of each d e_i for d*d = 0, then d(w)
