"""Seeded benchmark workloads: inputs, how each report runs, and its answer check.

A workload is a list of cycles; a cycle is a fixed list of jobs, one per
report.  A job either runs ``lcscalc.cli.main`` on an argv or calls the
library through ``lib`` (a namespace of lcscalc modules that the tracer may
have patched).  ``check(code, out)`` returns the list of mismatches against
an answer that comes from ``oracle``, never from lcscalc.

Why each workload exists:

* ``dense_cohomology`` -- twisted cohomology of 6- and 7-generator nilpotent
  and solvable algebras in a dense frame: exact elimination and operator
  assembly dominate.
* ``lcs_chain`` -- ``lcs`` and ``moser`` on dense 6- and 8-generator
  Heisenberg x R: form algebra dominates, eliminations are small.
* ``symbolic_lcs`` -- parameter-mode certificates and polynomial powers:
  ``ParamScalar`` gcd dominates, no rational elimination runs.
* ``paper_scale`` -- the README commands on the 4-generator preset: each
  report is fast, so per-report fixed costs (parsing, checks, rendering)
  dominate.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

import oracle as O
from oracle import Poly

PRESET_NAMES = ["alpha", "beta", "gamma", "eta"]
SYMBOLS = ("n", "k", "lambda", "t1", "t2", "t3")


@dataclass
class Job:
    label: str
    check: Callable[[int, str], list]
    argv: list | None = None
    call: Callable | None = None  # call(lib) -> printed text, for library jobs


@dataclass
class Workload:
    name: str
    cycles: list


def gen_names(n: int) -> list[str]:
    return [f"e{i + 1}" for i in range(n)]


class Files:
    """Writes the generated algebra files into the work directory."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def write(self, text: str) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"alg{self.count}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


# ---------------------------------------------------------------------------
# reading reports
# ---------------------------------------------------------------------------


def text_field(out: str, prefix: str) -> str:
    for line in out.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise KeyError(f"no line starting with {prefix!r}")


def report(out: str, as_json: bool, key: str, prefix: str):
    return json.loads(out)[key] if as_json else text_field(out, prefix)


def expect(problems: list, what: str, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def exit_zero(code: int, problems: list) -> bool:
    if code != 0:
        problems.append(f"exit code {code}")
    return code == 0


# ---------------------------------------------------------------------------
# dense_cohomology
# ---------------------------------------------------------------------------


def cohomology_check(dims: list[int], as_json: bool):
    n = len(dims) - 1

    def check(code, out):
        problems: list = []
        if not exit_zero(code, problems):
            return problems
        # per degree: harmonic basis size, then the decomposition dimensions
        rows = []
        if as_json:
            doc = json.loads(out)
            got = doc["dims"]
            for d in doc["degrees"]:
                dec = d["decomposition"]
                rows.append((len(d["harmonic_basis"]),
                             dec["harmonic"], dec["image_d"], dec["image_delta"]))
        else:
            got = [int(x) for x in text_field(out, "dims:").split()]
            for deg in range(n + 1):
                line = text_field(out, f"degree {deg}:")
                shown = line.split("; harmonic: ")[1].split("; decomposition:")[0]
                dec = [int(x.split("=")[1]) for x in line.split("decomposition: ")[1].split()]
                rows.append((0 if shown == "(none)" else len(shown.split("; ")), *dec))
        expect(problems, "dims", got, dims)
        expect(problems, "degrees reported", len(rows), n + 1)
        for deg, (basis_size, harm, im_d, im_delta) in enumerate(rows):
            expect(problems, f"harmonic basis size in degree {deg}", basis_size, dims[deg])
            expect(problems, f"harmonic part in degree {deg}", harm, dims[deg])
            # Hodge decomposition: the three parts fill the degree
            expect(problems, f"decomposition total in degree {deg}",
                   harm + im_d + im_delta, comb(n, deg))
        return problems

    return check


def _small_nonzero(rng, lo=1, hi=3) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(lo, hi))


def _acfm_params(rng):
    n = Fraction(rng.choice([1, 2, 3]))
    k = Fraction(rng.randint(1, 3), rng.randint(1, 2)) * rng.choice([-1, 1])
    lam = _small_nonzero(rng)
    return n, k, lam


def _cohomology_case(files, rng, kind, twisted, as_json):
    """One dense cohomology report; the answer comes from the construction."""
    if kind.startswith("acfm"):
        r = int(kind[-1])
        n, k, lam = _acfm_params(rng)
        dgen = O.acfm_times_r(n, k, lam, r)
        w = {2: -k} if twisted else {}
        base = O.ACFM_TWISTED_DIMS if twisted else O.ACFM_BETTI
        dims = O.kunneth(base, O.abelian_betti(r))
    else:
        m, r = {"h5xR": (2, 1), "h3xR3": (1, 3), "h7": (3, 0), "h5xR2": (2, 2)}[kind]
        dgen = O.heisenberg_times_r(m, r)
        # closed 1-forms vanish on the centre z; a nonzero twist on a
        # nilpotent algebra has zero twisted cohomology
        w = {}
        while twisted and not w:
            w = O.clean({i: Fraction(rng.randint(-2, 2)) for i in range(len(dgen)) if i != 2 * m})
        dims = ([0] * (len(dgen) + 1) if twisted
                else O.kunneth(O.heisenberg_betti(m), O.abelian_betti(r)))
    frame = O.Frame.random(rng, len(dgen))
    names = gen_names(len(dgen))
    path = files.write(O.spec_text(names, frame.structure(dgen)))
    wf = O.one_form_key(frame.one_form(w))
    argv = ["cohomology", path, "--omega", O.form_text(wf, names)]
    return Job(f"cohomology {kind} {'twisted' if twisted else 'untwisted'}",
               cohomology_check(dims, as_json), argv=argv + (["--json"] if as_json else []))


def dense_cohomology(rng, files, ncycles):
    small = ["h5xR", "h3xR3", "acfmxR2"]
    large = ["h7", "h5xR2", "acfmxR3"]
    cycles = []
    for c in range(ncycles):
        jobs = []
        for i, kind in enumerate(small):
            for twisted in (False, True):
                jobs.append(_cohomology_case(files, rng, kind, twisted, (i + twisted + c) % 2 == 1))
        jobs.append(_cohomology_case(files, rng, large[c % 3], c % 2 == 0, c % 4 >= 2))
        cycles.append(jobs)
    return cycles


# ---------------------------------------------------------------------------
# lcs_chain
# ---------------------------------------------------------------------------


def _primitive_problems(problems, what, dgen, w, prim: dict, target: dict):
    """The printed primitive p must satisfy d_w p = target exactly."""
    p = {i: c for (i,), c in prim.items()}
    expect(problems, f"d_w of {what}", O.d_twisted_one(dgen, w, p), O.clean(target))


def lcs_check(names, dgen, w, omega, pf, as_json, exact_class=True):
    def check(code, out):
        problems: list = []
        if not exit_zero(code, problems):
            return problems
        expect(problems, "pfaffian",
               O.eval_scalar(report(out, as_json, "pfaffian", "pfaffian:"), {}), pf)
        expect(problems, "lee form",
               O.read_form(report(out, as_json, "lee", "lee form:"), names), O.one_form_key(w))
        if as_json:
            cls = json.loads(out)["class"]
            exact, prim = cls["exact"], cls.get("primitive", "")
        else:
            exact = text_field(out, "class:") == "exact"
            prim = text_field(out, "primitive:") if exact else ""
        expect(problems, "class exact", exact, exact_class)
        if exact:
            _primitive_problems(problems, "primitive", dgen, w, O.read_form(prim, names), omega)
        return problems

    return check


def moser_check(names, dgen, w, omegas, pfs, as_json):
    def check(code, out):
        problems: list = []
        if not exit_zero(code, problems):
            return problems
        if as_json:
            doc = json.loads(out)
            verdict, lee = doc["verdict"], doc["lee"]
            members = [(m["pfaffian"], m["difference_primitive"]) for m in doc["members"]]
        else:
            verdict, lee = text_field(out, "verdict:"), text_field(out, "lee form (shared):")
            members = []
            for i in range(len(omegas)):
                line = text_field(out, f"member {i}:")
                pf_text, prim_text = line.split("; difference primitive: ")
                members.append((pf_text.removeprefix("pfaffian "), prim_text))
        expect(problems, "verdict", verdict, "pass")
        expect(problems, "shared lee form", O.read_form(lee, names), O.one_form_key(w))
        expect(problems, "members", len(members), len(omegas))
        for i, ((pf_text, prim_text), omega, pf) in enumerate(zip(members, omegas, pfs)):
            expect(problems, f"member {i} pfaffian", O.eval_scalar(pf_text, {}), pf)
            _primitive_problems(problems, f"member {i} difference primitive", dgen, w,
                                O.read_form(prim_text, names),
                                O.add_forms(omega, omegas[0], -1))
        return problems

    return check


def _lcs_family(rng, m: int, size: int):
    """h_{2m+1} x R with Omega_j = d_w eta_j for w = c t, in a dense frame.

    Omega_j is conformally closed with Lee form w and d_w-exact by
    construction; its Pfaffian is the original-frame Pfaffian over det M.
    """
    n = 2 * m + 2
    z, t = 2 * m, 2 * m + 1
    dgen = O.heisenberg_times_r(m, 1)
    w = {t: _small_nonzero(rng)}
    frame = O.Frame.random(rng, n)
    omegas, pfs = [], []
    for _ in range(size):
        eta = {z: _small_nonzero(rng)}
        eta.update({i: Fraction(rng.randint(-2, 2)) for i in range(2 * m)})
        omega = O.d_twisted_one(dgen, w, O.clean(eta))
        pfs.append(O.top_power(omega, n) / frame.det)
        omegas.append(frame.two_form(omega))
    return gen_names(n), frame.structure(dgen), frame.one_form(w), omegas, pfs


def _lcs_jobs(rng, files, m: int, size: int, as_json: bool) -> list:
    names, dgen, w, omegas, pfs = _lcs_family(rng, m, size)
    path = files.write(O.spec_text(names, dgen))
    flag = ["--json"] if as_json else []
    family = "; ".join(O.form_text(om, names) for om in omegas)
    return [
        Job(f"lcs {2 * m + 2} generators",
            lcs_check(names, dgen, w, omegas[0], pfs[0], as_json),
            argv=["lcs", path, "--form", O.form_text(omegas[0], names)] + flag),
        Job(f"moser {2 * m + 2} generators",
            moser_check(names, dgen, w, omegas, pfs, as_json),
            argv=["moser", path, "--family", family] + flag),
    ]


def lcs_chain(rng, files, ncycles):
    # three 6-generator families per 8-generator one, so the median report
    # falls inside the 6-generator cluster rather than between the sizes
    cycles = []
    for c in range(ncycles):
        jobs = []
        for i, m in enumerate((2, 2, 2, 3)):
            jobs += _lcs_jobs(rng, files, m, 3 + (c + i) % 2, (c + i) % 2 == 1)
        cycles.append(jobs)
    return cycles


# ---------------------------------------------------------------------------
# symbolic_lcs
# ---------------------------------------------------------------------------


def _sample_points(rng, count=2) -> list[dict]:
    return [
        {s: Fraction(rng.randint(50, 999), rng.randint(1, 9)) for s in SYMBOLS + ("s1", "s2", "s3")}
        for _ in range(count)
    ]


def _omega_t(t1, t2, t3, k, nlam) -> dict:
    """t1 alpha^eta + t2 beta^gamma + t3 (n lambda alpha^beta - k gamma^eta)."""
    return O.clean({(0, 3): t1, (1, 2): t2, (0, 1): t3 * nlam, (2, 3): -1 * t3 * k})


def _omega_s(s1, s2, s3, k, nlam) -> dict:
    """s1 beta^eta + s2 alpha^gamma + s3 (n lambda alpha^beta + k gamma^eta)."""
    return O.clean({(1, 3): s1, (0, 2): s2, (0, 1): s3 * nlam, (2, 3): s3 * k})


def _pf_t(p):
    return 2 * p["t1"] * p["t2"] - 2 * p["k"] * p["n"] * p["lambda"] * p["t3"] ** 2


def _pf_s(p):
    return 2 * p["k"] * p["n"] * p["lambda"] * p["s3"] ** 2 - 2 * p["s1"] * p["s2"]


def symbolic_certificate_job(rng):
    """Parameter-mode is_lcs and primitive on the preset in a dense frame.

    Omega_t has Lee form -k gamma; Omega_t with t1 = 0 is d_w-exact.  The
    report is read back at two sample points of (n, k, lambda, t1, t2, t3).
    """
    n, k, lam, t1, t2, t3 = (Poly.sym(s) for s in SYMBOLS)
    frame = O.Frame.random(rng, 4)
    names = gen_names(4)
    dgen = frame.structure(O.acfm_times_r(n, k, lam, 0))
    text = O.spec_text(names, dgen, SYMBOLS)
    omega = _omega_t(t1, t2, t3, k, n * lam)
    exact = _omega_t(0, t2, t3, k, n * lam)
    omega_text = O.form_text(frame.two_form(omega), names)
    exact_f = frame.two_form(exact)
    exact_text = O.form_text(exact_f, names)
    lee_f = frame.one_form({2: -1 * k})
    points = _sample_points(rng)

    def call(lib):
        alg = lib.specfile.parse_algebra_text(text)
        form = lib.specfile.parse_form_expr(omega_text, alg.basis, alg.mode)
        cert = lib.lcs.is_lcs(alg, form)
        target = lib.specfile.parse_form_expr(exact_text, alg.basis, alg.mode)
        prim = lib.cohomology.primitive(alg, cert.lee, target)
        return json.dumps({
            "pfaffian": lib.scalar.scalar_str(cert.pfaffian),
            "lee": lib.exterior.form_str(cert.lee),
            "exact": prim.exact,
            "primitive": lib.exterior.form_str(prim.primitive) if prim.exact else "",
        })

    def check(code, out):
        problems: list = []
        doc = json.loads(out)
        expect(problems, "exact", doc["exact"], True)
        for p in points:
            expect(problems, "pfaffian", O.eval_scalar(doc["pfaffian"], p),
                   O.top_power(O.evaluate_form(omega, p), 4) / frame.det)
            expect(problems, "lee form", O.read_form(doc["lee"], names, p),
                   O.one_form_key(O.evaluate_form(lee_f, p)))
            if doc["exact"]:
                _primitive_problems(problems, "primitive", O.evaluate_structure(dgen, p),
                                    O.evaluate_form(lee_f, p),
                                    O.read_form(doc["primitive"], names, p),
                                    O.evaluate_form(exact_f, p))
        return problems

    return Job("param is_lcs + primitive", check, call=call)


def pfaffian_job(rng, as_json: bool):
    points = _sample_points(rng)
    argv = ["acfm", "--param-mode", "--pfaffian-t", "--pfaffian-s"] + (["--json"] if as_json else [])

    def check(code, out):
        problems: list = []
        if not exit_zero(code, problems):
            return problems
        for key, fn in (("t", _pf_t), ("s", _pf_s)):
            text = report(out, as_json, f"pfaffian_{key}", f"pfaffian {key}:")
            for p in points:
                expect(problems, f"pfaffian {key}", O.eval_scalar(text, p), fn(p))
        return problems

    return Job("acfm --param-mode pfaffians", check, argv=argv)


def power_job(rng):
    """parse_scalar of a power like (k+1)^40."""
    a, b, e = rng.randint(1, 4), rng.randint(1, 4), rng.randint(36, 40)
    text = f"({a}*k + {b})^{e}"
    points = _sample_points(rng)

    def call(lib):
        mode = lib.scalar.ScalarMode.params(*SYMBOLS)
        return lib.scalar.scalar_str(lib.scalar.parse_scalar(text, mode))

    def check(code, out):
        problems: list = []
        for p in points:
            expect(problems, f"value of {text}", O.eval_scalar(out, p), (a * p["k"] + b) ** e)
        return problems

    return Job("parse_scalar power", check, call=call)


def symbolic_lcs(rng, files, ncycles):
    # certificates are two thirds of the reports, so the median is one of them
    return [
        [symbolic_certificate_job(rng) for _ in range(4)]
        + [power_job(rng), pfaffian_job(rng, c % 2 == 1)]
        for c in range(ncycles)
    ]


# ---------------------------------------------------------------------------
# paper_scale
# ---------------------------------------------------------------------------


def preset_text(n, k, lam, params=()) -> str:
    return O.spec_text(PRESET_NAMES, O.acfm_times_r(n, k, lam, 0), params)


def structure_check(code, out, as_json):
    problems: list = []
    if not exit_zero(code, problems):
        return problems
    if as_json:
        doc = json.loads(out)
        got = (doc["d2"], doc["jacobi"], doc["unimodular"])
    else:
        got = (text_field(out, "d2:"), text_field(out, "jacobi:"),
               text_field(out, "unimodular:") == "true")
    expect(problems, "structure", got, ("pass", "pass", True))
    return problems


def _nondegenerate(rng, make, k, nlam, first):
    """A nondegenerate member of a preset family with the given first parameter."""
    while True:
        form = make(first, Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-2, 2)), k, nlam)
        if O.top_power(form, 4):
            return form


def paper_scale(rng, files, ncycles):
    n, k, lam = (Poly.sym(s) for s in ("n", "k", "lambda"))
    param_path = files.write(preset_text(n, k, lam, ("n", "k", "lambda")))
    return [paper_cycle(rng, files, c, param_path) for c in range(ncycles)]


def paper_cycle(rng, files, c: int, param_path: str):
    n, k, lam = _acfm_params(rng)
    dgen = O.acfm_times_r(n, k, lam, 0)
    path = files.write(preset_text(n, k, lam))
    as_json = c % 2 == 1
    flag = ["--json"] if as_json else []
    jobs = [Job("check", lambda code, out: structure_check(code, out, as_json),
                argv=["check", path] + flag),
            Job("check params", lambda code, out: structure_check(code, out, as_json),
                argv=["check", param_path] + flag)]
    for twisted in (True, False):
        w = {(2,): -k} if twisted else {}
        dims = O.ACFM_TWISTED_DIMS if twisted else O.ACFM_BETTI
        jobs.append(Job(f"cohomology {'twisted' if twisted else 'untwisted'}",
                        cohomology_check(dims, as_json),
                        argv=["cohomology", path, "--omega", O.form_text(w, PRESET_NAMES)] + flag))

    # family t has Lee form -k gamma and class t1 [alpha^eta]; family s has
    # Lee form k gamma and class s1 [beta^eta]; a class is exact iff that is 0
    first = _small_nonzero(rng) if c % 2 == 0 else Fraction(0)
    for fam, make, w in (("t", _omega_t, {2: -k}), ("s", _omega_s, {2: k})):
        omega = _nondegenerate(rng, make, k, n * lam, first)
        jobs.append(Job(f"lcs family {fam}",
                        lcs_check(PRESET_NAMES, dgen, w, omega, O.top_power(omega, 4),
                                  as_json, exact_class=first == 0),
                        argv=["lcs", path, "--form", O.form_text(omega, PRESET_NAMES)] + flag))

    # a fixed-Lee family shares t1, so member differences are exact
    shared_t1 = _small_nonzero(rng)
    omegas = [_nondegenerate(rng, _omega_t, k, n * lam, shared_t1) for _ in range(3)]
    pfs = [O.top_power(om, 4) for om in omegas]
    family = "; ".join(O.form_text(om, PRESET_NAMES) for om in omegas)
    jobs.append(Job("moser", moser_check(PRESET_NAMES, dgen, {2: -k}, omegas, pfs, as_json),
                    argv=["moser", path, "--family", family] + flag))

    args = [f"--n={O.fraction_text(n)}", f"--k={O.fraction_text(k)}",
            f"--lambda={O.fraction_text(lam)}"]
    points = _sample_points(rng)

    def theorem1_check(code, out):
        problems: list = []
        if not exit_zero(code, problems):
            return problems
        if as_json:
            doc = json.loads(out)
            expect(problems, "structure", (doc["structure"]["d2"], doc["structure"]["jacobi"]),
                   ("pass", "pass"))
            fams = {f: (doc["theorem1"][f"family_{f}"]["pfaffian"],
                        doc["theorem1"][f"family_{f}"]["lee"],
                        doc["theorem1"][f"family_{f}"]["instances_checked"])
                    for f in "ts"}
        else:
            fams = {}
            for f in "ts":
                cls = text_field(out, f"family {f} class:")
                fams[f] = (text_field(out, f"family {f} pfaffian:"),
                           text_field(out, f"family {f} lee form:"),
                           int(cls.split("nonzero on ")[1].split()[0]))
        for f, (pf_text, lee_text, checked) in fams.items():
            for p in points:
                p = dict(p, k=k, n=n, **{"lambda": lam})
                want = _pf_t(p) if f == "t" else _pf_s(p)
                expect(problems, f"family {f} pfaffian", O.eval_scalar(pf_text, p), want)
            expect(problems, f"family {f} lee form", O.read_form(lee_text, PRESET_NAMES),
                   {(2,): -k if f == "t" else k})
            if checked < 1:
                problems.append(f"family {f}: no instance checked")
        return problems

    jobs.append(Job("acfm --theorem1", theorem1_check,
                    argv=["acfm"] + args + ["--theorem1"] + flag))
    return jobs


WORKLOADS = {
    "dense_cohomology": dense_cohomology,
    "lcs_chain": lcs_chain,
    "symbolic_lcs": symbolic_lcs,
    "paper_scale": paper_scale,
}


def build(name: str, seed: int, workdir: str, ncycles: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    return Workload(name, WORKLOADS[name](rng, Files(workdir), ncycles))
