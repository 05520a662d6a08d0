"""Command-line interface with deterministic, exact text/JSON reports.

Exit codes: 0 success, 1 input error (syntax, undeclared names, bad
parameters, forms of the wrong degree), 2 mathematical failure (structure
data with d*d != 0, non-closed twist, degenerate form, broken hypothesis).
Reports go to stdout, diagnostics to stderr; output is byte-stable for a
fixed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import cohomology, lcs, presets
from .cecomplex import Algebra, is_unimodular, jacobi_check
from .errors import CrossCheckError, Degenerate, InputError, MathError
from .exterior import form_str
from .scalar import ScalarMode, parse_scalar, scalar_str
from .specfile import algebra_to_text, parse_algebra_file, parse_form_expr


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse echoes unrecognized arguments as given: keep one line
        message = " ".join(message.splitlines())
        self.exit(1, f"{self.prog}: error: {message}\n")


def _shown(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return " ".join(str(v) for v in value)
    return str(value)


class _Report:
    """Ordered facts, each a JSON key and value plus the text lines showing it.

    A fact without a key is text only; a fact with no lines is JSON only.
    """

    def __init__(self, title: str, suffix: str = ""):
        self.facts: list[tuple[str | None, object, list[str]]] = []
        self.add("report", title.replace(" ", "-"), [f"report: {title}{suffix}"])

    def add(self, key: str | None, value=None, lines: list[str] | None = None):
        """Add a fact; by default its one line is `key: value`."""
        if lines is None:
            lines = [f"{key.replace('_', ' ')}: {_shown(value)}"]
        self.facts.append((key, value, lines))

    def payload(self) -> dict:
        return {key: value for key, value, _ in self.facts if key is not None}

    def lines(self) -> list[str]:
        return [line for _, _, lines in self.facts for line in lines]

    def emit(self, as_json: bool) -> None:
        if as_json:
            print(json.dumps(self.payload(), indent=2))
        else:
            print("\n".join(self.lines()))


def _add_echo(report: _Report, alg: Algebra, source: str) -> None:
    report.add("input", source)
    mode = "params " + " ".join(alg.mode.symbols) if alg.mode.is_param else "rational"
    echo = [f"  {line}" for line in algebra_to_text(alg).strip().splitlines()]
    report.add(None, lines=[f"mode: {mode}"] + echo)


def _file_report(title: str, alg: Algebra, source: str) -> _Report:
    """Header of a report on the invariant complex of an algebra file."""
    report = _Report(title, " (invariant-complex)")
    report.add("complex", "invariant", [])
    _add_echo(report, alg, source)
    return report


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _structure_report(alg: Algebra, source: str) -> tuple[_Report, int]:
    report = _Report("structure check")
    _add_echo(report, alg, source)
    d2 = alg.check_d2()
    if not d2.ok:
        failure = {"generator": d2.generator, "residual": form_str(d2.residual)}
        line = "d2: FAIL generator {generator}; residual: {residual}"
        report.add("d2", failure, [line.format(**failure)])
        report.add("jacobi", "skipped", [])
        return report, 2
    report.add("d2", "pass")
    # d*d = 0 is equivalent to the Jacobi identity, so this is a second route
    if not jacobi_check(alg.brackets()).ok:
        raise CrossCheckError("Jacobi identity fails although d*d = 0")
    report.add("jacobi", "pass")
    report.add("unimodular", is_unimodular(alg))
    return report, 0


def cmd_check(args) -> int:
    report, code = _structure_report(parse_algebra_file(args.file), args.file)
    report.emit(args.json)
    return code


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------


def cmd_cohomology(args) -> int:
    alg = parse_algebra_file(args.file)
    omega = parse_form_expr(args.omega, alg.basis, alg.mode)
    report = _file_report("twisted cohomology", alg, args.file)
    report.add("omega", form_str(omega))
    report.add("unimodular", is_unimodular(alg))
    # delta_w is the metric adjoint of d_w on every algebra (`hodge`)
    report.add(None, lines=["adjointness: applicable"])
    cx = alg.twisted_complex(omega)
    coh = cohomology.cohomology_report(alg, omega)
    report.add("dims", list(coh.dims))
    degrees, lines = [], []
    for degree, space in enumerate(coh.harmonic_bases):
        h, im_d, im_delta = cx.decomposition(degree)
        if h + im_d + im_delta != cx.size(degree):
            raise CrossCheckError(f"decomposition dimensions do not fill degree {degree}")
        basis = [form_str(f) for f in space.basis]
        lines.append(
            f"degree {degree}: dim {coh.dims[degree]}; "
            f"harmonic: {'; '.join(basis) if basis else '(none)'}; "
            f"decomposition: harmonic={h} image_d={im_d} image_delta={im_delta}"
        )
        split = {"harmonic": h, "image_d": im_d, "image_delta": im_delta}
        fact = {"degree": degree, "dim": coh.dims[degree], "harmonic_basis": basis}
        degrees.append({**fact, "decomposition": split})
    report.add("degrees", degrees, lines)
    report.emit(args.json)
    return 0


# ---------------------------------------------------------------------------
# lcs
# ---------------------------------------------------------------------------


def cmd_lcs(args) -> int:
    alg = parse_algebra_file(args.file)
    form = parse_form_expr(args.form, alg.basis, alg.mode)
    report = _file_report("lcs certificate", alg, args.file)
    report.add("form", form_str(form))
    try:
        cert = lcs.is_lcs(alg, form)
    except Degenerate:
        report.add("pfaffian", "0")
        report.emit(args.json)
        raise
    report.add("pfaffian", scalar_str(cert.pfaffian))
    lee = form_str(cert.lee)
    report.add("lee", lee, [f"lee form: {lee}"])
    exactness = lcs.exactness_via_lee(alg, cert)
    if exactness.exact:
        prim = form_str(exactness.certificate.primitive)
        lines = ["class: exact", f"primitive: {prim}"]
        report.add("class", {"exact": True, "primitive": prim}, lines)
    else:
        coords = [scalar_str(c) for c in exactness.certificate.coords]
        basis = [form_str(f) for f in exactness.certificate.harmonic.basis]
        lines = [
            "class: not exact",
            "class coords: " + " ".join(coords),
            "harmonic basis: " + "; ".join(basis),
        ]
        value = {"exact": False, "coords": coords, "harmonic_basis": basis}
        report.add("class", value, lines)
    automorphisms = []
    lines = [f"automorphism algebra dimension: {exactness.automorphisms.dimension}"]
    for (field, mu), value in zip(exactness.automorphisms.pairs, exactness.lee_values):
        coeffs = [scalar_str(c) for c in field.coeffs]
        mu, value = scalar_str(mu), scalar_str(value)
        lines.append(f"automorphism: X = ({', '.join(coeffs)}); mu = {mu}; l = {value}")
        automorphisms.append({"field": coeffs, "mu": mu, "l": value})
    report.add("automorphisms", automorphisms, lines)
    trivial = not any(exactness.lee_values)
    summary = "identically 0 on automorphisms" if trivial else "nonzero value found"
    report.add("lee_homomorphism_trivial", trivial, [f"lee homomorphism: {summary}"])
    report.add("cross_check", "consistent", ["exactness cross-check: consistent"])
    report.emit(args.json)
    return 0


# ---------------------------------------------------------------------------
# moser
# ---------------------------------------------------------------------------


def cmd_moser(args) -> int:
    alg = parse_algebra_file(args.file)
    exprs = [part.strip() for part in args.family.split(";") if part.strip()]
    family = [parse_form_expr(e, alg.basis, alg.mode) for e in exprs]
    result = lcs.verify_moser_family(alg, family)
    report = _file_report("deformation family", alg, args.file)
    members, lines = [], [f"members: {len(family)}"]
    for i, member in enumerate(result.members):
        pf = scalar_str(member.pfaffian)
        prim = member.difference_primitive
        prim = "-" if prim is None else form_str(prim)
        lines.append(f"member {i}: pfaffian {pf}; difference primitive: {prim}")
        members.append({"pfaffian": pf, "difference_primitive": prim})
    report.add("members", members, lines)
    if result.lee is not None:
        lee = form_str(result.lee)
        report.add("lee", lee, [f"lee form (shared): {lee}"])
    if result.ok:
        report.add("verdict", "pass")
    else:
        failure = {"failed_index": result.failed_index, "reason": result.reason}
        line = "verdict: FAIL member {failed_index}: {reason}"
        report.add("verdict", failure, [line.format(**failure)])
    report.emit(args.json)
    return 0 if result.ok else 2


# ---------------------------------------------------------------------------
# preset
# ---------------------------------------------------------------------------


def _add_theorem1(report: _Report, results) -> None:
    families, lines = {}, []
    for result in results:
        f, checked = result.family, result.instances_checked
        pf, lee = scalar_str(result.pfaffian), form_str(result.lee)
        rep = form_str(result.representative)
        lines += [
            f"family {f} pfaffian: {pf}",
            f"family {f} lee form: {lee}",
            f"family {f} class: first-parameter multiple of [{rep}], "
            f"nonzero on {checked} sampled instances",
        ]
        families[f"family_{f}"] = {
            "pfaffian": pf,
            "lee": lee,
            "class_representative": rep,
            "instances_checked": checked,
        }
    report.add("theorem1", families, lines)


def cmd_acfm(args) -> int:
    wants_pfaffian = args.pfaffian_t or args.pfaffian_s
    if args.param_mode and args.theorem1:
        raise InputError("--theorem1 needs numeric parameters, not --param-mode")
    if args.param_mode and not wants_pfaffian:
        raise InputError("--param-mode supports only --pfaffian-t / --pfaffian-s")
    if args.param_mode and (args.n, args.k, args.lam) != (None, None, None):
        raise InputError("--param-mode takes no --n, --k or --lambda")
    if not args.param_mode:
        if args.n is None or args.k is None or args.lam is None:
            raise InputError("--n, --k and --lambda are required without --param-mode")
    report = _Report("preset algebra")
    if args.param_mode:
        params = None
        report.add("mode", "params n k lambda")
    else:
        params = presets.AcfmParams(args.n, args.k, args.lam)
        shown = {"n": args.n, "k": args.k, "lambda": args.lam}
        shown = {name: scalar_str(value) for name, value in shown.items()}
        text = " ".join(f"{name}={value}" for name, value in shown.items())
        report.add("params", shown, [f"params: {text}"])
    wanted = [f for f, flag in (("t", args.pfaffian_t), ("s", args.pfaffian_s)) if flag]
    # the rational preset serves theorem 1 and the structure report
    preset = presets.acfm(params) if args.theorem1 else None
    theorem1 = presets._theorem1(preset, params) if preset else ()
    if theorem1:
        # reuse the family Pfaffians that theorem 1 has computed
        pfaffians = {result.family: result.pfaffian for result in theorem1}
    else:
        pfaffians = presets.family_pfaffians(wanted, params) if wanted else {}
    for family in wanted:
        report.add(f"pfaffian_{family}", scalar_str(pfaffians[family]))
    if args.param_mode:
        report.emit(args.json)
        return 0
    structure, code = _structure_report(preset or presets.acfm(params), "(preset)")
    report.add("structure", structure.payload(), structure.lines()[1:])
    if theorem1:
        _add_theorem1(report, theorem1)
    report.emit(args.json)
    return code


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _rational(text: str) -> Fraction:
    try:
        return parse_scalar(text, ScalarMode.rational())
    except InputError as exc:
        raise argparse.ArgumentTypeError(f"{type(exc).__name__}: {exc}") from None


# built once per process: parse_args keeps no state between calls
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lcscalc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="structure checks for an algebra file")
    p_check.add_argument("file")
    p_check.set_defaults(func=cmd_check)

    p_coh = sub.add_parser("cohomology", help="twisted cohomology report")
    p_coh.add_argument("file")
    p_coh.add_argument("--omega", required=True, help="closed 1-form expression")
    p_coh.set_defaults(func=cmd_cohomology)

    p_lcs = sub.add_parser("lcs", help="certificate chain for a 2-form")
    p_lcs.add_argument("file")
    p_lcs.add_argument("--form", required=True, help="2-form expression")
    p_lcs.set_defaults(func=cmd_lcs)

    p_acfm = sub.add_parser("acfm", help="built-in preset family reports")
    p_acfm.add_argument("--n", type=_rational)
    p_acfm.add_argument("--k", type=_rational)
    p_acfm.add_argument("--lambda", dest="lam", type=_rational)
    p_acfm.add_argument("--param-mode", action="store_true")
    p_acfm.add_argument("--theorem1", action="store_true")
    p_acfm.add_argument("--pfaffian-t", action="store_true")
    p_acfm.add_argument("--pfaffian-s", action="store_true")
    p_acfm.set_defaults(func=cmd_acfm)

    p_moser = sub.add_parser("moser", help="verify a fixed-Lee deformation family")
    p_moser.add_argument("file")
    p_moser.add_argument(
        "--family", required=True, help="semicolon-separated 2-form expressions"
    )
    p_moser.set_defaults(func=cmd_moser)
    for command in sub.choices.values():
        command.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    try:
        code = _run(argv)
        # a report still in the buffer meets a closed reader here, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped early (`| head`): the rest goes to devnull, as in
        # the SIGPIPE note of Python's signal docs, so the exit flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:
        raise  # a closed stdout is not an input-file error
    except OSError as exc:
        print(f"lcscalc: error: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"lcscalc: input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MathError as exc:
        print(f"lcscalc: failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
