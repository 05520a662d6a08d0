"""Command-line interface with deterministic, exact text/JSON reports.

Exit codes: 0 success, 1 input error (syntax, undeclared names, bad
parameters), 2 mathematical failure (structure data with d*d != 0,
non-closed twist, degenerate form, broken hypothesis).  Reports go to
stdout, diagnostics to stderr; output is byte-stable for a fixed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import cohomology, lcs, presets
from .cecomplex import Algebra, is_unimodular, jacobi_check
from .errors import Degenerate, InputError, MathError
from .exterior import Form, form_str
from .scalar import ScalarMode, scalar_str
from .specfile import algebra_to_text, parse_algebra_file, parse_form_expr


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _field_str(coeffs) -> str:
    return "(" + ", ".join(scalar_str(c) for c in coeffs) + ")"


def _echo_lines(alg: Algebra, source: str) -> list[str]:
    lines = [f"input: {source}"]
    mode = "params " + " ".join(alg.mode.symbols) if alg.mode.is_param else "rational"
    lines.append(f"mode: {mode}")
    for line in algebra_to_text(alg).strip().splitlines():
        lines.append(f"  {line}")
    return lines


def _emit(args, lines: list[str], payload: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _structure_report(alg: Algebra, source: str):
    lines = ["report: structure check"]
    lines += _echo_lines(alg, source)
    payload: dict = {"report": "structure-check", "input": source}
    d2 = alg.check_d2()
    if d2.ok:
        lines.append("d2: pass")
        payload["d2"] = "pass"
    else:
        lines.append(
            f"d2: FAIL generator {d2.generator}; residual: {form_str(d2.residual)}"
        )
        payload["d2"] = {
            "generator": d2.generator,
            "residual": form_str(d2.residual),
        }
        payload["jacobi"] = "skipped"
        return lines, payload, 2
    jac = jacobi_check(alg.brackets())
    if jac.ok:
        lines.append("jacobi: pass")
        payload["jacobi"] = "pass"
    else:
        i, j, k = jac.triple
        names = alg.basis.names
        lines.append(
            f"jacobi: FAIL triple ({names[i]}, {names[j]}, {names[k]}); "
            f"residual: {_field_str(jac.residual.coeffs)}"
        )
        payload["jacobi"] = {
            "triple": [names[i], names[j], names[k]],
            "residual": [scalar_str(c) for c in jac.residual.coeffs],
        }
        return lines, payload, 2
    uni = is_unimodular(alg)
    lines.append(f"unimodular: {'true' if uni else 'false'}")
    payload["unimodular"] = uni
    return lines, payload, 0


def cmd_check(args) -> int:
    alg = parse_algebra_file(args.file)
    lines, payload, code = _structure_report(alg, args.file)
    _emit(args, lines, payload)
    return code


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------


def cmd_cohomology(args) -> int:
    alg = parse_algebra_file(args.file)
    omega = parse_form_expr(args.omega, alg.basis, alg.mode)
    uni = is_unimodular(alg)
    lines = ["report: twisted cohomology (invariant-complex)"]
    lines += _echo_lines(alg, args.file)
    lines.append(f"omega: {form_str(omega)}")
    lines.append(f"unimodular: {'true' if uni else 'false'}")
    lines.append(
        "adjointness: applicable" if uni else "adjointness: not applicable"
    )
    payload = {
        "report": "twisted-cohomology",
        "complex": "invariant",
        "input": args.file,
        "omega": form_str(omega),
        "unimodular": uni,
    }
    cx = alg.twisted_complex(omega)
    if not uni:
        # kernel/image dimensions stay meaningful; the harmonic description
        # needs the adjointness identity and is reported as not applicable
        dims = [cx.betti(deg) for deg in range(alg.dim + 1)]
        lines.append("dims: " + " ".join(str(d) for d in dims))
        lines.append("harmonic bases: not applicable (non-unimodular)")
        payload["dims"] = dims
        payload["harmonic_bases"] = "not applicable"
        _emit(args, lines, payload)
        return 0
    report = cohomology.cohomology_report(alg, omega)
    lines.append("dims: " + " ".join(str(d) for d in report.dims))
    payload["dims"] = list(report.dims)
    payload["degrees"] = []
    for degree, space in enumerate(report.harmonic_bases):
        h, im_d, im_delta = cx.decomposition(degree)
        basis_strs = [form_str(f) for f in space.basis]
        shown = "; ".join(basis_strs) if basis_strs else "(none)"
        lines.append(
            f"degree {degree}: dim {report.dims[degree]}; harmonic: {shown}; "
            f"decomposition: harmonic={h} image_d={im_d} image_delta={im_delta}"
        )
        payload["degrees"].append(
            {
                "degree": degree,
                "dim": report.dims[degree],
                "harmonic_basis": basis_strs,
                "decomposition": {
                    "harmonic": h,
                    "image_d": im_d,
                    "image_delta": im_delta,
                },
            }
        )
    _emit(args, lines, payload)
    return 0


# ---------------------------------------------------------------------------
# lcs
# ---------------------------------------------------------------------------


def cmd_lcs(args) -> int:
    alg = parse_algebra_file(args.file)
    form = parse_form_expr(args.form, alg.basis, alg.mode)
    pf = lcs.top_power(alg, form)
    lines = ["report: lcs certificate (invariant-complex)"]
    lines += _echo_lines(alg, args.file)
    lines.append(f"form: {form_str(form)}")
    lines.append(f"pfaffian: {scalar_str(pf)}")
    payload = {
        "report": "lcs-certificate",
        "complex": "invariant",
        "input": args.file,
        "form": form_str(form),
        "pfaffian": scalar_str(pf),
    }
    if not pf:
        _emit(args, lines, payload)
        raise Degenerate("top wedge power vanishes")
    cert = lcs.is_lcs(alg, form)
    lines.append(f"lee form: {form_str(cert.lee)}")
    payload["lee"] = form_str(cert.lee)
    exactness = lcs.exactness_via_lee(alg, cert)
    if exactness.exact:
        lines.append("class: exact")
        lines.append(f"primitive: {form_str(exactness.certificate.primitive)}")
        payload["class"] = {
            "exact": True,
            "primitive": form_str(exactness.certificate.primitive),
        }
    else:
        coords = cohomology.class_coords(alg, cert.lee, form)
        space = alg.twisted_complex(cert.lee).harmonic(form.degree)
        lines.append("class: not exact")
        lines.append("class coords: " + " ".join(scalar_str(c) for c in coords))
        lines.append(
            "harmonic basis: " + "; ".join(form_str(f) for f in space.basis)
        )
        payload["class"] = {
            "exact": False,
            "coords": [scalar_str(c) for c in coords],
            "harmonic_basis": [form_str(f) for f in space.basis],
        }
    lines.append(f"automorphism algebra dimension: {exactness.automorphisms.dimension}")
    payload["automorphisms"] = []
    for (field, mu), value in zip(exactness.automorphisms.pairs, exactness.lee_values):
        lines.append(
            f"automorphism: X = {_field_str(field.coeffs)}; "
            f"mu = {scalar_str(mu)}; l = {scalar_str(value)}"
        )
        payload["automorphisms"].append(
            {
                "field": [scalar_str(c) for c in field.coeffs],
                "mu": scalar_str(mu),
                "l": scalar_str(value),
            }
        )
    nonzero = [v for v in exactness.lee_values if v]
    summary = (
        "lee homomorphism: nonzero value found"
        if nonzero
        else "lee homomorphism: identically 0 on automorphisms"
    )
    lines.append(summary)
    lines.append("exactness cross-check: consistent")
    payload["lee_homomorphism_trivial"] = not nonzero
    payload["cross_check"] = "consistent"
    _emit(args, lines, payload)
    return 0


# ---------------------------------------------------------------------------
# moser
# ---------------------------------------------------------------------------


def cmd_moser(args) -> int:
    alg = parse_algebra_file(args.file)
    exprs = [part.strip() for part in args.family.split(";") if part.strip()]
    family = [parse_form_expr(e, alg.basis, alg.mode) for e in exprs]
    report = lcs.verify_moser_family(alg, family)
    lines = ["report: deformation family (invariant-complex)"]
    lines += _echo_lines(alg, args.file)
    lines.append(f"members: {len(family)}")
    payload = {
        "report": "deformation-family",
        "complex": "invariant",
        "input": args.file,
        "members": [],
    }
    for i, member in enumerate(report.members):
        prim = (
            form_str(member.difference_primitive)
            if member.difference_primitive is not None
            else "-"
        )
        lines.append(
            f"member {i}: pfaffian {scalar_str(member.pfaffian)}; "
            f"difference primitive: {prim}"
        )
        payload["members"].append(
            {
                "pfaffian": scalar_str(member.pfaffian),
                "difference_primitive": prim,
            }
        )
    if report.lee is not None:
        lines.append(f"lee form (shared): {form_str(report.lee)}")
        payload["lee"] = form_str(report.lee)
    if report.ok:
        lines.append("verdict: pass")
        payload["verdict"] = "pass"
        _emit(args, lines, payload)
        return 0
    lines.append(f"verdict: FAIL member {report.failed_index}: {report.reason}")
    payload["verdict"] = {"failed_index": report.failed_index, "reason": report.reason}
    _emit(args, lines, payload)
    return 2


# ---------------------------------------------------------------------------
# preset
# ---------------------------------------------------------------------------

_T_GRID = [
    (Fraction(1), Fraction(1), Fraction(0)),
    (Fraction(2), Fraction(1), Fraction(0)),
    (Fraction(1), Fraction(2), Fraction(0)),
    (Fraction(3), Fraction(1), Fraction(0)),
    (Fraction(1), Fraction(3), Fraction(0)),
    (Fraction(2), Fraction(3), Fraction(0)),
    (Fraction(1, 2), Fraction(3), Fraction(0)),
    (Fraction(2), Fraction(1), Fraction(1)),
    (Fraction(5), Fraction(2), Fraction(1)),
    (Fraction(7), Fraction(1), Fraction(2)),
    (Fraction(2), Fraction(5), Fraction(3)),
    (Fraction(-2), Fraction(-1), Fraction(0)),
]


def _pfaffian_poly(args, family: str) -> str:
    if args.param_mode:
        mode = ScalarMode.params("n", "k", "lambda", "t1", "t2", "t3", "s1", "s2", "s3")
        params = presets.AcfmParams(
            mode.symbol("n"), mode.symbol("k"), mode.symbol("lambda")
        )
    else:
        mode = ScalarMode.params("t1", "t2", "t3", "s1", "s2", "s3")
        params = presets.AcfmParams(
            mode.from_fraction(args.n),
            mode.from_fraction(args.k),
            mode.from_fraction(args.lam),
        )
    alg = presets.acfm(params, mode)
    if family == "t":
        form = presets.omega_t(
            alg, mode.symbol("t1"), mode.symbol("t2"), mode.symbol("t3")
        )
    else:
        form = presets.omega_s(
            alg, mode.symbol("s1"), mode.symbol("s2"), mode.symbol("s3")
        )
    return scalar_str(lcs.top_power(alg, form))


def _theorem1_lines(args) -> tuple[list[str], dict]:
    alg = presets.acfm_rational(args.n, args.k, args.lam)
    lines = []
    payload: dict = {}
    for family, maker, twist_sign, harmonic_rep in (
        ("t", presets.omega_t, -1, (0, 3)),
        ("s", presets.omega_s, 1, (1, 3)),
    ):
        pf_poly = _pfaffian_poly(args, family)
        twist = presets.twist_form(alg, twist_sign)
        rep = alg.basis.monomial_form(harmonic_rep)
        rep_coords = cohomology.class_coords(alg, twist, rep)
        checked = 0
        for c1, c2, c3 in _T_GRID:
            form = maker(alg, c1, c2, c3)
            if not lcs.top_power(alg, form):
                continue
            cert = lcs.is_lcs(alg, form)
            if cert.lee != twist:
                raise MathError(f"family {family}: unexpected Lee form {cert.lee}")
            coords = cohomology.class_coords(alg, twist, form)
            if coords != tuple(c1 * c for c in rep_coords) or not any(coords):
                raise MathError(f"family {family}: unexpected class coordinates")
            checked += 1
        lines.append(f"family {family} pfaffian: {pf_poly}")
        lines.append(f"family {family} lee form: {form_str(twist)}")
        lines.append(
            f"family {family} class: first-parameter multiple of "
            f"[{form_str(rep)}], nonzero on {checked} sampled instances"
        )
        payload[f"family_{family}"] = {
            "pfaffian": pf_poly,
            "lee": form_str(twist),
            "class_representative": form_str(rep),
            "instances_checked": checked,
        }
    return lines, payload


def cmd_acfm(args) -> int:
    wants_pfaffian = args.pfaffian_t or args.pfaffian_s
    if args.param_mode and args.theorem1:
        raise InputError("--theorem1 needs numeric parameters, not --param-mode")
    if args.param_mode and not wants_pfaffian:
        raise InputError("--param-mode supports only --pfaffian-t / --pfaffian-s")
    if not args.param_mode:
        if args.n is None or args.k is None or args.lam is None:
            raise InputError("--n, --k and --lambda are required without --param-mode")
    lines = ["report: preset algebra"]
    payload: dict = {"report": "preset-algebra"}
    if args.param_mode:
        lines.append("mode: params n k lambda")
        payload["mode"] = "params n k lambda"
    else:
        lines.append(
            f"params: n={scalar_str(args.n)} k={scalar_str(args.k)} "
            f"lambda={scalar_str(args.lam)}"
        )
        payload["params"] = {
            "n": scalar_str(args.n),
            "k": scalar_str(args.k),
            "lambda": scalar_str(args.lam),
        }
    code = 0
    if args.pfaffian_t:
        value = _pfaffian_poly(args, "t")
        lines.append(f"pfaffian t: {value}")
        payload["pfaffian_t"] = value
    if args.pfaffian_s:
        value = _pfaffian_poly(args, "s")
        lines.append(f"pfaffian s: {value}")
        payload["pfaffian_s"] = value
    if not args.param_mode:
        alg = presets.acfm_rational(args.n, args.k, args.lam)
        check_lines, check_payload, code = _structure_report(alg, "(preset)")
        lines += check_lines[1:]
        payload["structure"] = check_payload
        if args.theorem1:
            t_lines, t_payload = _theorem1_lines(args)
            lines += t_lines
            payload["theorem1"] = t_payload
    _emit(args, lines, payload)
    return code


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lcscalc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="structure checks for an algebra file")
    p_check.add_argument("file")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_coh = sub.add_parser("cohomology", help="twisted cohomology report")
    p_coh.add_argument("file")
    p_coh.add_argument("--omega", required=True, help="closed 1-form expression")
    p_coh.add_argument("--json", action="store_true")
    p_coh.set_defaults(func=cmd_cohomology)

    p_lcs = sub.add_parser("lcs", help="certificate chain for a 2-form")
    p_lcs.add_argument("file")
    p_lcs.add_argument("--form", required=True, help="2-form expression")
    p_lcs.add_argument("--json", action="store_true")
    p_lcs.set_defaults(func=cmd_lcs)

    p_acfm = sub.add_parser("acfm", help="built-in preset family reports")
    p_acfm.add_argument("--n", type=_fraction)
    p_acfm.add_argument("--k", type=_fraction)
    p_acfm.add_argument("--lambda", dest="lam", type=_fraction)
    p_acfm.add_argument("--param-mode", action="store_true")
    p_acfm.add_argument("--theorem1", action="store_true")
    p_acfm.add_argument("--pfaffian-t", action="store_true")
    p_acfm.add_argument("--pfaffian-s", action="store_true")
    p_acfm.add_argument("--json", action="store_true")
    p_acfm.set_defaults(func=cmd_acfm)

    p_moser = sub.add_parser("moser", help="verify a fixed-Lee deformation family")
    p_moser.add_argument("file")
    p_moser.add_argument(
        "--family", required=True, help="semicolon-separated 2-form expressions"
    )
    p_moser.add_argument("--json", action="store_true")
    p_moser.set_defaults(func=cmd_moser)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
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
