"""Byte-for-byte comparison of CLI reports against a captured corpus.

Every case runs in text and in `--json` form from inside `tests/golden/`,
so the echoed input path is the bare file name.  `<case>.txt` and
`<case>.json` hold the expected stdout; the exit code is part of the case,
and so is stderr, which is empty unless `STDERR` names the one line expected.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from lcscalc.cli import main

GOLDEN = Path(__file__).parent / "golden"

# h5 x R in a frame with entries in -2..2, so the structure constants have
# denominators up to 315; both forms are d_w eta with the same Lee form
DENSE6_FORMS = (GOLDEN / "h5xr_dense.forms").read_text(encoding="utf-8").splitlines()

# h7 x R in a frame with entries in -2..2 (det 510): two d_w eta with the same
# Lee form and Pfaffians -8/85 and -128/85, every one of their 28 terms nonzero
DENSE8_FORMS = (GOLDEN / "h7xr_dense.forms").read_text(encoding="utf-8").splitlines()

# the preset x R^2 in a frame with entries in -2..2 (det 441): its twist -2 gamma
# has denominators up to 147 and the harmonic coefficients run to 17 digits
FRAME_TWIST = "-8/147 e1 - 4/147 e2 - 20/21 e3 + 22/147 e4 - 4/7 e5 + 164/147 e6"

# the preset (n, k, lambda) = (1, 2, 3) in a frame with entries in -2..2 (det 87):
# a class that is not exact, with a non-diagonal Gram matrix of its harmonic basis
DENSE4_FORM = (
    "13/87 alpha^gamma + 11/87 alpha^eta + 17/87 beta^gamma + 1/87 beta^eta + 8/87 gamma^eta"
)

# R acting on the Heisenberg algebra: a symplectic form whose class is not exact
NONUNIMODULAR4_FORM = "1 e1^e2 + 1 e3^e4 + 1 e2^e4"

# the shared Lee form of moser_dense6 and of lcs_dense8: twists of the nilpotent
# h5 x R and h7 x R, whose twisted complexes are acyclic in every degree
DENSE6_LEE = "-22/63 e1 + 152/315 e2 - 38/315 e3 + 302/315 e4 + 2/105 e5 - 62/315 e6"
DENSE8_LEE = "24/5 e1 - 218/15 e2 + 4/15 e3 + 2 e4 - 8 e5 + 106/15 e6 + 172/15 e7 + 4 e8"

# nondegenerate on the preset, with a unique solution w = 3 alpha + 1 gamma of
# d(Omega) = -w ^ Omega that is not closed
LEE_NOT_CLOSED_FORM = "1 alpha^eta + 1 gamma^eta + 1 beta^gamma"

CASES = {
    "cohomology_dense6": (["cohomology", "dense6.alg", "--omega", "0"], 0),
    "cohomology_dense6_twisted": (
        ["cohomology", "dense6.alg", "--omega", "1 e1 - 1 e6"],
        0,
    ),
    "cohomology_metric": (
        ["cohomology", "dense6_metric.alg", "--omega", "1 e1 - 1 e6"],
        0,
    ),
    "cohomology_metric_untwisted": (["cohomology", "dense6_metric.alg", "--omega", "0"], 0),
    "cohomology_frame_twist": (["cohomology", "frame_twist.alg", "--omega", FRAME_TWIST], 0),
    "cohomology_nonunimodular": (
        ["cohomology", "nonunimodular.alg", "--omega", "1 e3"],
        0,
    ),
    "cohomology_nonunimodular_metric": (
        ["cohomology", "rrr_metric.alg", "--omega", "-1 e4"],
        0,
    ),
    "cohomology_acyclic": (["cohomology", "h5xr_dense.alg", "--omega", DENSE6_LEE], 0),
    "cohomology_acyclic_metric": (
        ["cohomology", "h5xr_dense_metric.alg", "--omega", DENSE6_LEE],
        0,
    ),
    "cohomology_acyclic_dense8": (["cohomology", "h7xr_dense.alg", "--omega", DENSE8_LEE], 0),
    "lcs_exact": (
        ["lcs", "acfm.alg", "--form", "3 alpha^beta - 2 gamma^eta + 1 beta^gamma"],
        0,
    ),
    "lcs_not_exact": (["lcs", "acfm.alg", "--form", "2 alpha^eta + 1 beta^gamma"], 0),
    "lcs_nonunimodular": (["lcs", "nonunimodular4.alg", "--form", NONUNIMODULAR4_FORM], 0),
    "lcs_not_exact_dense4": (["lcs", "acfm_dense4.alg", "--form", DENSE4_FORM], 0),
    "lcs_dense6": (["lcs", "h5xr_dense.alg", "--form", DENSE6_FORMS[0]], 0),
    "moser_dense6": (["moser", "h5xr_dense.alg", "--family", "; ".join(DENSE6_FORMS)], 0),
    "lcs_dense8": (["lcs", "h7xr_dense.alg", "--form", DENSE8_FORMS[0]], 0),
    "moser_dense8": (["moser", "h7xr_dense.alg", "--family", "; ".join(DENSE8_FORMS)], 0),
    "moser_pass": (
        [
            "moser",
            "acfm.alg",
            "--family",
            "2 alpha^eta + 1 beta^gamma; 2 alpha^eta + 2 beta^gamma",
        ],
        0,
    ),
    "moser_fail": (
        [
            "moser",
            "acfm.alg",
            "--family",
            "2 alpha^eta + 1 beta^gamma; 3 alpha^eta + 1 beta^gamma",
        ],
        2,
    ),
    "acfm_theorem1": (["acfm", "--n", "1", "--k", "2", "--lambda", "3", "--theorem1"], 0),
    # n*k*lambda = 2 puts the grid point (2, 1, 1) on both Pfaffians' zero sets
    "acfm_theorem1_degenerate": (
        ["acfm", "--n", "1", "--k", "1", "--lambda", "2", "--theorem1"],
        0,
    ),
    "check_d2_failure": (["check", "broken.alg"], 2),
    "check_d2_failure_frac": (["check", "broken_frac.alg"], 2),
    "check_acfm": (["check", "acfm.alg"], 0),
    "check_params": (["check", "params.alg"], 0),
    "acfm_pfaffians_symbolic": (
        ["acfm", "--param-mode", "--pfaffian-t", "--pfaffian-s"],
        0,
    ),
    "acfm_pfaffians_numeric": (
        ["acfm", "--n", "1", "--k", "2", "--lambda", "3", "--pfaffian-t", "--pfaffian-s"],
        0,
    ),
    "moser_lee_differs": (
        [
            "moser",
            "acfm.alg",
            "--family",
            "2 alpha^eta + 1 beta^gamma; 2 beta^eta + 1 alpha^gamma",
        ],
        2,
    ),
    "moser_fail_first": (
        ["moser", "acfm.alg", "--family", "1 alpha^beta; 2 alpha^eta + 1 beta^gamma"],
        2,
    ),
    "lcs_degenerate": (["lcs", "acfm.alg", "--form", "1 alpha^beta"], 2),
    "lcs_lee_not_closed": (["lcs", "acfm.alg", "--form", LEE_NOT_CLOSED_FORM], 2),
    "lcs_no_lee": (["lcs", "nolee6.alg", "--form", "1 f1^f2 + 1 f3^f4 + 1 f5^f6"], 2),
    "moser_lee_not_closed": (
        ["moser", "acfm.alg", "--family", f"2 alpha^eta + 1 beta^gamma; {LEE_NOT_CLOSED_FORM}"],
        2,
    ),
}

STDERR = {
    "lcs_degenerate": "lcscalc: failure: Degenerate: top wedge power vanishes\n",
    "lcs_lee_not_closed": (
        "lcscalc: failure: LeeNotClosed: solution 3 alpha + 1 gamma is not closed:"
        " d = -6 alpha^gamma\n"
    ),
    "lcs_no_lee": "lcscalc: failure: NoSolution: no 1-form solves d(Omega) = -w ^ Omega\n",
}


@pytest.mark.parametrize("suffix", ["txt", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report(case, suffix, capsys, monkeypatch):
    argv, code = CASES[case]
    monkeypatch.chdir(GOLDEN)
    flags = ["--json"] if suffix == "json" else []
    assert main(argv + flags) == code
    out, err = capsys.readouterr()
    assert err == STDERR.get(case, "")
    assert out == (GOLDEN / f"{case}.{suffix}").read_text(encoding="utf-8")
