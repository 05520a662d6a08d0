"""Fuzz `cli.main` with random algebra files and argument lists.

Whatever the input, `main` must return 0, 1 or 2 without raising; exit 1
writes exactly one line to stderr and exit 0 writes nothing there.  Most
examples are well formed, so that reports run to the end; the rest mix in
duplicate, invalid, clashing and too many names, params and metric lines
of any length, bad coefficients and junk text.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from lcscalc.cli import main

GOOD_NAMES = ["a", "b", "c", "e1", "e2", "alpha", "beta", "gamma", "eta"]
PARAM_NAMES = ["k", "n", "lambda", "t"]
GOOD_COEFFS = ["", "1 ", "2 ", "1/2 ", "3*", "0 ", "(1/3) "]
PARAM_COEFFS = ["k ", "(1 + k) ", "k^2 ", "n/k "]  # declared or not
BAD_COEFFS = ["2/0 ", "٣ ", "2² ", "1.5 ", "x ", "k^1001 "]

# any text, and text from characters the tokenizer treats specially
junk = st.text(max_size=12) | st.text(alphabet="1²٣ a_é^(-)/*;#=", max_size=8)
bad_names = st.text(alphabet="ab1_-.é²", min_size=1, max_size=3)
clean = st.integers(0, 3).map(lambda i: i < 3)  # three in four are well formed


def _exactly(size, elements, unique=False):
    return st.lists(elements, min_size=size, max_size=size, unique=unique)


@st.composite
def form_exprs(draw, gens, params, degree):
    """A sum of `coefficient gen^gen...` terms of one degree, or else anything."""
    good = draw(clean)
    if not good and draw(st.booleans()):
        return draw(junk)
    declared = [c for p in params for c in (f"{p} ", f"(1 + {p}) ", f"2/{p} ")]
    coeffs = GOOD_COEFFS + declared + ([] if good else PARAM_COEFFS + BAD_COEFFS)
    sizes = st.just(degree) if good else st.integers(0, 3)
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        chain = draw(_exactly(draw(sizes), st.sampled_from(gens))) if gens else []
        coeff = draw(st.sampled_from(coeffs))
        terms.append(coeff + "^".join(chain) if chain else coeff.strip() or "1")
    signs = draw(st.lists(st.sampled_from([" + ", " - "]), min_size=len(terms)))
    return "".join(s + t for s, t in zip(signs, terms)).lstrip(" +")


@st.composite
def algebra_files(draw):
    """Text of an algebra file, its generator names and its parameters."""
    good = draw(clean)
    lines, params = [], []
    if draw(st.integers(0, 3)) == 3:
        pool = st.sampled_from(PARAM_NAMES)
        pool = pool if good else pool | bad_names
        params = draw(st.lists(pool, min_size=good, max_size=3, unique=good))
        lines.append("params " + " ".join(params))
    if good:
        # even sizes half the time, so that 2-forms can be nondegenerate
        sizes = st.sampled_from([2, 4]) if draw(st.booleans()) else st.integers(1, 5)
        gens = draw(_exactly(draw(sizes), st.sampled_from(GOOD_NAMES), unique=True))
    elif draw(st.booleans()):
        gens = [f"g{i}" for i in range(draw(st.integers(17, 20)))]
    else:
        pool = st.sampled_from(GOOD_NAMES + PARAM_NAMES) | bad_names
        gens = draw(st.lists(pool, max_size=5))
    if good or draw(st.booleans()):
        lines.append("generators " + " ".join(gens))
    if gens:
        for gen in draw(st.lists(st.sampled_from(gens), max_size=3, unique=good)):
            lines.append(f"d {gen} = {draw(form_exprs(gens, params, 2))}")
    if draw(st.booleans()):
        count = len(gens) if good else draw(st.integers(0, 6))
        entries = ["1", "4", "1/9", "(1/4)"] + ([] if good else ["-1", "0", "k", "x"])
        entries = draw(_exactly(count, st.sampled_from(entries)))
        lines.append("metric diag " + " ".join(entries))
    if not good and draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(junk))
    return "\n".join(lines) + "\n", gens, params


@st.composite
def acfm_argv(draw):
    good = draw(clean)
    values = {
        "--n": ["1", "2", "-1", "(2)^3"],
        "--k": ["1", "2", "-1", "1/2", "-3/2"],
        "--lambda": ["1", "3", "1/3", "-2"],
    }
    bad = ["0", "1/2", "3/0", "0.5", "1e3", "k", "7" * 5000, "1e1000000000"]
    argv = ["acfm"]
    for option, choices in values.items():
        if good or draw(st.integers(0, 5)):
            pool = st.sampled_from(choices if good else choices + bad)
            argv += [option, draw(pool if good else pool | junk)]
    flags = ["--param-mode", "--theorem1", "--pfaffian-t", "--pfaffian-s", "--json"]
    argv += draw(st.lists(st.sampled_from(flags), unique=True))
    return argv + ([] if good else draw(st.lists(junk, max_size=1)))


def _run(argv, text=None):
    with tempfile.TemporaryDirectory() as tmp:
        if text is not None:
            path = os.path.join(tmp, "fuzz.alg")
            with open(path, "wb") as fh:
                fh.write(text.encode("utf-8", "surrogatepass"))
            argv = [path if a == "FILE" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    if code == 1:
        assert err.count("\n") == 1 and err.endswith("\n"), err


@settings(max_examples=200)
@given(
    algebra_files(),
    st.sampled_from(["check", "cohomology", "lcs", "moser"]),
    st.data(),
)
def test_file_commands_end_in_a_report_or_one_line(spec, command, data):
    text, gens, params = spec
    argv = [command, "FILE"]
    if command != "check":
        option, size, degree = {
            "cohomology": ("--omega", 1, 1),
            "lcs": ("--form", 1, 2),
            "moser": ("--family", 3, 2),
        }[command]
        forms = form_exprs(gens, params, degree)
        exprs = data.draw(st.lists(forms, min_size=1, max_size=size))
        argv += [option, "; ".join(exprs)]
    if data.draw(st.booleans()):
        argv.append("--json")
    if not data.draw(clean):
        argv.insert(data.draw(st.integers(0, len(argv))), data.draw(junk))
    _run(argv, text)


@settings(max_examples=200)
@given(acfm_argv())
def test_acfm_ends_in_a_report_or_one_line(argv):
    _run(argv)
