"""Per-layer spans for the traced benchmark run.

The tracer wraps named lcscalc functions from outside the program.  Each
wrapped function is replaced under every name that refers to it: in every
``lcscalc`` module namespace (``cohomology.rank`` and ``lcs.solve`` are the
``linalg`` functions) and in class dictionaries (``ParamScalar.__radd__``
is ``__add__``).  A span's self time is its duration minus the time of the
spans it encloses; spans are aggregated per name in memory.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, span name) -> attribute paths inside the module; a span name that
# groups several methods (the ParamScalar operators) reports them together.
SPANS = {
    ("linalg", "rank"): ["rank"],
    ("linalg", "nullspace"): ["nullspace"],
    ("linalg", "solve"): ["solve"],
    ("linalg", "operator_matrix"): ["operator_matrix"],
    ("hodge", "twisted_matrix"): ["twisted_matrix"],
    ("hodge", "cotwisted_matrix"): ["cotwisted_matrix"],
    ("hodge", "star"): ["star"],
    ("hodge", "harmonic_space"): ["harmonic_space"],
    ("cecomplex", "d"): ["d"],
    ("cecomplex", "Algebra.check_d2"): ["Algebra.check_d2"],
    ("cecomplex", "is_unimodular"): ["is_unimodular"],
    ("exterior", "Form.wedge"): ["Form.wedge"],
    ("exterior", "Form.__init__"): ["Form.__init__"],
    ("exterior", "interior"): ["interior"],
    ("scalar", "ParamScalar.arith"): [
        "ParamScalar.__add__",
        "ParamScalar.__sub__",
        "ParamScalar.__mul__",
        "ParamScalar.__truediv__",
        "ParamScalar.__pow__",
    ],
    ("scalar", "_pgcd"): ["_pgcd"],
    ("scalar", "parse_scalar"): ["parse_scalar"],
    ("cohomology", "cohomology_report"): ["cohomology_report"],
    ("cohomology", "betti"): ["betti"],
    ("cohomology", "primitive"): ["primitive"],
    ("cohomology", "class_coords"): ["class_coords"],
    ("lcs", "is_lcs"): ["is_lcs"],
    ("lcs", "lee_form"): ["lee_form"],
    ("lcs", "exactness_via_lee"): ["exactness_via_lee"],
    ("lcs", "automorphism_algebra"): ["automorphism_algebra"],
    ("lcs", "verify_moser_family"): ["verify_moser_family"],
    ("specfile", "parse_algebra_text"): ["parse_algebra_text"],
    ("specfile", "parse_form_expr"): ["parse_form_expr"],
    ("cli", "main"): ["main"],
}

# elimination entry points and the position of their column count
ELIMINATIONS = {"rank": 1, "nullspace": 1, "solve": 2}


def span_names() -> list[str]:
    return [f"{module}.{span}" for module, span in SPANS]


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0] for name in span_names()}
        self.eliminations = 0
        self.entries = 0
        self._stack: list[float] = []
        self._restore: list = []

    def reset(self):
        for s in self.stats.values():
            s[0], s[1] = 0, 0.0
        self.eliminations = self.entries = 0

    def counts(self, reports: int) -> dict:
        """Exact counts of one pass: these must repeat across passes."""
        out = {f"{name}.calls": s[0] for name, s in self.stats.items()}
        out["linalg.eliminations_per_report"] = self.eliminations / reports
        out["linalg.entries"] = self.entries
        out["exterior.form_new"] = self.stats["exterior.Form.__init__"][0]
        out["scalar.param_ops"] = self.stats["scalar.ParamScalar.arith"][0]
        return out

    def self_times(self) -> dict:
        return {f"{name}.self_s": s[1] for name, s in self.stats.items()}

    def _count_elimination(self, ncols_at: int, args, kwargs):
        rows = args[0] if args else kwargs["rows"]
        ncols = args[ncols_at] if len(args) > ncols_at else kwargs["ncols"]
        if rows:
            self.eliminations += 1
            # solve eliminates the augmented matrix
            self.entries += len(rows) * (ncols + (ncols_at == 2))

    def _wrap(self, name: str, fn, ncols_at):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if ncols_at is not None:
                self._count_elimination(ncols_at, args, kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt - child
                if stack:
                    stack[-1] += dt

        return wrapper

    def install(self):
        """Patch every lcscalc namespace; a missing name reports zero."""
        modules = [m for n, m in sys.modules.items() if n == "lcscalc" or n.startswith("lcscalc.")]
        for (module, span), paths in SPANS.items():
            home = sys.modules.get(f"lcscalc.{module}")
            for path in paths:
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                orig = owner.__dict__.get(attr) if owner is not None else None
                if orig is None:
                    continue
                wrapper = self._wrap(f"{module}.{span}", orig,
                                     ELIMINATIONS.get(attr) if module == "linalg" else None)
                targets = [owner] if owner_name else modules
                for target in targets:
                    for key, value in list(vars(target).items()):
                        if value is orig:
                            self._restore.append((target, key, orig))
                            setattr(target, key, wrapper)

    def uninstall(self):
        for target, key, orig in reversed(self._restore):
            setattr(target, key, orig)
        self._restore.clear()
