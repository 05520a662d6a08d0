"""lcscalc runs on the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
before = set(sys.modules)
import lcscalc.cli
print(" ".join(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_cli_loads_only_lcscalc_and_the_standard_library():
    # sympy and other installed packages may serve the tests, never the program
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    loaded = run.stdout.split()
    assert "lcscalc" in loaded
    assert [m for m in loaded if m != "lcscalc" and m not in sys.stdlib_module_names] == []
