"""Smoke tests of the study scripts: each runs to exit 0 and prints a known line.

``pin_parent_records.py`` is left out because it writes ``tests/data/``.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script, line", [
    ("sign_table_scan.py", "  (1,3)   -1        -1           (1, -1, -1, 1)     (1, 1, -1, -1)"),
    ("emergence_table.py", "{0}              1   -1        -1  (+,-,-,-) (+1,-1)          Lorentz class"),
    ("fd_step_scan.py", "   1.0e-03      6.281e-09      6.667e-07      0.000e+00"),
])
def test_study_script_runs(script, line):
    src = os.path.join(ROOT, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()
