"""Smoke tests of scripts/ and of the README's quick start: each runs end to end and prints what it promises."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_python(*argv):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_script(name, *argv):
    return run_python(str(ROOT / "scripts" / name), *argv)


def test_demo_single_state_finds_the_closed_form_boundary():
    out = run_script("demo_single_state.py", "--grid", "256", "--paths", "2000")
    boundary = float(re.search(r"stop boundary at s = (\S+) \(closed form: 0.5\)", out).group(1))
    assert abs(boundary - 0.5) <= 1.0 / 256 + 1e-6
    assert "dp value: 0.500000" in out


def test_grid_convergence_halves_the_error_per_doubling():
    out = run_script("grid_convergence.py", "--min-steps", "32", "--doublings", "3")
    ratios = [float(r) for r in re.findall(r"-> +\d+: (\S+)$", out, re.MULTILINE)]
    assert len(ratios) == 2
    assert all(0.4 <= r <= 0.6 for r in ratios), ratios


def test_readme_quick_start_runs_as_written():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    # the closed form: value min(s, 0.5), stopping from s = 0.5 on, so every path stops at once
    out = run_python("-c", blocks[0])
    value, boundary, mean = re.fullmatch(r"(\S+) \((\S+),\) (\S+)\n", out).groups()
    assert float(value) == 0.5 and float(mean) == 0.5
    assert abs(float(boundary) - 0.5) <= 1.0 / 1024 + 1e-12
