"""Smoke test: every demo runs to completion as a script."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DEMOS = {
    "conservative_limit.py": ["--lambdas", "0"],  # the default sweep repeats acceptance 06
    "front_speed.py": [],
    "impact_plate.py": [],
    "lateral_spread_2d.py": [],
    "verify_discrete.py": [],
}


def test_every_demo_is_covered():
    assert sorted(DEMOS) == sorted(f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py"))


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo), *DEMOS[demo]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
