"""Documents and exact solutions that more than one test module runs."""

import os

import numpy as np
import pytest

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


@pytest.fixture
def standing_wave_225():
    """Amplitude-1 standing wave sin(pi X) on [0, 1] between fixed ends, unit
    wave speed, nx = 64 at CFL 0.5, run to t = 2.25: off the period, so the
    phase error enters the comparison linearly. The document and its exact
    final U, cos(pi t) sin(pi X)."""
    doc = {
        "name": "standing-2.25",
        "grid": {"nx": 64, "dx": 1.0 / 64},
        "material": {"rho0": 1.0, "c1": 1.0, "lambda": 1.0, "d1": 0.0},
        "time": {"dt": 0.5 / 64, "t_end": 2.25},
        "ic": {"U": {"type": "sine", "amplitude": 1.0, "mode": 1}},
        "bc": {"u_left": {"type": "fixed"}, "u_right": {"type": "fixed"}},
        "output": {"snapshots": 2},
    }

    def exact(cfg):
        x = cfg.grid.axes[0].centers()
        return {"U": np.cos(np.pi * cfg.t_end) * np.sin(np.pi * x)}

    return doc, exact


@pytest.fixture
def heat_kernel():
    """scenarios/heat_kernel.yaml and its exact final gamma: the Gaussian of
    width sig0 spread by diffusivity d1, variance sig0^2 + 2 d1 t. The domain
    is wide enough that wall effects sit below 1e-9."""
    with open(os.path.join(SCENARIO_DIR, "heat_kernel.yaml")) as fh:
        text = fh.read()

    def exact(cfg):
        sig0 = cfg.ic["gamma"]["width"]
        var = sig0**2 + 2.0 * cfg.material.d1 * cfg.t_end
        x = cfg.grid.axes[0].centers()
        return {"gamma": sig0 / np.sqrt(var) * np.exp(-0.5 * x**2 / var)}

    return text, exact


@pytest.fixture
def ring_2d():
    """A 16x8 periodic ring, b = 0, with a mode-2 sine in U and gamma: the
    ring of CI's 2D smoke steps."""
    return """\
name: ring2d
grid: {nx: 16, ny: 8, dx: 0.0625, dy: 0.0625}
material: {rho0: 1.0, c1: 1.0, c2: 1.0, lambda: 1.0, d1: 0.1, d2: 0.05}
time: {dt: 0.004, t_end: 0.08}
ic:
  U: {type: sine, amplitude: 0.01, mode: 2}
  gamma: {type: sine, amplitude: 0.5, mode: 2}
bc:
  u_left: {type: periodic}
  u_right: {type: periodic}
  gamma: {type: periodic}
output: {snapshots: 2}
"""
