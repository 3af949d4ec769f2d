"""The four benchmark workloads: their inputs, drawn from a seed, and the
checks their outputs must pass.

Seed 0 runs the shipped inputs byte for byte. Any other seed moves where the
initial condition sits, inside a range where every check below still holds;
the grid, material, time step and run length never change, so the work per
run stays the same size.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict

import numpy as np
import yaml

import failwave as fw

# Mirrors SCENARIO in demos/lateral_spread_2d.py. It is copied, not imported,
# so that the workload stays fixed when the demo changes.
LATERAL_2D = {
    "name": "lateral_spread_2d",
    "grid": {"nx": 80, "ny": 80, "dx": 0.3, "dy": 0.3},
    "material": {
        "rho0": 1.0,
        "c1": 1.0,
        "lambda": 1.0,
        "d1": 1.0,
        "d2": 4.0,
        "source": {"law": "logistic", "rate": 1.0, "gamma_max": 1.0},
    },
    "time": {"dt": 0.05, "t_end": 6.0},
    "ic": {"gamma": {"type": "gaussian", "amplitude": 1.0, "center": [12.0, 12.0], "width": 0.8}},
    "bc": {"u_left": {"type": "fixed"}, "u_right": {"type": "fixed"}, "gamma": {"type": "zero_flux"}},
    "gauges": [[16.5, 12.0], [12.0, 16.5]],
    "numerics": {"tol_admissibility": 1.0e-4},
    "output": {"snapshots": 8},
}


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    shipped: str  # scenario file under scenarios/, or "" for LATERAL_2D
    verify: bool  # also run the discrete variational audit
    shift: Callable[[dict, random.Random], None]  # moves the initial condition
    check: Callable[[object, object], None]  # (cfg, RunResult) -> raises CheckFailed


def _shift_kpp(doc, rng):
    doc["ic"]["gamma"]["at"] = round(2.0 + rng.uniform(-0.5, 0.5), 6)


def _shift_impact(doc, rng):
    doc["ic"]["gamma"]["at"] = round(0.002 + rng.uniform(-0.0005, 0.0005), 9)


def _shift_lateral(doc, rng):
    doc["ic"]["gamma"]["center"] = [round(12.0 + rng.uniform(-0.75, 0.75), 6) for _ in range(2)]


def _shift_clifton(doc, rng):
    doc["ic"]["v"]["center"] = round(0.5 + rng.uniform(-0.1, 0.1), 6)


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _arrival(trace, thr=0.5):
    hits = np.nonzero(np.asarray(trace.gamma) >= thr)[0]
    return float(trace.t[hits[0]]) if hits.size else None


def _check_kpp(cfg, res):
    v_f = fw.track_front(res.snapshots, cfg.grid).v_f
    # acceptance 02a
    _require(abs(v_f - 2.0) / 2.0 <= 0.10, f"front speed {v_f:.4f} m/s not within 10% of 2 m/s")


def _check_impact(cfg, res):
    closure = fw.budget_imbalance(res.reports)
    _require(math.isfinite(closure), f"energy closure {closure} not finite")


def _check_lateral(cfg, res):
    # tests/test_solver.py::test_lateral_diffusivity_wins_in_2d
    t_long, t_lat = _arrival(res.gauges[0]), _arrival(res.gauges[1])
    _require(t_long is not None and t_lat is not None, "a gauge never saw the front")
    _require(t_lat < t_long, f"lateral arrival {t_lat} s not before longitudinal {t_long} s")
    closure = fw.budget_imbalance(res.reports)
    _require(closure < 1e-2, f"energy closure {closure:.3e} not below 1e-2")


def _check_clifton(cfg, res):
    drift = fw.budget_imbalance(res.reports)
    # acceptance 06, lam = 0 row
    _require(drift < 1e-6, f"energy drift {drift:.3e} not below 1e-6")


# Why each workload is in the benchmark: see perfbench/README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("kpp_front", "kpp_front.yaml", True, _shift_kpp, _check_kpp),
        Workload("impact_k8", "impact_k8.yaml", False, _shift_impact, _check_impact),
        Workload("lateral_2d", "", False, _shift_lateral, _check_lateral),
        Workload("clifton_pulse", "clifton_pulse.yaml", False, _shift_clifton, _check_clifton),
    )
}


def scenario_text(w: Workload, seed: int, root: Path) -> str:
    """The scenario YAML the program receives for this workload and seed."""
    if w.shipped:
        text = (root / "scenarios" / w.shipped).read_text()
        if seed == 0:
            return text
        doc = yaml.safe_load(text)
    else:
        doc = json.loads(json.dumps(LATERAL_2D))  # deep copy
        if seed == 0:
            return yaml.safe_dump(doc, sort_keys=False)
    w.shift(doc, random.Random(seed))
    return yaml.safe_dump(doc, sort_keys=False)


def check_state(res) -> None:
    """Every workload: the final fields are finite."""
    st = res.state
    for name in ("U", "v", "gamma"):
        _require(bool(np.all(np.isfinite(getattr(st, name)))), f"final {name} not finite")


def check_artifacts(out: Path, nreports: int) -> None:
    """The manifest lists files that exist, and reports.csv has one row per
    report."""
    manifest = out / "manifest.json"
    _require(manifest.is_file(), "manifest.json missing")
    files = json.loads(manifest.read_text())["files"]
    missing = [f for f in files if not (out / f).is_file()]
    _require(not missing, f"manifest lists missing files {missing[:3]}")
    with open(out / "reports.csv") as fh:
        rows = sum(1 for _ in fh) - 1
    _require(rows == nreports, f"reports.csv has {rows} rows, expected {nreports}")


def check_residual(resid) -> None:
    worst = float(np.max(resid.norms_combined))
    _require(math.isfinite(worst), f"Lagrange residual {worst} not finite")
