"""Anisotropic 2D damage spread: a lateral diffusivity larger than the
longitudinal one makes the front arrive earlier sideways.

Seeds a damage spot at the center of a square sheet with d2 = 4 d1 and a
logistic source, places one gauge at equal distance along each axis, and
reports the two arrival times. The lateral gauge must fire first.

Usage: python demos/lateral_spread_2d.py
"""

import numpy as np

import failwave as fw

SCENARIO = {
    "name": "lateral_spread_2d",
    "grid": {"nx": 80, "ny": 80, "dx": 0.3, "dy": 0.3},
    "material": {
        "rho0": 1.0,
        "c1": 1.0,
        "lambda": 1.0,
        "d1": 1.0,   # m^2/s longitudinal (x)
        "d2": 4.0,   # m^2/s lateral (y)
        "source": {"law": "logistic", "rate": 1.0, "gamma_max": 1.0},
    },
    "time": {"dt": 0.05, "t_end": 6.0},
    "ic": {"gamma": {"type": "gaussian", "amplitude": 1.0,
                     "center": [12.0, 12.0], "width": 0.8}},
    "bc": {"u_left": {"type": "fixed"}, "u_right": {"type": "fixed"},
           "gamma": {"type": "zero_flux"}},
    "gauges": [[16.5, 12.0], [12.0, 16.5]],  # equal 4.5 m offsets on each axis
    "output": {"snapshots": 8},
}


def first_crossing(trace, threshold: float = 0.5):
    """Time at which the gauge damage first reaches threshold, or None."""
    gamma = np.asarray(trace.gamma)
    hits = np.nonzero(gamma >= threshold)[0]
    return float(trace.t[hits[0]]) if hits.size else None


def main() -> None:
    cfg = fw.build_scenario(SCENARIO)
    print(f"running {cfg.name}: {cfg.grid.nx}x{cfg.grid.axes[1].n} cells, "
          f"d1={cfg.material.d1}, d2={cfg.material.d2} m^2/s")
    res = fw.run(cfg)

    t_long = first_crossing(res.gauges[0])
    t_lat = first_crossing(res.gauges[1])
    print()
    print(f"longitudinal gauge (x offset, d1={cfg.material.d1}): "
          f"arrival {t_long} s")
    print(f"lateral gauge      (y offset, d2={cfg.material.d2}): "
          f"arrival {t_lat} s")
    if t_lat is not None and t_long is not None:
        print(f"lateral leads by {t_long - t_lat:.2f} s "
              f"(speed ratio ~ sqrt(d2/d1) = {np.sqrt(cfg.material.d2/cfg.material.d1):.2f})")
    closure = fw.budget_imbalance(res.reports)
    print(f"energy budget closure: {closure:.2e} relative")


if __name__ == "__main__":
    main()
