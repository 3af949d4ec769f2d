"""Sweep the damage viscosity lambda toward zero and watch dissipation
vanish linearly while the frozen-damage limit conserves energy.

For c2 = 0 and no source the damage rate is d1 * Laplacian(gamma),
independent of lambda, so the dissipated power integral scales exactly
linearly in lambda. At lambda = 0 (Clifton's model) the same velocity-Verlet
loop runs with the damage substep skipped: the damage field is frozen and
the elastic step conserves total energy to its O(dt^2) wobble.

Usage: python demos/conservative_limit.py [--lambdas 1e-2,1e-3,1e-4]
"""

import argparse
import os

import failwave as fw

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lambdas", default="1e-2,1e-3,1e-4,0",
                    help="comma-separated lambda values (Pa s); 0 runs the frozen limit")
    args = ap.parse_args()
    lambdas = [float(s) for s in args.lambdas.split(",") if s.strip()]

    with open(os.path.join(HERE, "..", "scenarios", "clifton_pulse.yaml")) as fh:
        cfg = fw.build_scenario(fh.read())

    frozen = lambdas.count(0.0)
    print(f"base scenario {cfg.name}: nx={cfg.grid.nx}, CFL="
          f"{fw.elastic_wave_speed(0.0, cfg.material) * cfg.dt / cfg.grid.dx:.2f}, "
          f"{len(lambdas) - frozen} coupled and {frozen} frozen runs")
    study = fw.clifton_limit_study(cfg, lambdas)

    print()
    print(f"{'lambda (Pa s)':>14s} {'dissipated (J)':>16s} {'energy drift':>14s} "
          f"{'front sharpness':>16s}")
    for row in study.rows:
        print(f"{row.lam:14.3e} {row.dissipated:16.8e} {row.energy_drift:14.3e} "
              f"{row.front_sharpness:16.4f}")
    print()
    print(f"log-log slope of dissipated vs lambda: {study.slope:.4f} (expect 1)")
    frozen = [r for r in study.rows if r.lam == 0.0]
    if frozen:
        print(f"lambda = 0 energy drift over the full run: {frozen[0].energy_drift:.3e} "
              "(conservative limit)")


if __name__ == "__main__":
    main()
