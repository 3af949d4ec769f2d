"""Plate-impact failure wave in glass, with the two published data points.

First prints the diffusion-time table for the K8 and soda-lime data
(front speed and diffusivity in, tau = d1/v_f^2 and delta1 = d1/v_f out),
then runs the shipped impact_k8 scenario in SI units and reports the
measured front trajectory behind the elastic precursor.

Usage: python demos/impact_plate.py [--skip-run]
"""

import argparse
import os

import failwave as fw

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--skip-run", action="store_true",
                    help="only print the material table, skip the 3000-cell run")
    args = ap.parse_args()

    report = fw.table_report()
    print(report.to_text())
    print()

    if args.skip_run:
        return

    with open(os.path.join(HERE, "..", "scenarios", "impact_k8.yaml")) as fh:
        cfg = fw.build_scenario(fh.read())
    print(f"running {cfg.name}: {cfg.grid.nx} cells, dx={cfg.grid.dx*1e3:.3f} mm, "
          f"t_end={cfg.t_end*1e6:.0f} us ...")
    res = fw.run(cfg)

    track = fw.track_front(res.snapshots, cfg.grid, level=0.5,
                           gamma_max=cfg.material.saturation)
    print()
    print(f"measured failure-front speed: {track.v_f:.1f} m/s "
          f"(fit R^2 = {track.fit_r2:.6f})")
    print(f"elastic precursor speed:      {fw.elastic_wave_speed(0.0, cfg.material):.1f} m/s")
    print("the front lags the precursor: damage spreads diffusively behind the")
    print("stress wave that activates it, so v_f stays below the sound speed")
    for gauge, x in zip(res.gauges, cfg.gauges):
        peak = max(gauge.gamma)
        print(f"gauge at X={x*1e3:.0f} mm: peak damage {peak:.3f}")


if __name__ == "__main__":
    main()
