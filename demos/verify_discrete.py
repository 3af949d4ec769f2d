"""Audit a finished run with the discrete variational verifier.

Records the full space-time trajectory of the verify_smooth scenario,
evaluates the discrete momentum and damage-evolution residuals at every
interior time level, reduces them onto a small sine basis through the
generalized (Rayleigh-dissipation) equations, and checks the two exact
identities the verifier is built on:

  1. nodal basis reduction reproduces the field residuals times the cell
     volume;
  2. first variation of the discrete action plus the damage-rate term
     equals the residual inner product for any admissible perturbation.

It then repeats the residuals and the nodal identity on a small 2D
periodic ring with the strain-damage coupling b switched on.

Usage: python demos/verify_discrete.py
"""

import os

import numpy as np

import failwave as fw

HERE = os.path.dirname(os.path.abspath(__file__))

# a 1 m x 0.5 m ring, two-way coupled (b != 0), with mode-2 sine data
# along x, which wraps smoothly
RING_2D = {
    "grid": {"nx": 16, "ny": 8, "dx": 0.0625, "dy": 0.0625},
    "material": {"rho0": 1.0, "c1": 1.0, "c2": 1.0, "b": 0.5, "lambda": 1.0,
                 "d1": 0.1, "d2": 0.05},
    "time": {"dt": 0.004, "t_end": 0.08},
    "ic": {"U": {"type": "sine", "amplitude": 0.01, "mode": 2},
           "gamma": {"type": "sine", "amplitude": 0.5, "mode": 2}},
    "bc": {side: {"type": "periodic"} for side in ("u_left", "u_right", "gamma")},
}


def nodal_gap(traj, res) -> float:
    """Largest gap between the nodal reduction's residual and the cell
    volume times the field residuals."""
    gen = fw.generalized_residual(fw.reduce_to_generalized(traj, fw.nodal_basis(traj.cfg.grid)))
    rows = len(gen.R)
    stacked = np.concatenate(
        [res.resid_U.reshape(rows, -1), res.resid_gamma.reshape(rows, -1)], axis=1
    )
    return float(np.max(np.abs(gen.R - traj.cfg.grid.cell_volume * stacked)))


def main() -> None:
    rng = np.random.default_rng(7)
    with open(os.path.join(HERE, "..", "scenarios", "verify_smooth.yaml")) as fh:
        cfg = fw.build_scenario(fh.read())

    traj = fw.record_trajectory(cfg)
    res = fw.lagrange_residual(traj)
    print(f"trajectory: {traj.nlev} time levels, {cfg.grid.nx} cells")
    print(f"peak momentum residual norm:  {np.max(res.norms_U):.3e} "
          "(leapfrog identity, machine zero)")
    print(f"peak damage residual norm:    {np.max(res.norms_gamma):.3e} "
          "(O(dt^2) central-difference mismatch)")

    # identity 1: nodal reduction == field residuals * cell volume
    print(f"nodal reduction vs field residuals: max abs gap {nodal_gap(traj, res):.3e}")

    nlev = traj.nlev
    # identity 2: action first variation == residual inner product
    dU = np.zeros((nlev, cfg.grid.nx))
    dG = np.zeros((nlev, cfg.grid.nx))
    dU[1:-1, 1:-1] = 1e-3 * rng.standard_normal((nlev - 2, cfg.grid.nx - 2))
    dG[1:-1, 1:-1] = 1e-3 * rng.standard_normal((nlev - 2, cfg.grid.nx - 2))
    delta_I, inner = fw.action_first_variation(traj, dU, dG)
    print(f"action variation (damage-rate term included): {delta_I: .6e}")
    print(f"residual inner product:                       {inner: .6e}")
    print(f"identity gap: {abs(delta_I - inner):.3e}")

    # modal reduction on a 6-mode sine basis: small dual-norm residuals
    sys_m = fw.reduce_to_generalized(traj, fw.sine_basis(cfg.grid, 3))
    gm = fw.generalized_residual(sys_m)
    print(f"6-mode sine-basis dual residual norm, peak: {np.max(gm.norms):.3e}")

    ring = fw.record_trajectory(fw.build_scenario(RING_2D))
    ring_res = fw.lagrange_residual(ring)
    ny, nx = ring.cfg.grid.shape
    print(f"2D ring, {nx}x{ny} cells, b = 0.5 (first order in dt: the Lie split lags "
          "the damage the stress reads)")
    print(f"  peak momentum residual norm: {np.max(ring_res.norms_U):.3e}")
    print(f"  peak damage residual norm:   {np.max(ring_res.norms_gamma):.3e}")
    print(f"  nodal reduction vs field residuals: max abs gap {nodal_gap(ring, ring_res):.3e}")


if __name__ == "__main__":
    main()
