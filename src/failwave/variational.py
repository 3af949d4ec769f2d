"""Discrete variational verifier.

Treats a recorded trajectory as a candidate stationary point of the discrete
action (free energy minus kinetic energy and applied work, plus the
rate-potential term for the damage field) and measures how far it is from
satisfying the centered Euler-Lagrange equations. The scheme's forces are
the gradient of the discrete free energy Psi_h (cst.total_free_energy), so
free_energy_gradient is the one place the verifier reads them, in 1D and 2D
and for any b. Three views of the same residual read it:

  * field form: pointwise residuals of the displacement and damage equations,
  * generalized form: weighted residuals against a reduced basis,
  * action form: the exact first variation against a chosen perturbation.

Fields are stored per level with the grid's shape, (nlev, *grid.shape); a
basis works on fields flattened to one axis.

The displacement residual of the shipped velocity-Verlet integrator vanishes
to roundoff; the damage residual is second order in dt at b = 0, so refining
dt by 2x shrinks it by 4x. That contrast is the verifier's calibration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import constitutive as cst
from . import ops
from .errors import InvalidValue, ShapeMismatch, SingularBasis, TooFewLevels
from .model import ScenarioConfig, initialize_state
from .solver import ElasticPlan, _coupled_steps, _step_count


@dataclass
class DiscreteTrajectory:
    """Uniformly spaced time levels of a run: fields plus activation masks.

    times has shape (nlev,); U, v, gamma are (nlev, *grid.shape) and active
    is the matching bool array. dt_level is the level spacing (stride *
    cfg.dt).
    """

    cfg: ScenarioConfig
    times: np.ndarray
    U: np.ndarray
    v: np.ndarray
    gamma: np.ndarray
    active: np.ndarray
    dt_level: float

    @property
    def nlev(self) -> int:
        return int(self.times.size)


def record_trajectory(cfg: ScenarioConfig, stride: int = 1) -> DiscreteTrajectory:
    """Integrate a scenario and keep every stride-th time level.

    Drives the solver's own step sequence, so the recorded states are those
    of a solver run by construction, and the run is audited the same way (an
    AdmissibilityViolation is raised where run raises it).
    """
    if stride < 1:
        raise InvalidValue("stride", "must be >= 1")
    nsteps = _step_count(cfg)
    if nsteps // stride + 1 < 3:
        raise TooFewLevels(nsteps // stride + 1)
    state = initialize_state(cfg)
    levels = []
    for k, _ in enumerate(_coupled_steps(state, cfg, ElasticPlan(cfg))):
        if k % stride == 0:
            levels.append(
                (state.time, state.U.copy(), state.v.copy(), state.gamma.copy(), state.active.copy())
            )
    times, U, v, gamma, active = (np.asarray(field) for field in zip(*levels))
    return DiscreteTrajectory(
        cfg=cfg, times=times, U=U, v=v, gamma=gamma, active=active, dt_level=stride * cfg.dt
    )


# -- the discrete free energy's gradient ----------------------------------------


def free_energy_gradient(
    cfg: ScenarioConfig, U, gamma, t: float, active, plan: Optional[ElasticPlan] = None
) -> tuple:
    """(grad_U Psi_h, grad_Gamma Psi_h) at the level (U, gamma, t) under the
    active set, each shaped like the grid (J/m per unit cross-section).

    The displacement part is -dS*across, the difference of ElasticPlan's
    face stresses with the prescribed (traction and free) faces zeroed: a
    prescribed stress is an applied force (_applied_forces), not a
    derivative of Psi_h. The damage part is -Z*cell_volume with Z =
    cst.internal_forces. Both are the scheme's own forces and the exact
    gradient at every wall type, except that with b != 0 a traction wall's
    placeholder strain enters the cell cross term, so the displacement part
    misses the gradient in the two cells beside that wall. plan, an
    ElasticPlan of cfg, is reused when given.
    """
    plan = ElasticPlan(cfg) if plan is None else plan
    plan.level(U, gamma, t)
    S = plan.S.copy()
    for wall in plan.prescribed:
        S[..., wall.face] = 0.0
    grad_U = (S[..., :-1] - S[..., 1:]) * plan.across
    Z = cst.internal_forces(
        gamma, cfg.material, cfg.grid, uX=ops.face_mean(plan.eps), bc_gamma=cfg.bc["gamma"],
        active=active,
    )
    return grad_U, -Z * cfg.grid.cell_volume


def _applied_forces(cfg: ScenarioConfig, plan: ElasticPlan, t: float) -> np.ndarray:
    """The displacement forces at time t that Psi_h does not give, per cell
    and unit cross-section: the body force, and the prescribed stress of
    each traction face on its wall cell (0 at free faces)."""
    f = np.full(cfg.grid.shape, cfg.material.rho0 * cfg.body_force * cfg.grid.cell_volume)
    for wall in plan.prescribed:
        f[..., wall.face] += wall.normal * wall.stress(t) * plan.across
    return f


# -- field-form residuals ------------------------------------------------------


def _require_levels(traj: DiscreteTrajectory, n: int = 3) -> None:
    if traj.nlev < n:
        raise TooFewLevels(traj.nlev)


@dataclass
class LagrangeResidual:
    """Centered Euler-Lagrange residuals at the interior time levels.

    resid_U rows are rho0*U_tt - div(S) - rho0*r (N/m^3); resid_gamma rows
    are lam*dGamma/dt - Z (Pa), zero on inactive cells; both shaped
    (nlev - 2, *grid.shape). norms_* are the discrete L2 norms per level.
    """

    times: np.ndarray
    resid_U: np.ndarray
    resid_gamma: np.ndarray
    norms_U: np.ndarray
    norms_gamma: np.ndarray

    @property
    def norms_combined(self) -> np.ndarray:
        return np.sqrt(self.norms_U**2 + self.norms_gamma**2)


def _interior_terms(traj: DiscreteTrajectory) -> tuple:
    """At the interior levels, stacked: the displacement force grad_U Psi_h
    - f (f the applied forces) and the damage force grad_Gamma Psi_h on the
    active cells, from one free_energy_gradient per level, the centered
    damage rate, and the two residuals lagrange_residual reports."""
    cfg = traj.cfg
    p = cfg.material
    vol = cfg.grid.cell_volume
    dt = traj.dt_level
    plan = ElasticPlan(cfg)
    force_U, force_G = [], []
    for k in range(1, traj.nlev - 1):
        t, active = traj.times[k], traj.active[k]
        grad_U, grad_G = free_energy_gradient(cfg, traj.U[k], traj.gamma[k], t, active, plan)
        force_U.append(grad_U - _applied_forces(cfg, plan, t))
        force_G.append(np.where(active, grad_G, 0.0))
    force_U, force_G = np.asarray(force_U), np.asarray(force_G)
    Utt = (traj.U[2:] - 2.0 * traj.U[1:-1] + traj.U[:-2]) / dt**2
    gdot = (traj.gamma[2:] - traj.gamma[:-2]) / (2.0 * dt)
    return force_U, force_G, gdot, p.rho0 * Utt + force_U / vol, p.lam * gdot + force_G / vol


def lagrange_residual(traj: DiscreteTrajectory) -> LagrangeResidual:
    """Field-form verification of a recorded trajectory.

    The displacement residual reads the integrator's own face stresses
    (free_energy_gradient plus the applied forces), so at stride 1 the
    velocity-Verlet update telescopes to the centered three-level scheme
    and the residual is pure roundoff. The damage residual compares the
    centered rate against Z at the level itself; Crank-Nicolson leaves a
    (dt^2/4)*d2Z/dt2 remainder. With b != 0 the Lie split moves gamma
    between the elastic and damage halves, so the damage residual is first
    order in dt.
    """
    _require_levels(traj)
    vol = traj.cfg.grid.cell_volume
    *_, resid_U, resid_gamma = _interior_terms(traj)
    return LagrangeResidual(
        times=traj.times[1:-1],
        resid_U=resid_U,
        resid_gamma=resid_gamma,
        norms_U=np.array([float(np.sqrt(np.sum(r**2) * vol)) for r in resid_U]),
        norms_gamma=np.array([float(np.sqrt(np.sum(r**2) * vol)) for r in resid_gamma]),
    )


# -- generalized (reduced) form ------------------------------------------------


@dataclass
class Basis:
    """Reduction basis: mode i pairs a displacement shape phi_U[i] with a
    damage shape phi_G[i] (either may be zero), each a flattened field."""

    phi_U: np.ndarray  # (m, ncells)
    phi_G: np.ndarray  # (m, ncells)

    @property
    def nmodes(self) -> int:
        return int(self.phi_U.shape[0])


def nodal_basis(grid) -> Basis:
    """One mode per displacement cell plus one per damage cell; reduction
    with this basis reproduces the field residuals exactly (scaled by the
    cell volume)."""
    n = int(np.prod(grid.shape))
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return Basis(
        phi_U=np.vstack([eye, zero]),
        phi_G=np.vstack([zero, eye]),
    )


def sine_basis(grid, nmodes: int) -> Basis:
    """Smooth global reduction: sin(i pi x / L) shapes along x, constant
    across, one displacement and one damage mode per wavenumber (2*nmodes
    modes total)."""
    ax = grid.axes[0]
    x = ax.centers()
    L = ax.n * ax.h
    rows = [np.broadcast_to(np.sin(i * np.pi * (x - ax.origin) / L), grid.shape).ravel()
            for i in range(1, nmodes + 1)]
    zero = np.zeros_like(rows[0])
    phi_U = []
    phi_G = []
    for r in rows:
        phi_U.extend([r, zero])
        phi_G.extend([zero, r])
    return Basis(phi_U=np.asarray(phi_U), phi_G=np.asarray(phi_G))


@dataclass
class GeneralizedSystem:
    """Reduced trajectory q(t) with its mass/damping matrices, energy
    gradients, and generalized forces, ready for residual evaluation."""

    basis: Basis
    times: np.ndarray
    dt_level: float
    q: np.ndarray  # (nlev, m)
    M: np.ndarray  # (m, m) inertia
    C: np.ndarray  # (m, m) dissipation
    gram: np.ndarray  # (m, m) projection Gram matrix
    grad_psi: np.ndarray  # (nlev, m)
    Q: np.ndarray  # (nlev, m) traction-face + body generalized forces


def reduce_to_generalized(traj: DiscreteTrajectory, basis: Basis) -> GeneralizedSystem:
    """Galerkin reduction of a recorded trajectory onto a basis.

    grad_psi projects free_energy_gradient, its damage part on the active
    cells; the generalized force Q projects what Psi_h does not give, the
    prescribed traction faces and the body force, so dropping Q at a loaded
    wall breaks the balance visibly rather than silently.
    """
    _require_levels(traj)
    cfg = traj.cfg
    p = cfg.material
    vol = cfg.grid.cell_volume
    phi_U, phi_G = basis.phi_U, basis.phi_G
    gram = (phi_U @ phi_U.T + phi_G @ phi_G.T) * vol
    cond = float(np.linalg.cond(gram))
    if cond > 1e12:
        raise SingularBasis(cond)
    M = p.rho0 * (phi_U @ phi_U.T) * vol
    C = p.lam * (phi_G @ phi_G.T) * vol

    n = traj.nlev
    q, grad_psi, Q = (np.empty((n, basis.nmodes)) for _ in range(3))
    plan = ElasticPlan(cfg)
    for k in range(n):
        U, gamma, t, active = traj.U[k], traj.gamma[k], traj.times[k], traj.active[k]
        q[k] = np.linalg.solve(gram, (phi_U @ U.ravel() + phi_G @ gamma.ravel()) * vol)
        grad_U, grad_G = free_energy_gradient(cfg, U, gamma, t, active, plan)
        grad_psi[k] = phi_U @ grad_U.ravel() + phi_G @ np.where(active, grad_G, 0.0).ravel()
        Q[k] = phi_U @ _applied_forces(cfg, plan, t).ravel()
    return GeneralizedSystem(
        basis=basis,
        times=traj.times.copy(),
        dt_level=traj.dt_level,
        q=q,
        M=M,
        C=C,
        gram=gram,
        grad_psi=grad_psi,
        Q=Q,
    )


@dataclass
class GeneralizedResidual:
    times: np.ndarray
    R: np.ndarray  # (nlev-2, m) residual components
    norms: np.ndarray  # dual (Gram-weighted) norms per level


def generalized_residual(sys: GeneralizedSystem, Q: Optional[np.ndarray] = None) -> GeneralizedResidual:
    """R(k) = M q_tt + C q_t + grad_psi - Q at the interior levels, with the
    dual norm sqrt(R^T G^-1 R) so nodal reduction reports the field L2 norm.

    Pass Q to override the stored generalized forces (e.g. zeros, to measure
    how much the applied forces carry)."""
    if Q is None:
        Q = sys.Q
    dt = sys.dt_level
    n = sys.q.shape[0]
    if n < 3:
        raise TooFewLevels(n)
    rows = []
    norms = []
    for k in range(1, n - 1):
        qtt = (sys.q[k + 1] - 2.0 * sys.q[k] + sys.q[k - 1]) / dt**2
        qt = (sys.q[k + 1] - sys.q[k - 1]) / (2.0 * dt)
        R = sys.M @ qtt + sys.C @ qt + sys.grad_psi[k] - Q[k]
        rows.append(R)
        norms.append(float(np.sqrt(max(R @ np.linalg.solve(sys.gram, R), 0.0))))
    return GeneralizedResidual(
        times=sys.times[1:-1], R=np.asarray(rows), norms=np.asarray(norms)
    )


# -- action form ---------------------------------------------------------------


def discrete_action(traj: DiscreteTrajectory) -> float:
    """Action sum I = sum_k dt * [Psi_h(U_k, Gamma_k) - f_k.U_k - K_(k+1/2)]
    with f the applied forces (traction faces and body force) and the
    midpoint kinetic energy K_(k+1/2) built from forward differences. The
    damage rate term enters only through the variation."""
    cfg = traj.cfg
    p = cfg.material
    vol = cfg.grid.cell_volume
    dt = traj.dt_level
    plan = ElasticPlan(cfg)
    action = 0.0
    for k in range(traj.nlev):
        psi = cst.total_free_energy(
            traj.U[k], traj.gamma[k], p, cfg.grid, cfg.bc, traj.times[k], traj.active[k]
        )
        ext = float(np.sum(_applied_forces(cfg, plan, traj.times[k]) * traj.U[k]))
        action += dt * (psi - ext)
    for k in range(traj.nlev - 1):
        du = (traj.U[k + 1] - traj.U[k]) / dt
        action -= dt * float(0.5 * p.rho0 * np.sum(du**2) * vol)
    return action


def action_first_variation(
    traj: DiscreteTrajectory, delta_U: np.ndarray, delta_gamma: np.ndarray
):
    """Directional derivative of the discrete action along a space-time
    perturbation, from free_energy_gradient, plus the Biot rate term for the
    damage field. As in the field form, the damage gradient enters on the
    active cells only: the inactive ones are frozen.

    Returns (delta_I, inner) where inner = sum_k dt * sum (resid_U *
    delta_U + resid_gamma * delta_gamma) dV over the interior levels. For
    perturbations vanishing at the first and last level, summation by parts
    in time makes the two equal to roundoff; that identity is the
    verifier's self-test.
    """
    _require_levels(traj)
    cfg = traj.cfg
    p = cfg.material
    vol = cfg.grid.cell_volume
    dt = traj.dt_level
    n = traj.nlev
    delta_U = np.asarray(delta_U, dtype=float)
    delta_gamma = np.asarray(delta_gamma, dtype=float)
    if delta_U.shape != traj.U.shape:
        raise ShapeMismatch("delta_U", traj.U.shape, delta_U.shape)
    if delta_gamma.shape != traj.gamma.shape:
        raise ShapeMismatch("delta_gamma", traj.gamma.shape, delta_gamma.shape)

    force_U, force_G, gdot, resid_U, resid_gamma = _interior_terms(traj)
    force_G = force_G + p.lam * gdot * vol  # + Biot term
    delta_I = 0.0
    for k in range(1, n - 1):
        delta_I += dt * float(np.sum(force_U[k - 1] * delta_U[k] + force_G[k - 1] * delta_gamma[k]))
    for k in range(n - 1):
        du = (traj.U[k + 1] - traj.U[k]) / dt
        ddu = (delta_U[k + 1] - delta_U[k]) / dt
        delta_I -= dt * float(p.rho0 * np.sum(du * ddu) * vol)

    inner = dt * float(
        np.sum(resid_U * delta_U[1:-1] + resid_gamma * delta_gamma[1:-1]) * vol
    )
    return delta_I, inner
