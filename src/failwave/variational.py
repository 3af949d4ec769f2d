"""Discrete variational verifier.

Treats a recorded trajectory as a candidate stationary point of the discrete
action (free energy minus kinetic energy, plus the rate-potential term for
the damage field) and measures how far it is from satisfying the centered
Euler-Lagrange equations. Three views of the same residual:

  * field form: pointwise residuals of the displacement and damage equations,
  * generalized form: weighted residuals against a reduced basis,
  * action form: the exact first variation against a chosen perturbation.

The displacement residual of the shipped velocity-Verlet integrator vanishes
to roundoff; the damage residual is second order in dt, so refining dt by 2x
shrinks it by 4x. That contrast is the verifier's calibration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import constitutive as cst
from . import ops
from .errors import (
    ConfigConflict,
    InvalidValue,
    ShapeMismatch,
    SingularBasis,
    TooFewLevels,
)
from .model import ScenarioConfig, initialize_state
from .solver import ElasticPlan, _coupled_steps, _step_count


@dataclass
class DiscreteTrajectory:
    """Uniformly spaced time levels of a run: fields plus activation masks.

    times has shape (nlev,); U, v, gamma are (nlev, nx) and active is the
    matching bool array. dt_level is the level spacing (stride * cfg.dt).
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


# -- field-form residuals ------------------------------------------------------


def _require_levels(traj: DiscreteTrajectory, n: int = 3) -> None:
    if traj.nlev < n:
        raise TooFewLevels(traj.nlev)


@dataclass
class LagrangeResidual:
    """Centered Euler-Lagrange residuals at the interior time levels.

    resid_U rows are rho0*U_tt - dS/dX - rho0*r (N/m^3); resid_gamma rows are
    lam*dGamma/dt - Z (Pa). norms_* are the discrete L2 norms per level.
    """

    times: np.ndarray
    resid_U: np.ndarray
    resid_gamma: np.ndarray
    norms_U: np.ndarray
    norms_gamma: np.ndarray

    @property
    def norms_combined(self) -> np.ndarray:
        return np.sqrt(self.norms_U**2 + self.norms_gamma**2)


def lagrange_residual(traj: DiscreteTrajectory) -> LagrangeResidual:
    """Field-form verification of a recorded trajectory.

    The displacement residual uses the same face stresses (ghosts, traction
    overrides) as the integrator, so at stride 1 the velocity-Verlet update
    telescopes to the centered three-level scheme and the residual is pure
    roundoff. The damage residual compares the centered rate against Z at the
    level itself; Crank-Nicolson leaves a (dt^2/4)*d2Z/dt2 remainder. Models
    whose stress depends on damage (b != 0) see the operator-splitting lag in
    the displacement residual at first order in dt.
    """
    _require_levels(traj)
    cfg = traj.cfg
    p = cfg.material
    grid = cfg.grid
    if grid.ndim != 1:
        raise InvalidValue("grid", "the verifier handles 1D trajectories")
    dt = traj.dt_level
    dx = grid.dx
    n = traj.nlev
    plan = ElasticPlan(cfg)
    rU, rG, nU, nG = [], [], [], []
    for k in range(1, n - 1):
        Utt = (traj.U[k + 1] - 2.0 * traj.U[k] + traj.U[k - 1]) / dt**2
        plan.level(traj.U[k], traj.gamma[k], traj.times[k])
        resU = p.rho0 * Utt - ops.div_faces(plan.S, dx) - p.rho0 * cfg.body_force
        uXc = ops.face_mean(plan.eps)
        Z = cst.internal_forces(
            traj.gamma[k], p, grid, uX=uXc, bc_gamma=cfg.bc["gamma"], active=traj.active[k]
        )
        gdot = (traj.gamma[k + 1] - traj.gamma[k - 1]) / (2.0 * dt)
        resG = p.lam * gdot - np.where(traj.active[k], Z, 0.0)
        rU.append(resU)
        rG.append(resG)
        nU.append(float(np.sqrt(np.sum(resU**2) * dx)))
        nG.append(float(np.sqrt(np.sum(resG**2) * dx)))
    return LagrangeResidual(
        times=traj.times[1:-1],
        resid_U=np.asarray(rU),
        resid_gamma=np.asarray(rG),
        norms_U=np.asarray(nU),
        norms_gamma=np.asarray(nG),
    )


def dissipation_variation(traj: DiscreteTrajectory, delta_gamma: np.ndarray) -> np.ndarray:
    """First variation of the dissipation functional along delta_gamma at
    each interior level: integral lam * dGamma/dt * delta_gamma dV, with the
    centered rate (units W/m^2 per unit delta)."""
    _require_levels(traj)
    grid = traj.cfg.grid
    delta_gamma = np.asarray(delta_gamma, dtype=float)
    if delta_gamma.shape != grid.shape:
        raise ShapeMismatch("delta_gamma", grid.shape, delta_gamma.shape)
    p = traj.cfg.material
    dt = traj.dt_level
    out = []
    for k in range(1, traj.nlev - 1):
        gdot = (traj.gamma[k + 1] - traj.gamma[k - 1]) / (2.0 * dt)
        out.append(float(np.sum(p.lam * gdot * delta_gamma) * grid.cell_volume))
    return np.asarray(out)


# -- generalized (reduced) form ------------------------------------------------


@dataclass
class Basis:
    """Reduction basis: mode i pairs a displacement shape phi_U[i] with a
    damage shape phi_G[i] (either may be zero)."""

    phi_U: np.ndarray  # (m, nx)
    phi_G: np.ndarray  # (m, nx)

    @property
    def nmodes(self) -> int:
        return int(self.phi_U.shape[0])


def nodal_basis(grid) -> Basis:
    """One mode per displacement node plus one per damage node; reduction
    with this basis reproduces the field residuals exactly (scaled by dx)."""
    nx = grid.nx
    eye = np.eye(nx)
    zero = np.zeros((nx, nx))
    return Basis(
        phi_U=np.vstack([eye, zero]),
        phi_G=np.vstack([zero, eye]),
    )


def sine_basis(grid, nmodes: int) -> Basis:
    """Smooth global reduction: sin(i pi x / L) shapes, one displacement and
    one damage mode per wavenumber (2*nmodes modes total)."""
    x = grid.cell_centers()
    L = grid.length
    rows = [np.sin(i * np.pi * (x - grid.origin) / L) for i in range(1, nmodes + 1)]
    zero = np.zeros_like(x)
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
    Q: np.ndarray  # (nlev, m) boundary + body generalized forces


def reduce_to_generalized(traj: DiscreteTrajectory, basis: Basis) -> GeneralizedSystem:
    """Galerkin reduction of a recorded trajectory onto a basis.

    The free-energy gradient keeps interior faces only; everything the
    boundary contributes (scheme face stresses, damage boundary fluxes, body
    force) lands in the generalized force Q, so dropping Q breaks the budget
    visibly rather than silently.
    """
    _require_levels(traj)
    cfg = traj.cfg
    p = cfg.material
    grid = cfg.grid
    if grid.ndim != 1:
        raise InvalidValue("grid", "generalized reduction handles 1D trajectories")
    if p.b != 0.0:
        raise ConfigConflict(
            "generalized reduction needs b = 0; the strain-damage cross term "
            "has no interior/boundary split in this quadrature"
        )
    dx = grid.dx
    phi_U, phi_G = basis.phi_U, basis.phi_G
    gram = (phi_U @ phi_U.T + phi_G @ phi_G.T) * dx
    cond = float(np.linalg.cond(gram))
    if cond > 1e12:
        raise SingularBasis(cond)
    M = p.rho0 * (phi_U @ phi_U.T) * dx
    C = p.lam * (phi_G @ phi_G.T) * dx

    n = traj.nlev
    q = np.empty((n, basis.nmodes))
    grad_psi = np.empty((n, basis.nmodes))
    Q = np.empty((n, basis.nmodes))
    bc_g = cfg.bc["gamma"]
    plan = ElasticPlan(cfg)
    for k in range(n):
        U, gamma, t = traj.U[k], traj.gamma[k], traj.times[k]
        q[k] = np.linalg.solve(gram, (phi_U @ U + phi_G @ gamma) * dx)

        plan.level(U, gamma, t)
        S = plan.S
        S_int = S.copy()
        S_int[0] = 0.0
        S_int[-1] = 0.0
        div_int_S = ops.div_faces(S_int, dx)

        A = cst.damage_force(gamma, p, uX=ops.face_mean(plan.eps))
        K = ops.face_conductivity(traj.active[k], p.k1, bc_g)
        B = -K * ops.gamma_grad_faces(gamma, dx, bc_g)
        B_int = B.copy()
        B_int[0] = 0.0
        B_int[-1] = 0.0
        Z_int = np.where(traj.active[k], A, 0.0) - ops.div_faces(B_int, dx)

        grad_psi[k] = -dx * (phi_U @ div_int_S + phi_G @ Z_int)
        Q[k] = (
            S[-1] * phi_U[:, -1]
            - S[0] * phi_U[:, 0]
            - (B[-1] * phi_G[:, -1] + (-B[0]) * phi_G[:, 0])
            + p.rho0 * cfg.body_force * np.sum(phi_U, axis=1) * dx
        )
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
    how much the boundary terms carry)."""
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
    """Action sum I = sum_k dt * [psi(U_k, Gamma_k) - rho0*r.U_k - K_(k+1/2)]
    with the midpoint kinetic energy K_(k+1/2) built from forward
    differences. The damage rate term enters only through the variation."""
    cfg = traj.cfg
    p = cfg.material
    grid = cfg.grid
    dt = traj.dt_level
    dx = grid.dx
    n = traj.nlev
    action = 0.0
    for k in range(n):
        psi = cst.total_free_energy(
            traj.U[k], traj.gamma[k], p, grid, cfg.bc, traj.times[k], traj.active[k]
        )
        ext = p.rho0 * cfg.body_force * float(np.sum(traj.U[k]) * dx)
        action += dt * (psi - ext)
    for k in range(n - 1):
        du = (traj.U[k + 1] - traj.U[k]) / dt
        action -= dt * float(0.5 * p.rho0 * np.sum(du**2) * dx)
    return action


def action_first_variation(
    traj: DiscreteTrajectory, delta_U: np.ndarray, delta_gamma: np.ndarray
):
    """Exact directional derivative of the discrete action along a space-time
    perturbation, plus the Biot rate term for the damage field.

    Returns (delta_I, inner) where inner = sum_k dt * integral (resid_U *
    delta_U + resid_gamma * delta_gamma) dV over the interior levels. For
    perturbations vanishing at the first/last level and in the boundary
    cells, summation by parts makes the two equal to roundoff; that identity
    is the verifier's self-test.
    """
    _require_levels(traj)
    cfg = traj.cfg
    p = cfg.material
    grid = cfg.grid
    dt = traj.dt_level
    dx = grid.dx
    n = traj.nlev
    delta_U = np.asarray(delta_U, dtype=float)
    delta_gamma = np.asarray(delta_gamma, dtype=float)
    if delta_U.shape != traj.U.shape:
        raise ShapeMismatch("delta_U", traj.U.shape, delta_U.shape)
    if delta_gamma.shape != traj.gamma.shape:
        raise ShapeMismatch("delta_gamma", traj.gamma.shape, delta_gamma.shape)

    w_u = ops.face_weights_u_1d(cfg.bc, grid.nx, dx)
    bc_g = cfg.bc["gamma"]
    w_g = ops.face_weights_gamma(bc_g, grid.nx, dx)

    plan = ElasticPlan(cfg)
    delta_I = 0.0
    for k in range(1, n - 1):
        U, gamma, t = traj.U[k], traj.gamma[k], traj.times[k]
        dU, dG = delta_U[k], delta_gamma[k]
        # face terms; perturbations are interior so boundary-face variations vanish
        plan.level(U, gamma, t)
        S = plan.S
        duX = np.zeros(grid.nx + 1)
        duX[1:-1] = np.diff(dU) / dx
        dpsi = float(np.sum(w_u * S * duX))
        K = ops.face_conductivity(traj.active[k], p.k1, bc_g)
        gradf = ops.gamma_grad_faces(gamma, dx, bc_g)
        dgrad = np.zeros(grid.nx + 1)
        dgrad[1:-1] = np.diff(dG) / dx
        dpsi += float(np.sum(w_g * K * gradf * dgrad))
        uXc = ops.face_mean(plan.eps)
        A = cst.damage_force(gamma, p, uX=uXc)
        dpsi += float(np.sum(-np.where(traj.active[k], A, 0.0) * dG) * dx)

        gdot = (traj.gamma[k + 1] - traj.gamma[k - 1]) / (2.0 * dt)
        biot = float(np.sum(p.lam * gdot * dG) * dx)
        ext = p.rho0 * cfg.body_force * float(np.sum(dU) * dx)
        delta_I += dt * (dpsi + biot - ext)
    for k in range(n - 1):
        du = (traj.U[k + 1] - traj.U[k]) / dt
        ddu = (delta_U[k + 1] - delta_U[k]) / dt
        delta_I -= dt * float(p.rho0 * np.sum(du * ddu) * dx)

    res = lagrange_residual(traj)
    inner = 0.0
    for i, k in enumerate(range(1, n - 1)):
        inner += dt * float(
            np.sum(res.resid_U[i] * delta_U[k] + res.resid_gamma[i] * delta_gamma[k]) * dx
        )
    return delta_I, inner
