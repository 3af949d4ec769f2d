"""Time integration of the coupled hyperbolic-parabolic system.

Lie splitting per step: a velocity-Verlet elastic update (the composition is
algebraically identical to the centered three-level scheme), then activation
of cells whose stress magnitude reached the threshold, then one damage step
(Crank-Nicolson by default, explicit Euler for cross-checks). Coupling is
one-way in the feng model: the elastic substep never reads the damage field.
The conservative lam = 0 limit (kind: clifton) is the same loop with the
damage substep skipped: the damage field stays frozen and nothing dissipates.

Every step is audited: hyperbolic Courant number, parabolic stability
number, the pointwise admissibility product Z*dGamma/dt, and a running
energy budget (kinetic + free energy + cumulative dissipation + boundary
work + boundary damage release).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np

from . import constitutive as cst
from . import ops
from .errors import (
    AdmissibilityViolation,
    CflViolation,
    ConfigConflict,
    DiffusionStabilityViolation,
    NonFiniteState,
    PicardNotConverged,
    SingularLambda,
)
from .model import FieldState, ScenarioConfig, initialize_state


# The columns of RunResult.reports, one row per time level. kinetic and
# free_energy are instantaneous; dissipated, boundary_work and released are
# cumulative from t = 0 (J per unit cross-section). Closure: the growth of
# kinetic + free_energy equals boundary_work - dissipated - released up to
# time-stepping error. reports.csv writes these columns and their total.
REPORT_FIELDS = (
    "time", "dt", "max_cfl", "max_diff", "min_Z_gammadot",
    "kinetic", "free_energy", "dissipated", "boundary_work", "released",
)


@dataclass
class GaugeTrace:
    """Time history at one embedded gauge point."""

    position: object  # x, or (x, y)
    cell: tuple  # index of the gauge's cell: (i,), or (j, i)
    t: np.ndarray
    S: np.ndarray
    gamma: np.ndarray
    sigma_lateral_proxy: np.ndarray


@dataclass
class Snapshot:
    """Full-field dump at one cadence tick."""

    step: int
    time: float
    U: np.ndarray
    v: np.ndarray
    gamma: np.ndarray
    S: np.ndarray
    Z: np.ndarray


class RunResult(NamedTuple):
    state: FieldState
    reports: np.ndarray  # structured, fields REPORT_FIELDS, one row per level
    gauges: List[GaugeTrace]
    snapshots: List[Snapshot]


def lateral_stress_proxy(gamma, p) -> np.ndarray:
    """Monotone gauge proxy for the transverse signal: damage normalized by
    its saturation level when one exists. Not a stress in Pa."""
    if p.source_law == "logistic":
        return np.asarray(gamma, dtype=float) / p.gamma_max
    return np.asarray(gamma, dtype=float)


# -- elastic substep ----------------------------------------------------------


def _stress_faces(U, gamma, t, cfg: ScenarioConfig, eps=None) -> np.ndarray:
    p = cfg.material
    if eps is None:
        eps = ops.strain_faces(U, cfg.grid, cfg.bc, t)
    if p.model == "linear":
        S = cst.stress(eps, ops.gamma_face_values(gamma, cfg.bc["gamma"]), p, "linear")
    else:
        S = cst.stress(eps, None, p, "feng")
    return ops.override_stress_faces(S, cfg.bc, t)


def _accel(S_faces, cfg: ScenarioConfig):
    return ops.div_faces(S_faces, cfg.grid.dx) / cfg.material.rho0 + cfg.body_force


class Faces(NamedTuple):
    """Face strain and face stress of one time level, and the acceleration
    div(S)/rho0 + r they give, evaluated once and read by every part of a
    step that needs them."""

    eps: np.ndarray
    S: np.ndarray
    accel: np.ndarray


def level_faces(U, gamma, t: float, cfg: ScenarioConfig) -> Faces:
    eps = ops.strain_faces(U, cfg.grid, cfg.bc, t)
    S = _stress_faces(U, gamma, t, cfg, eps=eps)
    return Faces(eps, S, _accel(S, cfg))


def _check_courant(c_max: float, dt: float, dx: float, state: FieldState) -> float:
    """Courant number c_max*dt/dx. Raises CflViolation when it exceeds 1
    and NonFiniteState (state attached) when it is NaN."""
    cfl = c_max * dt / dx
    if not cfl <= 1.0 + 1e-12:
        if np.isnan(cfl):
            err = NonFiniteState("Courant number")
            err.state = state.copy()  # dumped for post-mortem inspection
            raise err
        raise CflViolation(dt, dx, c_max)
    return cfl


def step_elastic(
    state: FieldState,
    cfg: ScenarioConfig,
    faces: Optional[Faces] = None,
    t_new: Optional[float] = None,
):
    """One velocity-Verlet step of rho0*U_tt = dS/dX + rho0*r.

    faces are the state's own (level_faces of its U, gamma and time), computed
    here when not given. t_new is the new level's time, state.time + dt when
    not given; a run passes k*dt, which (k-1)*dt + dt may round off. Returns
    (U_new, v_new, max_cfl, faces_new), where faces_new are those of U_new at
    t_new with the unchanged gamma, as the final half kick used them. Raises
    CflViolation before touching the state when c_max*dt/dx exceeds 1, and
    NonFiniteState when it is NaN.
    """
    dt = cfg.dt
    if faces is None:
        faces = level_faces(state.U, state.gamma, state.time, cfg)
    if t_new is None:
        t_new = state.time + dt
    cfl = _check_courant(cst.elastic_wave_speed(faces.eps, cfg.material), dt, cfg.grid.dx, state)
    v_half = state.v + 0.5 * dt * faces.accel
    U_new = state.U + dt * v_half
    new = level_faces(U_new, state.gamma, t_new, cfg)
    v_new = v_half + 0.5 * dt * new.accel
    return U_new, v_new, cfl, new


# -- damage substep -----------------------------------------------------------


class DamageOperators(NamedTuple):
    """What a damage step needs that depends only on the active set: the face
    conductivity of each grid axis and the implicit operator on the active
    box with its factor (None when no cell is active, and for the explicit
    scheme). A run rebuilds them only on a step that activates a cell."""

    K: tuple
    implicit: Optional[ops.DamageOperator]


def damage_operators(active: np.ndarray, cfg: ScenarioConfig) -> DamageOperators:
    p = cfg.material
    bc_g = cfg.bc["gamma"]
    K = ops.grid_conductivity(active, (p.k1, p.k2), cfg.grid, bc_g)
    if cfg.numerics["scheme"] == "explicit":
        return DamageOperators(K, None)
    if p.model != "linear" and p.source_law == "logistic":
        react = np.zeros(active.shape)
    else:
        react = np.where(active, p.c2, 0.0)
    return DamageOperators(K, ops.damage_operator(active, K, react, p.lam, cfg.dt, cfg.grid, bc_g))


@dataclass
class DamageStepInfo:
    max_diff: float
    min_Z_gammadot: float
    peak_Z_gammadot: float
    dissipated_inc: float
    released_inc: float
    operators: DamageOperators  # reusable while the active set stays


def step_damage(state: FieldState, cfg: ScenarioConfig, uX=None, operators=None):
    """One step of lam*dGamma/dt = div(K grad Gamma) + source on active cells.

    Crank-Nicolson (default) folds linear sources into the solve; the
    logistic source is iterated to the implicit midpoint (Picard, tolerance
    numerics.source_tol), together with the 2D defect correction
    (ops.damage_step), so the discrete admissibility product stays
    nonnegative up to roundoff in 1D and 2D; PicardNotConverged is raised
    when numerics.source_max_iter iterations fall short. The solve covers the
    bounding box of the active cells; every other cell keeps its value.
    NonFiniteState is raised on a non-finite operator or right-hand side,
    or a non-finite explicit update. Both carry a copy of the state as
    .state. Explicit Euler available for cross-checks, guarded by the
    max(d1/dx^2, d2/dy^2)*dt <= 1/2 limit.

    uX (cell strain) and operators (damage_operators of state.active) are
    computed here when not given. Returns (gamma_new, DamageStepInfo).
    """
    p = cfg.material
    grid = cfg.grid
    dt = cfg.dt
    if p.lam == 0.0:
        raise SingularLambda(
            "damage step needs lam > 0; the lam = 0 limit is run with kind: clifton"
        )
    if uX is None:
        uX = ops.strain_cells(state.U, grid, cfg.bc, state.time)
    bc_g = cfg.bc["gamma"]
    active = state.active
    gamma = state.gamma
    scheme = cfg.numerics["scheme"]
    diff_number = max(d / ax.h**2 for ax, d in zip(grid.axes, (p.d1, p.d2))) * dt

    try:
        if operators is None:
            operators = damage_operators(active, cfg)
        K = operators.K
        if scheme == "explicit":
            if diff_number > 0.5 + 1e-12:
                raise DiffusionStabilityViolation(diff_number)
            A = cst.damage_force(gamma, p, model=p.model, uX=uX)
            rhs = ops.grid_flux_div(gamma, K, grid, [bc_g] * len(K)) + np.where(active, A, 0.0)
            gamma_new = gamma + dt / p.lam * np.where(active, rhs, 0.0)
            if not np.isfinite(gamma_new).all():
                raise NonFiniteState("explicit damage update")
            z_probe = gamma  # admissibility sampled at the old state
        else:
            gamma_new = gamma.copy()
            op = operators.implicit
            if op is not None:
                box = op.box
                g = gamma[box]
                on = active[box]
                # the operator and the source-free right-hand side hold for
                # the whole step; each iteration updates the logistic source
                # (Picard to the midpoint) and, in 2D, the defect correction
                rhs0 = ops.damage_rhs(g, op, grid)
                picard = p.model == "feng" and p.source_law == "logistic"
                if p.model == "linear":
                    source = np.where(on, -p.b * uX[box], 0.0)
                elif not picard:
                    source = np.zeros(g.shape)
                tol, max_iter = cfg.numerics["source_tol"], cfg.numerics["source_max_iter"]
                rest = np.abs(gamma)
                rest[box] = 0.0
                rest_max = float(rest.max())  # |Γ| outside the box, fixed this step
                g_new, prev = g, None
                for _ in range(max_iter):
                    if picard:
                        source = np.where(on, cst.damage_force(0.5 * (g + g_new), p), 0.0)
                    nxt, x = ops.damage_step(rhs0, source, op, grid, prev)
                    delta = float(np.abs(nxt - g_new).max())
                    g_new, prev = nxt, (nxt, x)
                    if not picard and x is None:
                        break  # 1D linear or source-free: the one solve is exact
                    limit = tol * max(1.0, float(np.abs(g_new).max()), rest_max)
                    if delta <= limit:
                        break
                else:
                    raise PicardNotConverged(state.time, max_iter, delta, limit)
                gamma_new[box] = g_new
            z_probe = None  # midpoint, assigned after the clamp below
    except (NonFiniteState, PicardNotConverged) as err:
        err.state = state.copy()  # dumped for post-mortem inspection
        raise

    if p.source_law == "logistic":
        gamma_new = np.maximum(gamma_new, 0.0)
    if z_probe is None:
        z_probe = 0.5 * (gamma + gamma_new)  # scheme-consistent midpoint

    gamma_dot = (gamma_new - gamma) / dt
    _, B_mid, Z_mid = cst.internal_forces(
        z_probe, p, grid, model=p.model, uX=uX, bc_gamma=bc_g, active=active, K=K
    )
    zg = np.where(active, Z_mid * gamma_dot, 0.0)
    released = cst.boundary_energy_release(gamma_dot, B_mid, grid, bc_g)
    dissipated = float(np.sum(p.lam * gamma_dot**2) * grid.cell_volume)
    info = DamageStepInfo(
        max_diff=float(diff_number),
        min_Z_gammadot=float(np.min(zg)) if zg.size else 0.0,
        peak_Z_gammadot=float(np.max(np.abs(zg))) if zg.size else 0.0,
        dissipated_inc=dissipated * dt,
        released_inc=released * dt,
        operators=operators,
    )
    return gamma_new, info


# -- full runs ----------------------------------------------------------------


def _kinetic(v, p, grid) -> float:
    return float(0.5 * p.rho0 * np.sum(v**2) * grid.cell_volume)


def _wall_power(S_faces, v, t, cfg: ScenarioConfig) -> float:
    """Instantaneous boundary work rate S_R*v_R - S_L*v_L (W per unit area),
    summed over the grid rows.

    Wall velocity: 0 for fixed, the prescribed rate for velocity walls, the
    adjacent cell's velocity for traction walls (their motion is a response;
    this is the boundary value of the summation-by-parts pair in ops)."""
    bc = cfg.bc
    if bc["u_left"]["type"] == "periodic":
        return 0.0

    def vw(side, v_cell):
        spec = bc[side]
        if spec["type"] == "fixed":
            return 0.0
        if spec["type"] == "velocity":
            return spec["value"]
        return v_cell

    per_row = S_faces.T[-1] * vw("u_right", v.T[-1]) - S_faces.T[0] * vw("u_left", v.T[0])
    return float(np.sum(per_row) * cfg.grid.axes[0].across)


def _snapshot(step: int, state: FieldState, cfg: ScenarioConfig) -> Snapshot:
    p = cfg.material
    uXc = ops.strain_cells(state.U, cfg.grid, cfg.bc, state.time)
    S = cst.stress(uXc, state.gamma, p, p.model)
    _, _, Z = cst.internal_forces(
        state.gamma, p, cfg.grid, model=p.model, uX=uXc,
        bc_gamma=cfg.bc["gamma"], active=state.active,
    )
    return Snapshot(
        step=step,
        time=state.time,
        U=state.U.copy(),
        v=state.v.copy(),
        gamma=state.gamma.copy(),
        S=np.asarray(S),
        Z=np.asarray(Z),
    )


def _gauge_cells(cfg: ScenarioConfig) -> tuple:
    """The cells holding the gauges, as one index array per field axis (y
    before x in 2D), so field[cells] reads every gauge at once."""
    axes = cfg.grid.axes
    pos = np.reshape(np.asarray(cfg.gauges, dtype=float), (len(cfg.gauges), len(axes)))
    per_axis = [np.clip((pos[:, a] - ax.origin) / ax.h, 0, ax.n - 1).astype(int)
                for a, ax in enumerate(axes)]
    return tuple(reversed(per_axis))


def _step_count(cfg: ScenarioConfig) -> int:
    return max(1, int(round(cfg.t_end / cfg.dt)))


def run(cfg: ScenarioConfig) -> RunResult:
    """Integrate a scenario to t_end.

    kind: coupled advances the full system, kind: clifton its conservative
    lam = 0 limit; both go through _coupled_steps. Every level adds one row
    to the reports (columns REPORT_FIELDS, e.g. reports["dissipated"]) and
    one sample to each gauge trace; the output.snapshots cadence adds
    full-field snapshots. The steps' typed errors (CflViolation,
    AdmissibilityViolation, ...) propagate as raised.
    """
    nsteps = _step_count(cfg)
    state = initialize_state(cfg)
    snap_steps = set(np.linspace(0, nsteps, cfg.output["snapshots"]).astype(int).tolist())
    cells = _gauge_cells(cfg)
    reports = np.empty(nsteps + 1, dtype=[(name, float) for name in REPORT_FIELDS])
    gauge_S = np.empty((nsteps + 1, len(cfg.gauges)))
    gauge_gamma = np.empty((nsteps + 1, len(cfg.gauges)))
    snapshots: List[Snapshot] = []
    for k, (row, S_cells) in enumerate(_coupled_steps(state, cfg)):
        reports[k] = row
        gauge_S[k] = S_cells[cells]
        gauge_gamma[k] = state.gamma[cells]
        if k in snap_steps:
            snapshots.append(_snapshot(k, state, cfg))
    proxy = lateral_stress_proxy(gauge_gamma, cfg.material)
    traces = [
        GaugeTrace(
            position=pos,
            cell=tuple(int(c[g]) for c in cells),
            t=reports["time"],
            S=gauge_S[:, g],
            gamma=gauge_gamma[:, g],
            sigma_lateral_proxy=proxy[:, g],
        )
        for g, pos in enumerate(cfg.gauges)
    ]
    return RunResult(state, reports, traces, snapshots)


def _activate(state: FieldState, S_cells, sigma0: float) -> bool:
    """Switch on the cells whose stress magnitude reached sigma0 (every cell
    when sigma0 = 0); cells never switch off. state.active is replaced by a
    new mask only when a cell switched on, which is what this returns."""
    if sigma0 > 0.0:
        hit = np.abs(S_cells) >= sigma0
        if not (hit > state.active).any():
            return False
        state.active = state.active | hit
        return True
    if state.active.all():
        return False
    state.active = np.ones(state.active.shape, dtype=bool)
    return True


def _coupled_steps(state: FieldState, cfg: ScenarioConfig):
    """Advance state in place through the coupled system, yielding (row,
    cell stress) at t = 0 and after each step; row holds the REPORT_FIELDS
    values of the new level.

    Per step: elastic substep, threshold activation (|S| >= sigma0; cells
    never deactivate), damage substep, energy bookkeeping, admissibility
    audit. Each level's face strain is evaluated once and shared by all of
    them, and the damage operators are rebuilt only on a step that
    activates a cell. Raises AdmissibilityViolation (with the offending
    state attached) if min Z*dGamma/dt drops below -tol * peak magnitude.

    kind: clifton is the conservative limit (lam = 0, c2 = 0, b = 0, no
    source; ConfigConflict otherwise): every step skips activation, the
    damage substep and the audit, so no cell is active, the damage field is
    frozen, dissipation and release stay zero, and total energy is conserved
    to discretization error.
    """
    p = cfg.material
    grid = cfg.grid
    dt = cfg.dt
    frozen = cfg.kind == "clifton"
    if frozen:
        if p.lam != 0.0 or p.c2 != 0.0 or p.b != 0.0 or (
            p.source_law == "logistic" and p.source_rate != 0.0
        ):
            raise ConfigConflict(
                "conservative limit needs lam = 0, c2 = 0, b = 0, and no source; got "
                f"lam={p.lam}, c2={p.c2}, b={p.b}"
            )
        state.active = np.zeros(grid.shape, dtype=bool)
    weights = ops.energy_weights(cfg.bc, grid)
    faces = level_faces(state.U, state.gamma, state.time, cfg)
    damage_ops = None
    e_damage = None  # damage part of the free energy, evaluated when gamma moved

    def budget(dissipated, work, released):
        """The budget part of a report row: kinetic, free_energy, dissipated,
        boundary_work, released."""
        nonlocal e_damage
        if e_damage is None:
            e_damage = cst.damage_free_energy(
                state.gamma, p, grid, cfg.bc["gamma"], weights[1], state.active,
                K=None if damage_ops is None else damage_ops.K,
            )
        free = cst.total_free_energy(
            state.U, state.gamma, p, grid, cfg.bc, state.time, p.model,
            eps=faces.eps, weights=weights, damage=e_damage,
        )
        return _kinetic(state.v, p, grid), free, dissipated, work, released

    uXc = ops.face_mean(faces.eps)
    S_cells = np.asarray(cst.stress(uXc, state.gamma, p, p.model))
    yield (0.0, dt, 0.0, 0.0, 0.0, *budget(0.0, 0.0, 0.0)), S_cells

    dissipated = 0.0
    released = 0.0
    work = 0.0
    max_diff = 0.0
    min_zg = 0.0
    tol_adm = cfg.numerics["tol_admissibility"]
    zg_peak = 0.0
    power_prev = _wall_power(faces.S, state.v, state.time, cfg)
    for k in range(1, _step_count(cfg) + 1):
        t = k * dt
        state.U, state.v, cfl, faces = step_elastic(state, cfg, faces, t)
        state.time = t
        uXc = ops.face_mean(faces.eps)
        # threshold activation from the fresh stress field
        S_cells = np.asarray(cst.stress(uXc, state.gamma, p, p.model))
        if not frozen:
            if _activate(state, S_cells, p.sigma0):
                damage_ops = None
            state.gamma, dinfo = step_damage(state, cfg, uX=uXc, operators=damage_ops)
            damage_ops = dinfo.operators
            e_damage = None
            max_diff, min_zg = dinfo.max_diff, dinfo.min_Z_gammadot

            dissipated += dinfo.dissipated_inc
            released += dinfo.released_inc
            if p.model == "linear":  # damage moved, so stress moved
                S = _stress_faces(state.U, state.gamma, state.time, cfg, eps=faces.eps)
                faces = Faces(faces.eps, S, _accel(S, cfg))
                S_cells = np.asarray(cst.stress(uXc, state.gamma, p, p.model))

            zg_peak = max(zg_peak, dinfo.peak_Z_gammadot)
            if min_zg < -tol_adm * max(zg_peak, 1e-30):
                err = AdmissibilityViolation(state.time, min_zg, tol_adm * zg_peak)
                err.state = state.copy()  # dumped for post-mortem inspection
                raise err
        power = _wall_power(faces.S, state.v, state.time, cfg)
        work += 0.5 * (power_prev + power) * dt
        power_prev = power

        yield (state.time, dt, cfl, max_diff, min_zg, *budget(dissipated, work, released)), S_cells
