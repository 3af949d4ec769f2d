"""Time integration of the coupled hyperbolic-parabolic system.

Lie splitting per step: a velocity-Verlet elastic update (the composition is
algebraically identical to the centered three-level scheme), then activation
of cells whose stress magnitude reached the threshold, then one
Crank-Nicolson damage step. Each half is resolved once per run into a plan:
ElasticPlan holds the wall rules, the stress terms and the buffers of the
elastic half, DamagePlan the source law, the tolerances and the operator
of the current active set. Coupling is one-way when b = 0 (Feng's model):
the elastic substep never reads the damage field. The conservative lam = 0
limit (Clifton's model) is the same loop with the damage substep skipped:
the damage field stays frozen and nothing dissipates.

Every step is audited: hyperbolic Courant number, the pointwise
admissibility product Z*dGamma/dt, and a running energy budget (kinetic +
free energy + cumulative dissipation + boundary work); the diffusion number
is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple

import numpy as np

from . import constitutive as cst
from . import ops
from .errors import AdmissibilityViolation, CflViolation, NonFiniteState, PicardNotConverged
from .model import FieldState, ScenarioConfig, initialize_state


# The columns of RunResult.reports, one row per time level. kinetic and
# free_energy are instantaneous; dissipated and boundary_work are cumulative
# from t = 0 (J per unit cross-section). Closure: the growth of kinetic +
# free_energy equals boundary_work - dissipated up to time-stepping error
# (the damage flux does no work at any damage wall: zero-flux walls carry no
# flux, dirichlet walls hold gamma fixed, rings have no wall). reports.csv
# writes these columns and their total.
REPORT_FIELDS = (
    "time", "dt", "max_cfl", "max_diff", "min_Z_gammadot",
    "kinetic", "free_energy", "dissipated", "boundary_work",
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


def _wall_velocity(spec: dict, idx: int):
    """A wall's velocity as a function of the cell velocities v: 0 for
    fixed, the prescribed rate for velocity walls, the adjacent cell's
    velocity for traction and free walls (their motion is a response; this
    is the boundary value of the summation-by-parts pair in ops)."""
    if spec["type"] == "fixed":
        return lambda v: 0.0
    if spec["type"] == "velocity":
        value = spec["value"]
        return lambda v: value
    return lambda v: v.T[idx]


class ElasticPlan:
    """The elastic half of a step, resolved once per run.

    cfg's wall rules (face strain, prescribed face stress, wall velocity),
    the stress terms its material sets (c3 != 0, b != 0) and its energy
    weights are looked up here once. A time level's face strain eps, its
    square u2, face stress S and acceleration accel = div(S)/rho0 + r live
    in buffers that every level reuses: level() fills them, step() advances
    U and v in place from them.
    Each expression keeps the operand order of its reference
    (ops.strain_faces, cst.stress, cst.elastic_wave_speed,
    cst.total_free_energy), and the reductions are the ufunc reductions
    behind x.sum() and x.max() called directly, so the results are bitwise
    theirs.
    """

    def __init__(self, cfg: ScenarioConfig):
        p, grid, bc = cfg.material, cfg.grid, cfg.bc
        self.p = p
        self.dt, self.dx = cfg.dt, grid.dx
        self.body_force = cfg.body_force
        self.bc_gamma = bc["gamma"]
        self.cubic, self.coupled = p.c3 != 0.0, p.b != 0.0
        self.fill_strain = ops.strain_rule(bc, grid.dx)
        self.stress_rules = ops.stress_rules(bc)
        self.walls = None if bc["u_left"]["type"] == "periodic" else (
            _wall_velocity(bc["u_left"], 0), _wall_velocity(bc["u_right"], -1)
        )
        self.w_u = ops.energy_weights(bc, grid)[0]
        self.across = grid.axes[0].across
        self.cell_volume = grid.cell_volume
        faces = grid.shape[:-1] + (grid.nx + 1,)
        self.eps, self.u2, self.S, self._f1, self._f2 = (np.empty(faces) for _ in range(5))
        self.accel, self.v_half, self._c1 = (np.empty(grid.shape) for _ in range(3))
        self._S_right, self._S_left = self.S[..., 1:], self.S[..., :-1]  # of each cell

    def level(self, U, gamma, t: float) -> None:
        """Evaluate the faces of the level (U, gamma, t) into the buffers."""
        self.fill_strain(U, t, self.eps)
        np.multiply(self.eps, self.eps, out=self.u2)
        self.stress(gamma, t)

    def stress(self, gamma, t: float) -> None:
        """Face stress S of the current strain and damage gamma, the walls'
        prescribed values included, and the acceleration it gives."""
        p, S = self.p, self.S
        np.multiply(self.eps, p.c1, out=S)
        if self.cubic:
            cube = np.multiply(self.u2, self.eps, out=self._f1)
            S += np.multiply(cube, p.c3, out=cube)
        if self.coupled:
            S += p.b * ops.gamma_face_values(gamma, self.bc_gamma)
        for idx, value in self.stress_rules:
            S[..., idx] = value(t)
        a = self.accel
        np.subtract(self._S_right, self._S_left, out=a)
        np.divide(a, self.dx, out=a)
        np.divide(a, p.rho0, out=a)
        np.add(a, self.body_force, out=a)

    def step(self, state: FieldState, t_new: float) -> float:
        """One velocity-Verlet step of rho0*U_tt = dS/dX + rho0*r from the
        buffers, which hold state's level. Updates state.U and state.v in
        place and leaves the buffers holding the new level (t_new, gamma
        unchanged). Returns the Courant number; raises CflViolation before
        touching the state when it exceeds 1, NonFiniteState when NaN."""
        dt = self.dt
        c_max = cst.characteristic_speed(float(np.maximum.reduce(self.u2, None)), self.p)
        cfl = _check_courant(c_max, dt, self.dx, state)
        half = 0.5 * dt
        v_half = np.multiply(self.accel, half, out=self.v_half)
        np.add(state.v, v_half, out=v_half)
        np.add(state.U, np.multiply(v_half, dt, out=self._c1), out=state.U)
        self.level(state.U, state.gamma, t_new)
        np.add(v_half, np.multiply(self.accel, half, out=state.v), out=state.v)
        return cfl

    def cell_stress(self, gamma, at: tuple) -> np.ndarray:
        """Cell stress (of the mean of the two face strains) at the cells
        at, one index array per field axis."""
        e = self.eps
        uX = 0.5 * (e[..., :-1][at] + e[..., 1:][at])
        return cst.stress(uX, gamma[at], self.p)

    def kinetic(self, v) -> float:
        square = np.multiply(v, v, out=self._c1)
        return float(0.5 * self.p.rho0 * np.add.reduce(square, None) * self.cell_volume)

    def free_energy(self, gamma, damage: tuple) -> float:
        """cst.total_free_energy of the buffers' level, with damage its
        damage part (cst.damage_free_energy of gamma)."""
        p = self.p
        e = np.multiply(self.u2, 0.5 * p.c1, out=self._f1)
        if self.cubic:
            quartic = np.multiply(self.u2, self.u2, out=self._f2)
            e += np.multiply(quartic, 0.25 * p.c3, out=quartic)
        e *= self.w_u
        e_grad, e_cell = damage
        if self.coupled:
            e_cell += float((p.b * ops.face_mean(self.eps) * gamma * self.cell_volume).sum())
        return float(np.add.reduce(e, None) * self.across) + e_grad + e_cell

    def wall_power(self, v) -> float:
        """Instantaneous boundary work rate S_R*v_R - S_L*v_L (W per unit
        area), summed over the grid rows; 0 on a ring."""
        if self.walls is None:
            return 0.0
        left, right = self.walls
        S = self.S.T
        return float((S[-1] * right(v) - S[0] * left(v)).sum() * self.across)


# -- damage substep -----------------------------------------------------------


class DamagePlan:
    """The damage half of a step, resolved once per run, as ElasticPlan
    resolves the elastic half.

    cfg's diffusion number, source law and reaction, Picard tolerances and
    damage-gradient weights are looked up here once. The face conductivity K
    of each grid axis and the Crank-Nicolson operator on the box of the
    active cells (ops.damage_operator, None when no cell is active) hold
    while the active set does: they are built for active here and rebuilt by
    activate() only when a cell switches on. Each step solves that operator
    for the increment of Gamma, its right-hand side the net damage force.
    Built only when lam > 0.
    """

    def __init__(self, cfg: ScenarioConfig, active: np.ndarray):
        p, grid = cfg.material, cfg.grid
        self.p, self.grid, self.dt, self.bc_g = p, grid, cfg.dt, cfg.bc["gamma"]
        diffusivity = max(d / ax.h**2 for ax, d in zip(grid.axes, (p.d1, p.d2)))
        self.diff_number = float(diffusivity * cfg.dt)
        # the logistic source is iterated to the midpoint (Picard); the
        # linear one is folded into the operator as the reaction c2
        self.picard = p.source_law == "logistic"
        self.reaction = 0.0 if self.picard else p.c2
        self.tol, self.max_iter = cfg.numerics["source_tol"], cfg.numerics["source_max_iter"]
        self.w_gamma = ops.energy_weights(cfg.bc, grid)[1]
        self._build(active)

    def _build(self, active: np.ndarray) -> None:
        p = self.p
        self.K = ops.grid_conductivity(active, (p.k1, p.k2), self.grid, self.bc_g)
        react = np.where(active, self.reaction, 0.0)
        self.op = ops.damage_operator(active, self.K, react, p.lam, self.dt, self.grid, self.bc_g)

    def activate(self, state: FieldState, uXc) -> None:
        """Switch on the cells whose stress magnitude (from the cell strain
        uXc) reached sigma0, every cell when sigma0 = 0; cells never switch
        off. Only when a cell switched on are state.active replaced by a new
        mask and K and the operator rebuilt."""
        if state.active.all():
            return
        hit = np.abs(cst.stress(uXc, state.gamma, self.p)) >= self.p.sigma0
        if not (hit > state.active).any():
            return
        state.active = state.active | hit
        try:
            self._build(state.active)
        except NonFiniteState as err:
            err.state = state.copy()  # dumped for post-mortem inspection
            raise

    def step(self, state: FieldState, uX) -> tuple:
        """One Crank-Nicolson step of lam*dGamma/dt = Z on the active cells,
        Z = div(K grad Gamma) + source the net damage force and uX the cell
        strain; state, whose active set is the plan's, is not modified. The
        solve covers the box of the active cells and is for the increment d
        = Gamma_new - Gamma: every other cell keeps its value bit for bit.

        Its right-hand side is the step's net damage force (ops.damage_step):
        the flux of Gamma, once per step, plus the source at Gamma under the
        linear law (whose reaction c2 is in the operator) or at the midpoint
        Gamma + d/2 under the logistic law. The logistic source is iterated
        (Picard) together with the 2D defect correction, so the discrete
        admissibility product stays nonnegative up to roundoff in 1D and 2D.
        Raises PicardNotConverged when numerics.source_max_iter iterations
        fall short of numerics.source_tol (on the scale max(1, max|Gamma_new|)
        over the box), NonFiniteState on a non-finite right-hand side, both
        with a copy of the state as .state.

        Returns (gamma_new, min Z*dGamma/dt, peak |Z*dGamma/dt|, dissipated
        increment), over the active cells with Z at the midpoint; that Z
        stays as .Z for roundoff().
        """
        p, grid, dt, op = self.p, self.grid, self.dt, self.op
        active, gamma = state.active, state.gamma
        gamma_new = gamma.copy()
        try:
            if op is not None:
                box = op.box
                g, on, uXb = gamma[box], active[box], uX[box]
                flux = ops.grid_flux_div(g, op.K, grid, op.bc)
                d, prev = np.zeros(g.shape), None
                for _ in range(self.max_iter):
                    source = cst.damage_force(g + 0.5 * d if self.picard else g, p, uXb)
                    nxt, x = ops.damage_step(flux + np.where(on, source, 0.0), op, grid, prev)
                    delta = float(np.abs(nxt - d).max())
                    d, prev = nxt, (nxt, x)
                    if not self.picard and x is None:
                        break  # 1D linear: the one solve is exact
                    limit = self.tol * max(1.0, float(np.abs(g + d).max()))
                    if delta <= limit:
                        break
                else:
                    raise PicardNotConverged(state.time, self.max_iter, delta, limit)
                gamma_new[box] += d
        except (NonFiniteState, PicardNotConverged) as err:
            err.state = state.copy()  # dumped for post-mortem inspection
            raise

        if self.picard:  # the logistic law keeps active damage nonnegative
            np.maximum(gamma_new, 0.0, out=gamma_new, where=active)
        # Z at the midpoint, where the CN step balances lam*dGamma/dt
        Z = self.Z = cst.internal_forces(0.5 * (gamma + gamma_new), p, grid, uX=uX,
                                         bc_gamma=self.bc_g, K=self.K)
        gamma_dot = (gamma_new - gamma) / dt
        zg = np.where(active, Z * gamma_dot, 0.0)
        dissipated = float(cst.dissipation_rate(gamma_dot, p).sum() * grid.cell_volume)
        return gamma_new, float(zg.min()), float(np.abs(zg).max()), dissipated * dt

    def roundoff(self, gamma, gamma_new, active) -> float:
        """The roundoff in Z*dGamma/dt of the last step, gamma -> gamma_new:
        eps*max|Z|*max(|gamma|, |gamma_new|)/dt over the active cells, Z the
        step's midpoint forces. A damage rate that is itself roundoff carries
        a product of either sign up to this size."""
        size = max(float(np.abs(gamma[active]).max()), float(np.abs(gamma_new[active]).max()))
        return float(np.finfo(float).eps * np.abs(self.Z[active]).max() * size / self.dt)

    def energy(self, gamma) -> tuple:
        """The damage part of the free energy (cst.damage_free_energy's pair)
        under the plan's active set."""
        return cst.damage_free_energy(gamma, self.p, self.grid, self.bc_g, self.w_gamma, K=self.K)


# -- full runs ----------------------------------------------------------------


def _snapshot(step: int, state: FieldState, cfg: ScenarioConfig) -> Snapshot:
    p = cfg.material
    uXc = ops.strain_cells(state.U, cfg.grid, cfg.bc, state.time)
    S = cst.stress(uXc, state.gamma, p)
    Z = cst.internal_forces(
        state.gamma, p, cfg.grid, uX=uXc, bc_gamma=cfg.bc["gamma"], active=state.active
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

    Both the full system and its conservative lam = 0 limit go through
    _coupled_steps. Every level adds one row to the reports (columns
    REPORT_FIELDS, e.g. reports["dissipated"]) and one sample to each gauge
    trace; the output.snapshots cadence adds full-field snapshots. The steps' typed errors (CflViolation,
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
    plan = ElasticPlan(cfg)
    for k, row in enumerate(_coupled_steps(state, cfg, plan)):
        reports[k] = row
        if cfg.gauges:
            gauge_S[k] = plan.cell_stress(state.gamma, cells)
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


def _coupled_steps(state: FieldState, cfg: ScenarioConfig, plan: ElasticPlan):
    """Advance state in place through the coupled system, yielding the
    REPORT_FIELDS values of each level at t = 0 and after each step. plan
    is the run's ElasticPlan (of cfg); at each yield its buffers hold the
    level's faces.

    Per step: elastic substep, threshold activation (|S| >= sigma0; cells
    never deactivate), damage substep, energy bookkeeping, admissibility
    audit. The run's DamagePlan does the activation and the damage substep;
    it rebuilds its operator only on a step that activates a cell. Raises
    AdmissibilityViolation (with the offending state, new damage included,
    attached) if min Z*dGamma/dt drops below -(tol * peak magnitude + the
    step's roundoff, DamagePlan.roundoff), NonFiniteState if the audit
    reads NaN.

    lam = 0 is the conservative limit (MaterialParams admits it only with
    c2 = 0, b = 0 and no source): it builds no DamagePlan, and every
    step skips activation, the damage substep and the audit, so no cell is
    active, the damage field is frozen, dissipation stays zero, and total
    energy is conserved to discretization error.
    """
    p = cfg.material
    dt = cfg.dt
    damage = None
    if p.lam == 0.0:
        state.active = np.zeros(cfg.grid.shape, dtype=bool)
        # lam = 0 zeroes the conductivity, c2 = 0 and no source the potential
        e_damage = (0.0, 0.0)
    else:
        damage = DamagePlan(cfg, state.active)
        e_damage = damage.energy(state.gamma)
    plan.level(state.U, state.gamma, state.time)
    yield (0.0, dt, 0.0, 0.0, 0.0, plan.kinetic(state.v), plan.free_energy(state.gamma, e_damage),
           0.0, 0.0)

    dissipated = 0.0
    work = 0.0
    max_diff = 0.0
    min_zg = 0.0
    tol_adm = cfg.numerics["tol_admissibility"]
    zg_peak = 0.0
    power_prev = plan.wall_power(state.v)
    for k in range(1, _step_count(cfg) + 1):
        t = k * dt
        cfl = plan.step(state, t)
        state.time = t
        if damage is not None:
            uXc = ops.face_mean(plan.eps)
            damage.activate(state, uXc)
            gamma = state.gamma
            state.gamma, min_zg, peak, inc = damage.step(state, uXc)
            max_diff = damage.diff_number
            dissipated += inc
            if p.b != 0.0:  # damage moved, so stress moved
                plan.stress(state.gamma, t)
            zg_peak = max(zg_peak, peak)
            nan = math.isnan(min_zg) or math.isnan(peak)
            if nan or not min_zg >= -tol_adm * zg_peak:
                # only a step that fails the cheap test pays for its roundoff;
                # a NaN (which max(peak, nan) drops and `<` passes) gets a
                # NaN bound, which no value meets
                bound = math.nan if nan else (
                    tol_adm * zg_peak + damage.roundoff(gamma, state.gamma, state.active))
                if not min_zg >= -bound:
                    if nan:
                        err = NonFiniteState("admissibility audit")
                    else:
                        err = AdmissibilityViolation(state.time, min_zg, bound)
                    err.state = state.copy()  # dumped for post-mortem inspection
                    raise err
            e_damage = damage.energy(state.gamma)
        power = plan.wall_power(state.v)
        work += 0.5 * (power_prev + power) * dt
        power_prev = power

        yield (t, dt, cfl, max_diff, min_zg, plan.kinetic(state.v),
               plan.free_energy(state.gamma, e_damage), dissipated, work)
