"""Time integration of the coupled hyperbolic-parabolic system.

Lie splitting per step: a velocity-Verlet elastic update (the composition is
algebraically identical to the centered three-level scheme), then the damage
update: activation of cells whose stress magnitude reached the threshold and
one linearly implicit Crank-Nicolson damage step, a linear system with the
source linearised about the old level. Each half is resolved once per run
into a plan whose step() advances the state in place: ElasticPlan holds the
walls (ops.walls, the one wall table), the stress terms and the buffers of
the elastic half; DamagePlan holds the source law, the tolerances, the
operator of the current active set on the box of its cells (its
conductivity, line couplings and factors, built from ops' stencils and line
solves), the audit and its buffers. Coupling is one-way when b = 0 (Feng's
model): the elastic substep never reads the damage field. The conservative
lam = 0 limit (Clifton's model) is the same loop with the damage substep
skipped: the damage field stays frozen and nothing dissipates.

Every step is audited: hyperbolic Courant number (ElasticPlan.step), the
pointwise admissibility product Z*dGamma/dt (DamagePlan.step), and a running
energy budget (kinetic + free energy + cumulative dissipation + boundary
work); the diffusion number is reported. The plans only raise their typed
errors: the run loop (_coupled_steps) checks every report row for a
non-finite column and attaches the state to each RuntimeViolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple

import numpy as np

from . import constitutive as cst
from . import ops
from .errors import (AdmissibilityViolation, CflViolation, NonFiniteState, PicardNotConverged,
                     RuntimeViolation)
from .model import SOURCE_LAWS, FieldState, ScenarioConfig, initialize_state


# The columns of RunResult.reports, one row per time level. kinetic and
# free_energy are instantaneous; dissipated and boundary_work are cumulative
# from t = 0 (J per unit cross-section); boundary_work books the work of the
# walls and of the body force. Closure: the growth of kinetic +
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
    its source law's saturation level when one exists. Not a stress in Pa."""
    gamma = np.asarray(gamma, dtype=float)
    return gamma / p.saturation if p.saturation is not None else gamma


# -- elastic substep ----------------------------------------------------------


class ElasticPlan:
    """The elastic half of a step, resolved once per run.

    cfg's walls (ops.walls: face strain, prescribed face stress, wall
    velocity), the stress terms its material sets (c3 != 0, b != 0) and its
    energy weights are looked up here once; prescribed holds the walls whose
    face stress is prescribed, and cfl is the Courant number when c3 = 0
    (None else). A time level's face strain eps, its square u2, face
    stress S and half kick h = (div(S)/rho0 + r)*dt/2 live in buffers that
    every level reuses: level() fills them, step() advances U and v in
    place from them.
    Each field expression keeps the operand order of its reference
    (ops.strain_faces, cst.stress, cst.elastic_wave_speed), so the fields
    are bitwise theirs. Each energy sum is one dot product over the cells
    or faces that hold it, against the quadrature weights and constants of
    cst.total_free_energy folded into one vector (or number) per term once
    per run: it agrees with the reference's sum up to summation roundoff.
    """

    def __init__(self, cfg: ScenarioConfig):
        p, grid, bc = cfg.material, cfg.grid, cfg.bc
        self.p = p
        self.dt, self.dx = cfg.dt, grid.dx
        self.kick = cfg.dt / (2.0 * grid.dx * p.rho0)  # h per unit stress difference
        self.half_r = 0.5 * cfg.dt * cfg.body_force
        self.force = p.rho0 * cfg.body_force * grid.cell_volume  # the body force's power per unit sum(v)
        self.bc_gamma = bc["gamma"]
        self.cubic, self.coupled = p.c3 != 0.0, p.b != 0.0
        self.cfl = None if self.cubic else cst.characteristic_speed(0.0, p) * cfg.dt / grid.dx
        self.walls = ops.walls(bc, grid.dx)
        self.fill_strain = ops.strain_rule(self.walls, grid.dx)
        self.prescribed = tuple(w for w in self.walls or () if w.stress is not None)
        self.across = grid.axes[0].across
        faces = grid.shape[:-1] + (grid.nx + 1,)
        # the energy weights, each term's constant folded in: per v^2 of a
        # cell, u2 and u2^2 of a face, (eps_left + eps_right)*gamma of a cell
        self.half_mass, self.cross = 0.5 * p.rho0 * grid.cell_volume, 0.5 * p.b * grid.cell_volume
        w = np.broadcast_to(ops.energy_weights(bc, grid)[0] * self.across, faces).ravel()
        self.w_u2, self.w_u4 = 0.5 * p.c1 * w, 0.25 * p.c3 * w
        self.eps, self.u2, self.S, self._f1 = (np.empty(faces) for _ in range(4))
        self.h, self._c1 = np.empty(grid.shape), np.empty(grid.shape)
        self._S_right, self._S_left = self.S[..., 1:], self.S[..., :-1]  # of each cell

    def level(self, U, gamma, t: float) -> None:
        """Evaluate the faces of the level (U, gamma, t) into the buffers."""
        self.fill_strain(U, t, self.eps)
        np.multiply(self.eps, self.eps, out=self.u2)
        self.stress(gamma, t)

    def stress(self, gamma, t: float) -> None:
        """Face stress S of the current strain and damage gamma, the walls'
        prescribed values included, and the half kick h it gives."""
        p, S = self.p, self.S
        np.multiply(self.eps, p.c1, out=S)
        if self.cubic:
            cube = np.multiply(self.u2, self.eps, out=self._f1)
            S += np.multiply(cube, p.c3, out=cube)
        if self.coupled:
            S += p.b * ops.gamma_face_values(gamma, self.bc_gamma)
        for wall in self.prescribed:
            S[..., wall.face] = wall.stress(t)
        h = np.subtract(self._S_right, self._S_left, out=self.h)
        np.multiply(h, self.kick, out=h)
        if self.half_r:
            np.add(h, self.half_r, out=h)

    def step(self, state: FieldState, t_new: float) -> float:
        """One velocity-Verlet step of rho0*U_tt = dS/dX + rho0*r from the
        buffers, which hold state's level: each kick adds h to v. Updates
        state.U and state.v in place and leaves the buffers holding the new
        level (t_new, gamma unchanged). Returns the Courant number (of the
        level's peak strain when c3 != 0); raises CflViolation before
        touching the state when it exceeds 1, NonFiniteState when NaN."""
        dt, cfl = self.dt, self.cfl
        if cfl is None:
            cfl = cst.characteristic_speed(float(np.maximum.reduce(self.u2, None)), self.p) * dt / self.dx
        if not cfl <= 1.0 + 1e-12:
            if np.isnan(cfl):
                raise NonFiniteState("Courant number")
            raise CflViolation(dt, self.dx, cfl * self.dx / dt)
        v = np.add(state.v, self.h, out=state.v)  # v at the half step
        np.add(state.U, np.multiply(v, dt, out=self._c1), out=state.U)
        self.level(state.U, state.gamma, t_new)
        np.add(v, self.h, out=v)
        return cfl

    def cell_stress(self, gamma, at: tuple) -> np.ndarray:
        """Cell stress (of the mean of the two face strains) at the cells
        at, one index array per field axis."""
        e = self.eps
        uX = 0.5 * (e[..., :-1][at] + e[..., 1:][at])
        return cst.stress(uX, gamma[at], self.p)

    def energies(self, state: FieldState, damage: tuple) -> tuple:
        """The kinetic and free energy (cst.total_free_energy, with damage
        its damage part, cst.damage_free_energy of state.gamma) of state's
        level, whose faces the buffers hold; either may be non-finite."""
        v, u2 = state.v.ravel(), self.u2.ravel()
        # products of Python floats: an overflow reads inf with no numpy warning
        kinetic = self.half_mass * float(v.dot(v))
        free = float(u2.dot(self.w_u2))
        if self.cubic:
            free += float(np.multiply(u2, u2, out=self._f1.ravel()).dot(self.w_u4))
        e_grad, e_cell = damage
        if self.coupled:
            both = np.add(self.eps[..., :-1], self.eps[..., 1:], out=self._c1)
            e_cell += self.cross * float(both.ravel().dot(state.gamma.ravel()))
        return kinetic, free + e_grad + e_cell

    def wall_power(self, v) -> float:
        """Instantaneous work rate of the walls, S_R*v_R - S_L*v_L summed
        over the grid rows (none on a ring), plus that of the body force,
        rho0*r*vol*sum(v) (W per unit area)."""
        power = 0.0
        if self.walls is not None:
            left, right = self.walls
            S = self.S.T
            power = float((S[-1] * right.velocity(v) - S[0] * left.velocity(v)).sum() * self.across)
        if self.force:
            power += self.force * float(np.add.reduce(v, None))
        return power


# -- damage substep -----------------------------------------------------------


_ZERO_FLUX = {"type": "zero_flux"}


class DamagePlan:
    """The damage half of a step, resolved once per run as ElasticPlan
    resolves the elastic half: cfg's diffusion number, source law row
    (model.SOURCE_LAWS), tolerances and damage-gradient weights, and the
    Crank-Nicolson operator A = lam/dt - L/2 of the active set (L the sum
    of the grid axes' homogeneous flux divergences) on the box of its cells
    (None when no cell is active): the box's face conductivities K, each
    axis's damage BC at the box edges, line coupling and factor of D -
    L_a/2, and the diagonal D of A less the source's capped slope (step),
    factored once per active set when the slope is a number, else once per
    step; idle, whether any cell is inactive. The audit, energy and
    dissipation read the box: the gradient energy and the dissipation are
    each one dot product against weights prescaled once per active set
    (w_grad) or run, equal to the full-grid sums up to summation roundoff.
    peak, the audit's scale, is the run's peak |Z*dGamma/dt|. Built only
    when lam > 0.
    """

    def __init__(self, cfg: ScenarioConfig, active: np.ndarray):
        p, grid = cfg.material, cfg.grid
        self.p, self.grid, self.dt, self.bc_g = p, grid, cfg.dt, cfg.bc["gamma"]
        diffusivity = max(d / ax.h**2 for ax, d in zip(grid.axes, (p.d1, p.d2)))
        self.diff_number = float(diffusivity * cfg.dt)
        self.slope = SOURCE_LAWS[p.source_law].slope
        self.constant = np.ndim(self.slope(np.zeros(1), p)) == 0  # a number reads no Gamma
        self.clamp = p.saturation is not None
        self.tol, self.max_iter = cfg.numerics["source_tol"], cfg.numerics["source_max_iter"]
        self.tol_adm, self.peak = cfg.numerics["tol_admissibility"], 0.0
        self.a = p.lam / cfg.dt
        self.lam_volume = p.lam * grid.cell_volume  # the dissipation per unit dGamma/dt^2
        self.w_gamma = ops.energy_weights(cfg.bc, grid)[1]
        self.psi = None  # set by the first level()
        self._build(active)

    def _build(self, active: np.ndarray) -> None:
        """The operator of active on the box of its cells. Cells outside the
        box are inactive, so they keep their Gamma. Every face on a box edge
        that is not a wall has such a cell on its far side, hence K = 0 and
        the zero-flux closure there is exact; a periodic axis keeps its wrap
        only when the box spans it. idle: whether a cell is left to switch on."""
        p, grid = self.p, self.grid
        self.idle = not active.all()
        self.box = box = ops.active_box(active)
        self.flux = None  # the next step's flux(Gamma), once taken under this K
        if box is None:
            return
        self.K = ops.grid_conductivity(active, (p.k1, p.k2), grid, self.bc_g, box)
        self.on = active[box]
        self.masked = not self.on.all()  # the box holds inactive cells
        self.bc, self.lines = [], []  # per axis: the damage BC at the box edges, line_coupling
        self.w_grad = []  # per axis: K/2 * weight * across on the box's faces, C order
        for i, (ax, Ka, w) in enumerate(zip(grid.axes, self.K, self.w_gamma)):
            dim = active.ndim - 1 - i  # x is the last array axis, y the first
            s = box[dim]
            spans = s.stop - s.start == ax.n
            self.bc.append(self.bc_g if spans or self.bc_g["type"] != "periodic" else _ZERO_FLUX)
            self.lines.append(ops.line_coupling(ax.view(Ka), 0.5, ax.h, self.bc[-1]))
            edge = slice(s.start, s.stop + 1)  # the faces of the box
            self.w_grad.append((ax.view(Ka) * (0.5 * ax.across * w[edge])).ravel())
        if self.constant:
            self._factor(self.a + self._minus_J(None))

    def _minus_J(self, g) -> np.ndarray:
        """-J, J = min(F'(g), lam/dt)/2 on the box's active cells, 0 on its
        inactive ones: capped, D = lam/dt - J >= lam/(2 dt) keeps A - J SPD."""
        return np.where(self.on, 0.5 * np.maximum(-self.slope(g, self.p), -self.a), 0.0)

    def _factor(self, D: np.ndarray) -> None:
        """Factor each axis's D - L_a/2 on the box (ops.factor_lines), D the
        diagonal there."""
        self.diag = D
        self.fac = tuple(ops.factor_lines(lines, ax.view(D))
                         for ax, lines in zip(self.grid.axes, self.lines))

    def _correct(self, force: np.ndarray, prev=None) -> tuple:
        """One correction towards the increment d on the box that solves
        (D - L/2) d = force, the caller's right-hand side. d is an increment,
        so every wall is homogeneous; force, K and -J are zero on inactive
        cells, whose rows then give d = 0 exactly.

        Solves M d = force + (M - A) dk with M = (D - Lx/2) D^-1 (D - Ly/2),
        the approximate factorisation of A = D - L/2: an x solve, a multiply
        by D, a y solve; in 1D M = A and one correction is exact. In 2D the
        cross term M - A = Lx D^-1 Ly / 4 costs one flux divergence, since
        the previous y solve gives Ly dk = 2 D (dk - xk), xk its x-sweep
        result; each mode contracts by mu_x mu_y / ((1+mu_x)(1+mu_y)). prev
        is the previous return value (dk, xk), None at first. Returns (d, x),
        x None in 1D.
        """
        grid = self.grid
        if prev is not None and prev[1] is not None:  # Lx D^-1 Ly dk / 4
            bc = dict(self.bc[0], value=0.0)  # an increment: every wall is homogeneous
            force = force + 0.5 * ops.damage_flux_div(prev[0] - prev[1], self.K[0], grid.axes[0].h, bc)
        x = ops.solve_lines(self.fac[0], force)  # x lines run along the last array axis
        if len(self.fac) == 1:
            return x, None
        y = grid.axes[1]
        return y.view(ops.solve_lines(self.fac[1], y.view(self.diag * x))), x

    def _on(self, x):
        """x on the box's active cells, 0 on its inactive ones."""
        return np.where(self.on, x, 0.0) if self.masked else x

    def level(self, gamma) -> tuple:
        """cst.damage_free_energy's pair of the level gamma under the plan's
        active set, kept as .energy. The one face gradient per axis it
        takes on the box also gives the flux the next step starts from."""
        p, cell_volume, box = self.p, self.grid.cell_volume, self.box
        if self.psi is None:
            self.psi = cst.damage_potential(gamma, p) * cell_volume
        e_grad = 0.0
        if box is not None:
            g = gamma[box]
            grads = [ops.gamma_grad_faces(ax.view(g), ax.h, bc)
                     for ax, bc in zip(self.grid.axes, self.bc)]
            self.flux = ops.grid_flux_div(g, self.K, self.grid, self.bc, grads)
            for grad, w in zip(grads, self.w_grad):
                square = grad.ravel()
                e_grad += float(np.multiply(square, square, out=square).dot(w))
            self.psi[box] = cst.damage_potential(g, p) * cell_volume
        self.energy = (e_grad, float(np.add.reduce(self.psi, None)))
        return self.energy

    def step(self, state: FieldState, eps) -> tuple:
        """One damage step of state, whose active set is the plan's, under
        the face strain eps (shaped like ElasticPlan.eps), whose face mean
        uX is the cell strain, taken once and only while a cell is inactive
        or b != 0; as ElasticPlan.step, it advances state in place. While a
        cell is inactive, every cell whose stress magnitude reached sigma0
        switches on (every cell when sigma0 = 0; cells never switch off): a
        new state.active mask, the operator rebuilt. Then one Crank-Nicolson
        step writes the new damage into state.gamma and audits it, leaving
        the new level's damage energy in .energy. Returns (min Z*dGamma/dt,
        dissipated increment).

        The Crank-Nicolson step is linearly implicit in lam*dGamma/dt = Z =
        div(K grad Gamma) + F on the active cells, F the source and -b*uX
        (read on the box only when b != 0). On the box, d = Gamma_new - Gamma
        solves (A - J) d = flux(Gamma) + F(Gamma), the midpoint F(Gamma +
        d/2) linearised with J = min(F'(Gamma), lam/dt)/2: exact for a
        constant slope, Kahan's discretization of the logistic law, first
        order in the source where the cap binds. One correction (_correct)
        solves it in 1D; in 2D corrections run until one moves d by at most
        numerics.source_tol on the old level's scale max(1, max|Gamma|),
        else PicardNotConverged. A law that saturates keeps active damage
        nonnegative; every other cell keeps its value bit for bit. The audit
        reads the physical Z at the midpoint, F there plus the mean of the
        two levels' fluxes: min Z*dGamma/dt below -(tol_admissibility*peak +
        the step's roundoff eps*max|Z|*max(|Gamma|, |Gamma_new|)/dt, that of
        a damage rate that is itself roundoff) raises AdmissibilityViolation,
        a NaN NonFiniteState, as does a non-finite operator or right-hand side.
        A rate, audit product or dissipation that overflows reads inf with no
        numpy warning: the audit, or the run loop's check of the report row,
        raises it. The errors carry no state; the run loop attaches it.
        """
        uX = ops.face_mean(eps) if self.idle or self.p.b != 0.0 else None
        if self.idle:
            hit = np.abs(cst.stress(uX, state.gamma, self.p)) >= self.p.sigma0
            if (hit > state.active).any():
                state.active = state.active | hit
                self._build(state.active)
        box = self.box
        if box is None:
            return 0.0, 0.0
        p, grid, dt, on = self.p, self.grid, self.dt, self.on
        g = state.gamma[box].copy()
        uXb = None if uX is None else uX[box]
        if self.flux is None:  # an activation changed K
            self.flux = ops.grid_flux_div(g, self.K, grid, self.bc)
        flux, d, prev = self.flux, None, None
        force = flux + self._on(cst.damage_force(g, p, uXb))
        if not self.constant:
            self._factor(self.a + self._minus_J(g))
        limit = self.tol * max(1.0, float(np.abs(g).max())) if len(self.fac) > 1 else None
        for _ in range(self.max_iter):
            nxt, x = self._correct(force, prev)
            if x is None:
                d = nxt
                break  # 1D: the one solve is exact
            delta = float(np.abs(nxt if d is None else nxt - d).max())
            d, prev = nxt, (nxt, x)
            if delta <= limit:
                break
        else:
            raise PicardNotConverged(state.time, self.max_iter, delta, limit)

        gn = state.gamma[box]
        gn += d
        if self.clamp:
            np.maximum(gn, 0.0, out=gn, where=on)
        self.level(state.gamma)
        # Z at the midpoint, where the CN step balances lam*dGamma/dt
        Z = cst.damage_force(0.5 * (g + gn), p, uXb) + 0.5 * (flux + self.flux)
        with np.errstate(over="ignore"):  # an overflow reads inf, raised below or by the caller
            gamma_dot = (gn - g) / dt
            zg = self._on(Z * gamma_dot)
            dissipated = self.lam_volume * float(gamma_dot.ravel().dot(gamma_dot.ravel()))
        low = float(zg.min())
        peak = max(float(zg.max()), -low)  # max|zg|, with no temporary
        if on.size < state.gamma.size:  # the cells outside the box are inactive: 0
            low = min(low, 0.0)
        # max(peak, nan) keeps the old peak: a NaN is caught here, not by the bound
        self.peak = max(self.peak, peak)
        if math.isnan(low) or math.isnan(peak):
            raise NonFiniteState("admissibility audit")
        bound = self.tol_adm * self.peak
        if not low >= -bound:  # only a step that fails the cheap test pays for its roundoff
            size = max(float(np.abs(g[on]).max()), float(np.abs(gn[on]).max()))
            bound += float(np.finfo(float).eps * np.abs(Z[on]).max() * size / dt)
            if not low >= -bound:
                raise AdmissibilityViolation(state.time, low, bound)
        return low, dissipated * dt


# -- full runs ----------------------------------------------------------------


def _snapshot(step: int, state: FieldState, cfg: ScenarioConfig) -> Snapshot:
    p, uXc = cfg.material, ops.strain_cells(state.U, cfg.grid, cfg.bc, state.time)
    Z = cst.internal_forces(state.gamma, p, cfg.grid, uX=uXc, bc_gamma=cfg.bc["gamma"], active=state.active)
    return Snapshot(step, state.time, state.U.copy(), state.v.copy(), state.gamma.copy(),
                    cst.stress(uXc, state.gamma, p), Z)


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
    AdmissibilityViolation, ...) propagate with the state attached.
    """
    nsteps = _step_count(cfg)
    state = initialize_state(cfg)
    snap_steps = set(np.linspace(0, nsteps, cfg.output["snapshots"]).astype(int).tolist())
    cells = _gauge_cells(cfg)
    reports = np.empty(nsteps + 1, dtype=[(name, float) for name in REPORT_FIELDS])
    gauge_S, gauge_gamma = (np.empty((nsteps + 1, len(cfg.gauges))) for _ in range(2))
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
    traces = [GaugeTrace(pos, tuple(int(c[g]) for c in cells), reports["time"], gauge_S[:, g],
                         gauge_gamma[:, g], proxy[:, g]) for g, pos in enumerate(cfg.gauges)]
    return RunResult(state, reports, traces, snapshots)


def _coupled_steps(state: FieldState, cfg: ScenarioConfig, plan: ElasticPlan):
    """Advance state in place through the coupled system, yielding the
    REPORT_FIELDS values of each level at t = 0 and after each step. plan
    is the run's ElasticPlan (of cfg); at each yield its buffers hold the
    level's faces.

    Per step: the elastic step (ElasticPlan.step), the damage step
    (DamagePlan.step: threshold activation, the Crank-Nicolson step and its
    admissibility audit), the stress of the new damage when b != 0, the
    energies and the wall work. This loop owns the failure contract: each
    row, level 0's included, is checked before it is yielded, its first
    non-finite column raising NonFiniteState("<column> column") (at c3 = 0
    the only guard against a NaN field), and each RuntimeViolation from
    level 0 on leaves with .state, a copy of state at the raise.

    lam = 0 is the conservative limit (MaterialParams admits it only with
    c2 = 0, b = 0 and no source): it builds no DamagePlan, and every
    step skips the damage step, so no cell is active, the damage field is
    frozen, dissipation stays zero, and total energy is conserved to
    discretization error.
    """
    p, dt = cfg.material, cfg.dt
    try:
        damage, max_diff = None, 0.0
        if p.lam == 0.0:
            state.active = np.zeros(cfg.grid.shape, dtype=bool)
            # lam = 0 zeroes the conductivity, c2 = 0 and no source the potential
            e_damage = (0.0, 0.0)
        else:
            damage = DamagePlan(cfg, state.active)
            e_damage = damage.level(state.gamma)
            max_diff = damage.diff_number
        plan.level(state.U, state.gamma, state.time)
        yield _finite_row((0.0, dt, 0.0, 0.0, 0.0, *plan.energies(state, e_damage), 0.0, 0.0))

        dissipated = work = min_zg = 0.0
        power_prev = plan.wall_power(state.v)
        for k in range(1, _step_count(cfg) + 1):
            t = k * dt
            cfl = plan.step(state, t)
            state.time = t
            if damage is not None:
                min_zg, inc = damage.step(state, plan.eps)
                dissipated += inc
                if p.b != 0.0:  # damage moved, so stress moved
                    plan.stress(state.gamma, t)
                e_damage = damage.energy
            power = plan.wall_power(state.v)
            work += 0.5 * (power_prev + power) * dt
            power_prev = power

            yield _finite_row((t, dt, cfl, max_diff, min_zg, *plan.energies(state, e_damage),
                               dissipated, work))
    except RuntimeViolation as err:
        err.state = state.copy()  # for post-mortem inspection
        raise


def _finite_row(row: tuple) -> tuple:
    """row, a level's REPORT_FIELDS values, or NonFiniteState naming its first non-finite column."""
    if not all(map(math.isfinite, row)):
        raise NonFiniteState(next(f"{f} column" for f, x in zip(REPORT_FIELDS, row) if not math.isfinite(x)))
    return row
