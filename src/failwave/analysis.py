"""Wave metrics, deflagration predictors, comparison tables, the small-lam
limit study, and the refinement study of any scenario's order of accuracy.

The predictors encode the deflagration reading of a failure front: speed set
by diffusivity and reaction time (v_f ~ sqrt(d1/tau)), widths d/v_f. The
extractors (front tracking, rise time) measure the same quantities from run
artifacts so the two can be compared.

v_f ~ sqrt(d1/tau) is a scaling estimate with no O(1) prefactor, and tau in it
is a reaction time, not the 10-90 gauge rise time of measure_rise_time. For a
pulled logistic front with rate r the speed is 2 sqrt(d1 r), while the 10-90
passage of the front through a gauge takes about ln(81)/r; reading the
measured rise time as tau underestimates v_f by about 2 sqrt(ln 81) ~ 4.19.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .errors import InvalidValue, NoFrontDetected, NonpositiveSpeed, NoPlateau, TooFewLevels
from .model import ScenarioConfig, build_scenario, refine
from .solver import GaugeTrace, RunResult, _step_count, run


@dataclass(frozen=True)
class WaveMetrics:
    """Extracted front quantities plus the predictor widths.

    v_f (m/s), tau (s), delta1 = d1/v_f (m), delta2 = d2/v_f (m), fit_r2 is
    the linearity of the front trajectory fit.
    """

    v_f: float
    tau: float
    delta1: float
    delta2: float
    fit_r2: float


def predict_tau(d1: float, v_f: float) -> float:
    """Reaction-time predictor tau = d1/v_f^2 (s).

    The scaling v_f ~ sqrt(d1/tau) inverted with no O(1) prefactor, as in the
    paper's tables. tau is a reaction time, not a 10-90 gauge rise time: for
    a pulled logistic front with rate r this gives 1/(4r), while the gauge
    rise is about ln(81)/r.
    """
    if v_f <= 0:
        raise NonpositiveSpeed(v_f)
    return d1 / v_f**2


def predict_width(d: float, v_f: float) -> float:
    """Front-width predictor delta = d/v_f (m); d = d1 gives the longitudinal
    width, d = d2 the transverse (shard-scale) estimate."""
    if v_f <= 0:
        raise NonpositiveSpeed(v_f)
    return d / v_f


@dataclass
class FrontTrack:
    """Level-crossing front trajectory with its linear fit."""

    times: np.ndarray
    positions: np.ndarray
    v_f: float
    fit_r2: float


def _crossing_position(x: np.ndarray, gamma: np.ndarray, thr: float) -> Optional[float]:
    """Rightmost interpolated downward crossing of gamma = thr, or None."""
    above = gamma >= thr
    hits = np.nonzero(above[:-1] & ~above[1:])[0]
    if hits.size == 0:
        return None
    i = hits[-1]
    frac = (gamma[i] - thr) / (gamma[i] - gamma[i + 1])
    return float(x[i] + frac * (x[i + 1] - x[i]))


def track_front(snapshots, grid, level: float = 0.5, gamma_max: Optional[float] = None):
    """Front trajectory along x from snapshots: position of the rightmost
    crossing of gamma = level * gamma_max per snapshot (over every grid row
    in 2D), speed from a least-squares fit over the last half of the
    detected points.

    gamma_max defaults to the largest gamma seen in any snapshot. Raises
    NoFrontDetected when fewer than 5 snapshots contain a crossing.
    """
    if gamma_max is None:
        gamma_max = max(float(np.max(s.gamma)) for s in snapshots) or 1.0
    thr = level * gamma_max
    x = grid.axes[0].centers()
    times, positions = [], []
    for snap in snapshots:
        rows = np.reshape(snap.gamma, (-1, x.size))  # the lines along x
        hits = [p for p in (_crossing_position(x, row, thr) for row in rows) if p is not None]
        if hits:
            times.append(snap.time)
            positions.append(max(hits))
    if len(times) < 5:
        raise NoFrontDetected(
            f"level {level} crossed in only {len(times)} snapshots (need >= 5)"
        )
    t = np.asarray(times)
    s = np.asarray(positions)
    half = len(t) // 2
    tf, sf = t[half:], s[half:]
    slope, intercept = np.polyfit(tf, sf, 1)
    resid = sf - (slope * tf + intercept)
    ss_tot = float(np.sum((sf - sf.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return FrontTrack(times=t, positions=s, v_f=float(slope), fit_r2=r2)


def measure_rise_time(trace, lo: float = 0.1, hi: float = 0.9) -> float:
    """Rise time of a gauge signal: t(hi*plateau) - t(lo*plateau) with linear
    interpolation between samples; plateau = mean of the last 10% of the
    trace. Raises NoPlateau if the tail still varies by more than 5% of the
    plateau (signal not settled) or never rises at all.

    Accepts a GaugeTrace (uses the lateral proxy channel) or a (t, y) pair.
    """
    if isinstance(trace, GaugeTrace):
        t, y = trace.t, trace.sigma_lateral_proxy
    else:
        t, y = trace
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    ntail = max(2, int(round(0.1 * y.size)))
    tail = y[-ntail:]
    plateau = float(tail.mean())
    if plateau <= 0.0:
        raise NoPlateau("signal never rises above zero")
    if float(tail.max() - tail.min()) > 0.05 * abs(plateau):
        raise NoPlateau(
            f"last 10% of trace varies by {(tail.max() - tail.min()) / plateau:.3g} "
            "of the plateau (> 5%); signal not settled"
        )

    def first_crossing(thr: float) -> float:
        idx = np.nonzero(y >= thr)[0]
        if idx.size == 0:
            raise NoPlateau(f"signal never reaches {thr:.3g}")
        i = idx[0]
        if i == 0:
            return float(t[0])
        frac = (thr - y[i - 1]) / (y[i] - y[i - 1])
        return float(t[i - 1] + frac * (t[i] - t[i - 1]))

    return first_crossing(hi * plateau) - first_crossing(lo * plateau)


def wave_metrics(
    result: RunResult,
    cfg: ScenarioConfig,
    level: float = 0.5,
    lo: float = 0.1,
    hi: float = 0.9,
) -> WaveMetrics:
    """Combined extraction: front speed from snapshots, rise time from the
    first gauge, predictor widths from the material diffusivities. tau is
    NaN when there is no gauge or its trace never settles (NoPlateau); the
    front's speed stands without it."""
    p = cfg.material
    ft = track_front(result.snapshots, cfg.grid, level=level, gamma_max=p.saturation)
    tau = float("nan")
    if result.gauges:
        try:
            tau = measure_rise_time(result.gauges[0], lo=lo, hi=hi)
        except NoPlateau:
            pass
    return WaveMetrics(
        v_f=ft.v_f,
        tau=tau,
        delta1=predict_width(p.d1, ft.v_f),
        delta2=predict_width(p.d2, ft.v_f),
        fit_r2=ft.fit_r2,
    )


# -- small-lam limit study -----------------------------------------------------


@dataclass(frozen=True)
class LimitRow:
    lam: float
    dissipated: float
    energy_drift: float
    front_sharpness: float


@dataclass
class LimitStudyResult:
    rows: List[LimitRow]
    slope: float  # log-log slope of dissipation vs lam over the lam > 0 rows


def budget_imbalance(reports) -> float:
    """Max relative energy-budget residual over a run's reports:
    |(K+psi)(t) - (K+psi)(0) + dissipated - work| / peak(|K| + |psi|).
    The scale sums magnitudes because psi can be negative (the logistic
    potential is), and a peak of K + psi could then cancel to near 0."""
    kinetic, free = reports["kinetic"], reports["free_energy"]
    tot = kinetic + free
    resid = np.abs(tot - tot[0] + reports["dissipated"] - reports["boundary_work"])
    scale = float(np.max(np.abs(kinetic) + np.abs(free)))
    return float(np.max(resid)) / scale if scale > 0 else float(np.max(resid))


def clifton_limit_study(base_cfg: ScenarioConfig, lambdas: Sequence[float]) -> LimitStudyResult:
    """Re-run one scenario across dissipation coefficients, holding d1 fixed
    (so conductivity lam*d1 vanishes with lam). lam = 0 entries run
    Clifton's conservative limit, the same integrator with the damage field
    frozen, so the rows are one discretisation's limit. Cumulative
    dissipation scales linearly in lam because the damage trajectory itself
    is lam-independent over this family (pure diffusion with diffusivity d1).
    """
    rows: List[LimitRow] = []
    for lam in lambdas:
        mat = replace(base_cfg.material, lam=float(lam))
        result = run(replace(base_cfg, material=mat))
        reports = result.reports
        gamma = result.state.gamma
        sharp = float(np.max(np.abs(np.diff(gamma)))) / base_cfg.grid.dx if gamma.size > 1 else 0.0
        rows.append(
            LimitRow(
                lam=float(lam),
                dissipated=float(reports["dissipated"][-1]),
                energy_drift=budget_imbalance(reports),
                front_sharpness=sharp,
            )
        )
    pos = [(r.lam, r.dissipated) for r in rows if r.lam > 0 and r.dissipated > 0]
    if len(pos) >= 2:
        ls, ds = np.log(np.array([p[0] for p in pos])), np.log(np.array([p[1] for p in pos]))
        slope = float(np.polyfit(ls, ds, 1)[0])
    else:
        slope = float("nan")
    return LimitStudyResult(rows=rows, slope=slope)


# -- comparison tables ---------------------------------------------------------


@dataclass(frozen=True)
class MaterialPreset:
    """Measured front data for one glass: speed, fitted diffusivity, and the
    experimentally reported rise time and front width."""

    name: str
    v_f: float  # m/s
    d1: float  # m^2/s
    tau_exp: float  # s
    delta1_exp: float  # m


MATERIAL_PRESETS = {
    "K8": MaterialPreset(name="K8", v_f=3320.0, d1=6.6, tau_exp=0.75e-6, delta1_exp=2.49e-3),
    "soda-lime": MaterialPreset(
        name="soda-lime", v_f=3090.0, d1=7.4, tau_exp=0.9e-6, delta1_exp=2.8e-3
    ),
}


@dataclass(frozen=True)
class TableRow:
    name: str
    v_f: float
    d1: float
    tau_pred: float
    tau_exp: float
    tau_rel_diff: float
    delta1_pred: float
    delta1_exp: float
    delta1_rel_diff: float


@dataclass
class TableReport:
    rows: List[TableRow]

    def to_text(self) -> str:
        lines = [
            f"{'material':<12} {'v_f m/s':>9} {'d1 m^2/s':>9} "
            f"{'tau_pred s':>12} {'tau_exp s':>12} {'dtau':>7} "
            f"{'w_pred m':>11} {'w_exp m':>11} {'dw':>7}"
        ]
        for r in self.rows:
            lines.append(
                f"{r.name:<12} {r.v_f:>9.0f} {r.d1:>9.2f} "
                f"{r.tau_pred:>12.3e} {r.tau_exp:>12.3e} {r.tau_rel_diff:>6.1%} "
                f"{r.delta1_pred:>11.3e} {r.delta1_exp:>11.3e} {r.delta1_rel_diff:>6.1%}"
            )
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        header = (
            "material,v_f,d1,tau_pred,tau_exp,tau_rel_diff,"
            "delta1_pred,delta1_exp,delta1_rel_diff"
        )
        lines = [header]
        for r in self.rows:
            vals = (
                r.v_f, r.d1, r.tau_pred, r.tau_exp, r.tau_rel_diff,
                r.delta1_pred, r.delta1_exp, r.delta1_rel_diff,
            )
            lines.append(r.name + "," + ",".join("%.17g" % v for v in vals))
        return "\n".join(lines) + "\n"


def table_report(presets: Optional[Sequence[MaterialPreset]] = None) -> TableReport:
    """Predictor-vs-experiment comparison for the shipped glass presets."""
    if presets is None:
        presets = list(MATERIAL_PRESETS.values())
    rows = []
    for ps in presets:
        tau_p = predict_tau(ps.d1, ps.v_f)
        w_p = predict_width(ps.d1, ps.v_f)
        rows.append(
            TableRow(
                name=ps.name,
                v_f=ps.v_f,
                d1=ps.d1,
                tau_pred=tau_p,
                tau_exp=ps.tau_exp,
                tau_rel_diff=abs(tau_p - ps.tau_exp) / ps.tau_exp,
                delta1_pred=w_p,
                delta1_exp=ps.delta1_exp,
                delta1_rel_diff=abs(w_p - ps.delta1_exp) / ps.delta1_exp,
            )
        )
    return TableReport(rows=rows)


# -- refinement study ----------------------------------------------------------


@dataclass
class ConvergenceStudy:
    """One scenario at successive refinement levels. errors holds per field
    ('U', 'gamma') the L2 error of each level against the exact solution,
    or the L2 norm of each successive difference; orders each field's
    observed order (none for a field whose finest differences are exactly
    0), and order the worst of them."""

    name: str
    resolutions: List[int]  # nx per level
    dxs: List[float]
    errors: Dict[str, List[float]]
    orders: Dict[str, float]
    order: float


def _l2(field: np.ndarray, grid) -> float:
    return math.sqrt(float(np.sum(field**2)) * grid.cell_volume)


def _coarsen(field: np.ndarray) -> np.ndarray:
    """Block mean onto the grid of twice the cell width: 2 cells in 1D,
    2x2 in 2D; a second-order cell-centred restriction."""
    blocks = sum(((n // 2, 2) for n in field.shape), ())
    return field.reshape(blocks).mean(axis=tuple(range(1, len(blocks), 2)))


def refinement_study(doc, levels: int = 3, exact: Optional[Callable] = None) -> ConvergenceStudy:
    """Run refine(doc, k) for k in range(levels) of a scenario document (YAML
    text or a mapping), space and dt halved together; estimate the order.

    exact(cfg) gives the exact final fields of a level, keyed 'U' and/or
    'gamma'; each field's order is the least-squares slope of log(L2 error)
    against log(dx). Without it, each level's final U and gamma are
    block-averaged onto the previous level's grid, and a field's order is
    log2 of the finest pair's difference ratio (Roache's three-level
    estimate); this needs levels >= 3 and raises TooFewLevels below that.
    Every level must stop at the same time, else InvalidValue.
    """
    need = 3 if exact is None else 2
    if levels < need:
        raise TooFewLevels(levels, f"this refinement study needs >= {need} levels")
    cfgs = [build_scenario(refine(doc, k)) for k in range(levels)]
    if len({_step_count(cfg) * cfg.dt for cfg in cfgs}) > 1:  # the final times run() reaches
        raise InvalidValue("time.t_end", "the levels would stop at different times; "
                                         "make it a whole number of the coarsest steps")
    finals = [run(cfg).state for cfg in cfgs]
    dxs = [cfg.grid.dx for cfg in cfgs]
    if exact is not None:
        exacts = [exact(cfg) for cfg in cfgs]
        errors = {name: [_l2(getattr(state, name) - fields[name], cfg.grid)
                         for cfg, state, fields in zip(cfgs, finals, exacts)]
                  for name in exacts[0]}
        orders = {name: float(np.polyfit(np.log(dxs), np.log(errs), 1)[0]) for name, errs in errors.items()}
    else:
        errors = {name: [_l2(getattr(coarse, name) - _coarsen(getattr(fine, name)), cfg.grid)
                         for cfg, coarse, fine in zip(cfgs, finals, finals[1:])]
                  for name in ("U", "gamma")}
        with np.errstate(divide="ignore"):
            orders = {name: float(np.log2(np.divide(d[-2], d[-1])))
                      for name, d in errors.items() if any(d[-2:])}
    worst = min(orders.values(), default=math.nan)
    return ConvergenceStudy(cfgs[0].name, [cfg.grid.nx for cfg in cfgs], dxs, errors, orders, worst)


def variance_growth_slope(d: float = 0.3, nx: int = 400, t_end: float = 2.0) -> tuple:
    """Fitted d(Var)/dt of a spreading pulse vs the exact 2*d.

    Mass and second moment are tracked from snapshots; the discrete scheme
    conserves mass exactly and grows the variance linearly, so the fit lands
    within a fraction of a percent of 2*d."""
    L = 40.0
    dx = L / nx
    cfg = build_scenario(
        {
            "name": "variance",
            "grid": {"nx": nx, "dx": dx, "origin": -L / 2},
            "material": {"rho0": 1.0, "c1": 1.0, "c2": 0.0, "lambda": 1.0, "d1": d},
            "time": {"dt": t_end / 100, "t_end": t_end},
            "ic": {"gamma": {"type": "gaussian", "amplitude": 1.0, "center": 0.0, "width": 0.5}},
            "bc": {"u_left": {"type": "fixed"}, "u_right": {"type": "fixed"}},
            "output": {"snapshots": 21},
        }
    )
    result = run(cfg)
    x = cfg.grid.axes[0].centers()
    times, variances = [], []
    for snap in result.snapshots:
        mass = float(np.sum(snap.gamma) * dx)
        mean = float(np.sum(x * snap.gamma) * dx) / mass
        var = float(np.sum((x - mean) ** 2 * snap.gamma) * dx) / mass
        times.append(snap.time)
        variances.append(var)
    slope = float(np.polyfit(times, variances, 1)[0])
    return slope, 2.0 * d
