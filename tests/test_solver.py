"""Time stepping: invariants, guards, limits, and coupling structure."""

import copy
import math
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import failwave as fw
from failwave import constitutive as cst
from failwave import ops, solver, variational
from failwave.model import MAX_DIFFUSION_NUMBER, SOURCE_LAWS

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def load_scenario(name):
    with open(os.path.join(SCENARIO_DIR, name)) as fh:
        return fw.build_scenario(fh.read())


def standing_doc(nx):
    return {
        "grid": {"nx": nx, "dx": 1.0 / nx},
        "material": {"rho0": 1.0, "c1": 1.0, "lambda": 1.0, "d1": 0.1},
        "time": {"dt": 0.5 / nx, "t_end": 0.3},
        "ic": {"U": {"type": "sine", "amplitude": 0.01, "mode": 1}},
        "bc": {"u_left": {"type": "fixed"}, "u_right": {"type": "fixed"},
               "gamma": {"type": "zero_flux"}},
        "output": {"snapshots": 2},
    }


def diffusion_doc(**over):
    doc = {
        "grid": {"nx": 64, "dx": 1.0 / 64},
        "material": {"rho0": 1.0, "c1": 1.0, "lambda": 1.0, "d1": 0.05},
        "time": {"dt": 0.001, "t_end": 0.1},
        "ic": {"gamma": {"type": "gaussian", "amplitude": 1.0, "center": 0.5,
                         "width": 0.08}},
        "bc": {"u_left": {"type": "fixed"}, "u_right": {"type": "fixed"},
               "gamma": {"type": "zero_flux"}},
    }
    doc.update(over)
    return doc


# -- elastic substep -----------------------------------------------------------


def test_standing_wave_second_order():
    errs = {}
    for nx in (32, 64):
        cfg = fw.build_scenario(standing_doc(nx))
        res = fw.run(cfg)
        x = cfg.grid.axes[0].centers()
        exact = 0.01 * np.cos(np.pi * res.state.time) * np.sin(np.pi * x)
        errs[nx] = float(np.max(np.abs(res.state.U - exact)))
    ratio = errs[32] / errs[64]
    assert 3.2 < ratio < 4.8, f"halving dx gave error ratio {ratio:.2f}"


def test_zero_state_is_fixed_point():
    doc = standing_doc(32)
    doc["ic"] = {}
    res = fw.run(fw.build_scenario(doc))
    assert np.all(res.state.U == 0.0)
    assert np.all(res.state.v == 0.0)
    assert np.all(res.state.gamma == 0.0)


def test_cfl_violation_raises():
    doc = standing_doc(32)
    doc["time"] = {"dt": 3.0 / 32, "t_end": 1.0}  # CFL = 3
    with pytest.raises(fw.CflViolation):
        fw.run(fw.build_scenario(doc))


def test_clifton_limit_conserves_energy():
    doc = {
        "grid": {"nx": 256, "dx": 1.0 / 256},
        "material": {"rho0": 1.0, "c1": 1.0, "lambda": 0.0, "d1": 0.2},
        "time": {"dt": 0.2 / 256, "t_end": 2.0},
        "ic": {"v": {"type": "gaussian", "amplitude": 1.0, "center": 0.5, "width": 0.08},
               "gamma": {"type": "gaussian", "amplitude": 0.4, "center": 0.5, "width": 0.1}},
        "bc": {"u_left": {"type": "periodic"}, "u_right": {"type": "periodic"},
               "gamma": {"type": "periodic"}},
    }
    res = fw.run(fw.build_scenario(doc))
    assert fw.budget_imbalance(res.reports) < 2e-5
    # the damage profile is frozen and nothing dissipates
    assert res.reports["dissipated"][-1] == 0.0
    assert np.array_equal(res.state.gamma, fw.initialize_state(fw.build_scenario(doc)).gamma)


def _clifton_bar(left, nx, length, cfl, t_end, ny=None):
    grid = {"nx": nx, "dx": length / nx}
    if ny is not None:
        grid.update(ny=ny, dy=length / nx)
    return fw.build_scenario({
        "grid": grid,
        "material": {"rho0": 1.0, "c1": 1.0, "lambda": 0.0},
        "time": {"dt": cfl * length / nx, "t_end": t_end},
        "bc": {"u_left": left, "u_right": {"type": "fixed"}, "gamma": {"type": "zero_flux"}},
    })


def test_clifton_limit_honours_driven_walls():
    # a velocity wall moves the bar with it: the wall cell, half a cell in,
    # trails the wall displacement v*t by about v*dx/(2c)
    res = fw.run(_clifton_bar({"type": "velocity", "value": 0.1}, 200, 2.0, 0.5, 1.0))
    assert res.state.U[0] == pytest.approx(0.1 * res.state.time, rel=1e-2)
    # a traction wall does work, and the budget books it; the load switched
    # on at t = 0 leaves a first-order start-up residual (5.3e-5 here)
    res = fw.run(_clifton_bar({"type": "traction", "value": -0.05}, 1024, 1.0, 0.5, 1.0))
    assert res.reports["boundary_work"][-1] == pytest.approx(0.05 * 0.05, rel=1e-2)
    assert fw.budget_imbalance(res.reports) < 1e-4


@pytest.mark.parametrize("ny, nx, t_end", [(None, 128, 1.0), (8, 64, 0.5)], ids=["1d", "2d"])
def test_traction_wall_work_closes_at_second_order(ny, nx, t_end):
    # the wall's power uses the adjacent cell's velocity, the boundary value
    # of the summation-by-parts pair, so under a smooth (ramped) load the
    # budget residual shrinks about 4x per halving of dx (a two-cell
    # extrapolated wall velocity gives about 2x)
    load = {"type": "traction", "value": -0.05, "ramp": 0.1}
    coarse, fine = (
        fw.budget_imbalance(fw.run(_clifton_bar(load, n, 1.0, 0.5, t_end, ny)).reports)
        for n in (nx, 2 * nx)
    )
    assert coarse / fine >= 3.5, (coarse, fine)


@pytest.mark.parametrize("ny, sizes", [(None, (128, 256, 512)), (8, (64, 128, 256))], ids=["1d", "2d"])
def test_traction_shutoff_unloads_the_wall(ny, sizes):
    # past `until` the traction face is free: its stress reads 0 and the
    # boundary work stops growing. The load's jump to 0 leaves a first-order
    # budget residual, as a load switched on at t = 0 does (ratios near 2.05)
    load = {"type": "traction", "value": -0.05, "ramp": 0.1, "until": 0.5}
    cfg = _clifton_bar(load, sizes[0], 1.0, 0.5, 1.0, ny)
    plan, state = solver.ElasticPlan(cfg), fw.initialize_state(cfg)
    for t, S in ((0.5, -0.05), (0.5 + cfg.dt, 0.0)):
        plan.level(state.U, state.gamma, t)
        assert np.all(plan.S[..., 0] == S), t
    residuals = []
    for n in sizes:
        reports = fw.run(_clifton_bar(load, n, 1.0, 0.5, 1.0, ny)).reports
        work = reports["boundary_work"][reports["time"] > 0.5]
        assert work[0] > 0.0 and np.all(work == work[0]), n
        residuals.append(fw.budget_imbalance(reports))
    for coarse, fine in zip(residuals, residuals[1:]):
        assert coarse / fine >= 1.8, residuals


def _body_force_doc(kind, dt):
    grid, center = {"nx": 64, "dx": 1.0 / 64}, 0.5
    bc = {"u_left": {"type": "fixed"}, "u_right": {"type": "free"}, "gamma": {"type": "zero_flux"}}
    if kind == "ring":
        bc = {"u_left": {"type": "periodic"}, "u_right": {"type": "periodic"}, "gamma": {"type": "periodic"}}
    if kind == "sheet":
        grid, center = {"nx": 32, "ny": 8, "dx": 1.0 / 32, "dy": 1.0 / 32}, [0.5, 0.125]
    return {"grid": grid, "body_force": 1.0, "bc": bc,
            "material": {"rho0": 2.0, "c1": 1.0, "lambda": 1.0, "c2": 1.0, "b": 0.3, "d1": 0.1},
            "time": {"dt": dt, "t_end": 0.5},
            "ic": {"gamma": {"type": "gaussian", "amplitude": 0.5, "center": center, "width": 0.1}}}


@pytest.mark.parametrize("kind", ["bar", "ring", "sheet"])
def test_body_force_work_closes_at_second_order(kind):
    # boundary_work books the body force's power rho0*r*vol*sum(v) in the
    # walls' trapezoid, so the budget residual shrinks about 4x per halving
    # of dt; unbooked, it stayed near 1 at every dt
    coarse, fine = (fw.budget_imbalance(fw.run(fw.build_scenario(_body_force_doc(kind, dt))).reports)
                    for dt in (5e-3, 2.5e-3))
    assert coarse / fine >= 3.5, (coarse, fine)


# -- damage substep ------------------------------------------------------------


def test_uniform_decay_matches_ode():
    # spatially uniform gamma: d gamma/dt = -(c2/lam) gamma exactly
    doc = diffusion_doc(
        material={"rho0": 1.0, "c1": 1.0, "c2": 2.0, "lambda": 1.0, "d1": 0.05},
        ic={"gamma": {"type": "constant", "value": 0.5}},
        time={"dt": 0.01, "t_end": 1.0},
    )
    res = fw.run(fw.build_scenario(doc))
    exact = 0.5 * np.exp(-2.0 * res.state.time)
    assert np.max(np.abs(res.state.gamma - exact)) / exact < 1e-4


def test_gamma_zero_is_logistic_fixed_point():
    doc = diffusion_doc(
        material={"rho0": 1.0, "c1": 1.0, "lambda": 1.0, "d1": 1.0,
                  "source": {"law": "logistic", "rate": 5.0, "gamma_max": 1.0}},
        ic={},
    )
    res = fw.run(fw.build_scenario(doc))
    assert np.all(res.state.gamma == 0.0)


def test_coupled_run_with_zero_lambda_raises():
    # lambda = 0 is the conservative limit: a damage potential (c2 > 0) there
    # could not dissipate, so the parameters are refused when they are built,
    # replace() included; without one the damage field stays frozen
    mat = {"rho0": 1.0, "c1": 1.0, "c2": 1.0, "lambda": 0.0, "d1": 0.05}
    with pytest.raises(fw.ConfigConflict):
        fw.build_scenario(diffusion_doc(material=mat))
    cfg = fw.build_scenario(diffusion_doc(material=dict(mat, **{"lambda": 1.0})))
    with pytest.raises(fw.ConfigConflict):
        replace(cfg.material, lam=0.0)
    cfg = fw.build_scenario(diffusion_doc(material=dict(mat, c2=0.0)))
    res = fw.run(cfg)
    assert np.array_equal(res.state.gamma, fw.initialize_state(cfg).gamma)
    assert not res.state.active.any() and np.all(res.reports["dissipated"] == 0.0)


def test_logistic_clamp_leaves_inactive_cells_alone():
    # the logistic law clamps active damage at 0; an inactive cell keeps its
    # value, negative or not, so the budget still closes
    doc = diffusion_doc(
        material={"rho0": 1.0, "c1": 1.0, "lambda": 1.0, "d1": 0.01, "sigma0": 1e6,
                  "source": {"law": "logistic", "rate": 2.0}},
        ic={"gamma": {"type": "sine", "amplitude": 0.3, "mode": 2}},
        time={"dt": 0.01, "t_end": 0.5},
    )
    cfg = fw.build_scenario(doc)
    init = fw.initialize_state(cfg)
    res = fw.run(cfg)
    off = ~res.state.active
    assert (init.gamma[off] < 0.0).all() and off.sum() == 32
    assert np.array_equal(res.state.gamma[off], init.gamma[off])
    assert fw.budget_imbalance(res.reports) < 1e-4


def test_1d_damage_step_solves_once_at_any_iteration_cap():
    # a 1D step solves its linear system exactly with one line solve, so the
    # iteration cap never binds: kpp_front's first 50 steps are bit for bit
    # the same at source_max_iter 1 as at the default 30
    doc = fw.scenario_to_dict(load_scenario("kpp_front.yaml"))
    doc["time"]["t_end"] = 50 * doc["time"]["dt"]
    one, default = (fw.run(fw.build_scenario(doc | {"numerics": {"source_max_iter": cap}}))
                    for cap in (1, 30))
    assert len(one.reports) == 51
    assert one.reports.tobytes() == default.reports.tobytes()
    for field in ("U", "v", "gamma", "active"):
        assert getattr(one.state, field).tobytes() == getattr(default.state, field).tobytes()
    for a, b in zip(one.gauges + one.snapshots, default.gauges + default.snapshots, strict=True):
        for key, value in vars(a).items():
            assert np.asarray(value).tobytes() == np.asarray(getattr(b, key)).tobytes(), key


def test_unconverged_2d_defect_correction_raises_typed_error():
    # a source-free 2D step still iterates its defect correction, which one
    # correction cannot finish; the same typed error reports it
    doc = diffusion_doc(grid={"nx": 8, "ny": 6, "dx": 0.125, "dy": 0.125},
                        ic={"gamma": {"type": "gaussian", "amplitude": 1.0,
                                      "center": [0.5, 0.4], "width": 0.2}},
                        numerics={"source_max_iter": 1})
    with pytest.raises(fw.PicardNotConverged) as exc:
        fw.run(fw.build_scenario(doc))
    assert exc.value.iterations == 1
    assert str(exc.value).startswith("2D damage defect correction did not converge at t=0.001: ")
    assert str(exc.value).endswith(" after 1 corrections")
    assert exc.value.state is not None and exc.value.state.gamma.shape == (6, 8)
    doc["numerics"] = {}
    assert fw.run(fw.build_scenario(doc)).state.time == pytest.approx(0.1)


def test_admissibility_violation_carries_the_state():
    # negative seed damage, lifted by the clamp at zero against its own
    # driving force: Z*dGamma/dt < 0 on the first step
    doc = diffusion_doc(material={"rho0": 1.0, "c1": 1.0, "lambda": 1.0, "d1": 0.1,
                                  "source": {"law": "logistic", "rate": 1.0, "gamma_max": 1.0}},
                        time={"dt": 0.01, "t_end": 0.1},
                        ic={"gamma": {"type": "step", "left": -0.2, "right": 0.0, "at": 0.5}})
    with pytest.raises(fw.AdmissibilityViolation) as exc:
        fw.run(fw.build_scenario(doc))
    err = exc.value
    assert err.time == pytest.approx(0.01) and err.value < 0.0
    assert err.state is not None  # offending state rides along for forensics
    assert err.state.gamma.shape == (64,) and err.state.gamma.min() == 0.0


def test_non_finite_damage_state_raises_typed_error(monkeypatch):
    # a NaN in the damage: the plan's step only raises (on its right-hand
    # side); a run meets it first in level 0's free_energy column and
    # attaches a copy of that level
    cfg = fw.build_scenario(diffusion_doc())
    state = fw.initialize_state(cfg)
    state.gamma[10] = np.nan
    eps = ops.strain_faces(state.U, cfg.grid, cfg.bc, 0.0)
    with pytest.raises(fw.NonFiniteState, match="damage right-hand side") as exc:
        solver.DamagePlan(cfg, state.active).step(state.copy(), eps)
    assert exc.value.state is None
    monkeypatch.setattr(solver, "initialize_state", lambda _: state)
    with pytest.raises(fw.NonFiniteState, match="free_energy column") as exc:
        fw.run(cfg)
    assert exc.value.state.time == 0.0 and np.isnan(exc.value.state.gamma[10])
    assert exc.value.state.gamma is not state.gamma


@pytest.mark.parametrize("c3", [1.0, 0.0], ids=["cubic", "linear"])
def test_nan_displacement_raises_typed_error(monkeypatch, c3):
    # at c3 != 0 a NaN strain makes the Courant number NaN, which a `>` test
    # passes, so the plan's step raises on it (and only raises); at c3 = 0
    # the Courant number reads no strain. A run checks level 0's row before
    # any step, so at either c3 its free_energy column is the first value
    # to turn NaN, and the run attaches a copy of that level
    doc = standing_doc(32)
    doc["material"]["c3"] = c3
    cfg = fw.build_scenario(doc)
    state = fw.initialize_state(cfg)
    state.U[5] = np.nan
    if c3:
        plan = solver.ElasticPlan(cfg)
        plan.level(state.U, state.gamma, 0.0)
        with pytest.raises(fw.NonFiniteState, match="Courant number") as exc:
            plan.step(state.copy(), cfg.dt)
        assert exc.value.state is None
    monkeypatch.setattr(solver, "initialize_state", lambda _: state)
    with pytest.raises(fw.NonFiniteState, match="free_energy column") as exc:
        fw.run(cfg)
    assert exc.value.state.time == 0.0
    assert np.isnan(exc.value.state.U[5]) and exc.value.state.U is not state.U


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_overflowing_kinetic_energy_raises_typed_error(lam):
    # rho0*v^2 overflows: the kinetic column read inf and the budget NaN
    doc = {
        "grid": {"nx": 16, "dx": 1.0 / 16},
        "material": {"rho0": 1e308, "c1": 1.0, "lambda": lam, "d1": 0.1},
        "time": {"dt": 0.01, "t_end": 0.1},
        "ic": {"v": {"type": "sine", "amplitude": 10.0, "mode": 1}},
        "bc": {"u_left": {"type": "periodic"}, "u_right": {"type": "periodic"},
               "gamma": {"type": "periodic"}},
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(fw.NonFiniteState, match="kinetic") as exc:
            fw.run(fw.build_scenario(doc))
    # the typed error is the whole report: numpy prints no overflow warning
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert exc.value.state.time == 0.0
    assert exc.value.state.v.max() == pytest.approx(10.0, rel=0.05)


def test_overflowing_dissipation_raises_typed_error():
    # lam = 1e-300 at dt = 1e-300: dGamma/dt near 1e300 squares into
    # overflow in the dissipation rate, and the dissipated column reads inf;
    # at dt = 5e-324 dGamma/dt itself overflows in the division, so the
    # audit product Z*dGamma/dt is +inf in every cell and the
    # min_Z_gammadot column, checked first, reads inf
    for lam, dt, column in ((1e-300, 1e-300, "dissipated"), (1e-310, 5e-324, "min_Z_gammadot")):
        doc = {
            "grid": {"nx": 16, "dx": 1.0 / 16},
            "material": {"rho0": 1.0, "c1": 1.0, "lambda": lam, "c2": 1.0},
            "time": {"dt": dt, "t_end": 10 * dt},
            "ic": {"gamma": {"type": "sine", "amplitude": 0.5, "mode": 1}},
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(fw.NonFiniteState, match=f"{column} column") as exc:
                fw.run(fw.build_scenario(doc))
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == [], dt
        assert exc.value.state.time == dt  # the first step
        assert not np.array_equal(exc.value.state.gamma, fw.initialize_state(fw.build_scenario(doc)).gamma)


def test_diffusion_number_limit_on_both_sides():
    # a 16-cell zero-flux bar of sine damage, lam 1, dt 0.1, dx 1: its
    # diffusion number is d1/10. Just below MAX_DIFFUSION_NUMBER (4.7e7) it
    # runs clean with no numpy warning; just above, and where the factor's
    # roundoff broke the run (an AdmissibilityViolation from d1 1e15 and
    # NonFiniteState("damage operator (not positive definite ...)") at 1e18,
    # neither naming a key), build_scenario refuses it naming grid.dx
    assert 4.7e7 < MAX_DIFFUSION_NUMBER < 4.8e7

    def bar(d1):
        return {"grid": {"nx": 16, "dx": 1.0},
                "material": {"rho0": 1.0, "c1": 1.0, "lambda": 1.0, "d1": d1},
                "time": {"dt": 0.1, "t_end": 1.0},
                "ic": {"gamma": {"type": "sine", "amplitude": 0.5, "mode": 1}},
                "bc": {"u_left": {"type": "fixed"}, "u_right": {"type": "fixed"},
                       "gamma": {"type": "zero_flux"}}}

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = fw.run(fw.build_scenario(bar(4.7e8)))
    assert res.reports["max_diff"][-1] == 4.7e7 and np.isfinite(res.state.gamma).all()
    for d1 in (4.8e8, 1e15, 1e16, 1e18):
        with pytest.raises(fw.InvalidValue) as exc:
            fw.build_scenario(bar(d1))
        assert exc.value.name == "grid.dx"


def test_courant_number_resolved_once_at_constant_wave_speed():
    # at c3 = 0 every step reports the plan's sqrt(c1/rho0)*dt/dx, and a dt
    # just over the limit is still refused at step 1, the state untouched
    doc = standing_doc(32)
    doc["material"].update(c1=3.0, rho0=1.5)
    cfg = fw.build_scenario(doc)
    rows = fw.run(cfg).reports["max_cfl"]
    assert rows[0] == 0.0 and np.all(rows[1:] == math.sqrt(3.0 / 1.5) * cfg.dt / cfg.grid.dx)
    doc["time"]["dt"] = 1.000001 / (32 * math.sqrt(2.0))
    cfg = fw.build_scenario(doc)
    state = fw.initialize_state(cfg)
    steps = solver._coupled_steps(state, cfg, solver.ElasticPlan(cfg))
    next(steps)  # level 0
    before = state.copy()
    with pytest.raises(fw.CflViolation) as exc:
        next(steps)
    assert state.time == 0.0
    assert np.array_equal(state.U, before.U) and np.array_equal(state.v, before.v)
    # the error carries a copy of the level before the step
    assert exc.value.state is not state and exc.value.state.time == 0.0
    for field in ("U", "v", "gamma", "active"):
        attached = getattr(exc.value.state, field)
        assert attached.tobytes() == getattr(before, field).tobytes(), field
        assert not np.shares_memory(attached, getattr(state, field)), field


@pytest.mark.parametrize("field", ["min_Z_gammadot", "peak_Z_gammadot"])
def test_nan_audit_raises_typed_error(monkeypatch, field):
    # a NaN in one cell's midpoint flux, and so in Z*dGamma/dt, raises the
    # NaN error, not an admissibility violation, at step 1 (no peak held
    # yet) or at step 3 (a peak held, which max(peak, nan) keeps), with the
    # step's new damage attached
    poisoned_step = {"min_Z_gammadot": 1, "peak_Z_gammadot": 3}[field]
    level, calls = solver.DamagePlan.level, []

    def poisoned(self, gamma):
        out = level(self, gamma)
        calls.append(1)
        if len(calls) > poisoned_step:  # call 1 is level 0, call k + 1 step k's
            self.flux[10] = float("nan")
        return out

    cfg = fw.build_scenario(diffusion_doc())
    clean = fw.run(replace(cfg, t_end=poisoned_step * cfg.dt)).state
    monkeypatch.setattr(solver.DamagePlan, "level", poisoned)
    with pytest.raises(fw.NonFiniteState, match="admissibility audit") as exc:
        fw.run(cfg)
    assert exc.value.state.time == poisoned_step * cfg.dt
    assert np.array_equal(exc.value.state.gamma, clean.gamma)


def _broken_run(case, monkeypatch):
    """(cfg, error type, message, step) of a run that breaks its contract
    one way: step is the level whose time the attached state holds."""
    if case == "cfl":  # dt just over the Courant limit
        doc = standing_doc(32)
        doc["time"]["dt"] = 1.000001 / 32
        return fw.build_scenario(doc), fw.CflViolation, "CFL violation", 0
    if case == "admissibility":  # as in test_admissibility_violation_carries_the_state
        doc = diffusion_doc(material={"rho0": 1.0, "c1": 1.0, "lambda": 1.0, "d1": 0.1,
                                      "source": {"law": "logistic", "rate": 1.0, "gamma_max": 1.0}},
                            time={"dt": 0.01, "t_end": 0.1},
                            ic={"gamma": {"type": "step", "left": -0.2, "right": 0.0, "at": 0.5}})
        return fw.build_scenario(doc), fw.AdmissibilityViolation, "admissibility violated", 1
    if case == "picard":  # one 2D correction cannot finish a step
        doc = diffusion_doc(grid={"nx": 8, "ny": 6, "dx": 0.125, "dy": 0.125},
                            ic={"gamma": {"type": "gaussian", "amplitude": 1.0,
                                          "center": [0.5, 0.4], "width": 0.2}},
                            numerics={"source_max_iter": 1})
        return fw.build_scenario(doc), fw.PicardNotConverged, "did not converge", 1
    if case == "kinetic":  # rho0*v^2 overflows at level 0
        doc = {"grid": {"nx": 16, "dx": 1.0 / 16},
               "material": {"rho0": 1e308, "c1": 1.0, "lambda": 1.0, "d1": 0.1},
               "time": {"dt": 0.01, "t_end": 0.1},
               "ic": {"v": {"type": "sine", "amplitude": 10.0, "mode": 1}},
               "bc": {"u_left": {"type": "periodic"}, "u_right": {"type": "periodic"},
                      "gamma": {"type": "periodic"}}}
        return fw.build_scenario(doc), fw.NonFiniteState, "kinetic column", 0
    if case == "audit":  # a NaN midpoint flux at step 1, as in test_nan_audit_raises_typed_error
        level, calls = solver.DamagePlan.level, []

        def poisoned(self, gamma):
            out = level(self, gamma)
            calls.append(1)
            if len(calls) > 1:  # call 1 is level 0, call 2 step 1's
                self.flux[10] = float("nan")
            return out

        monkeypatch.setattr(solver.DamagePlan, "level", poisoned)
        return fw.build_scenario(diffusion_doc()), fw.NonFiniteState, "admissibility audit", 1
    if case == "min_Z_gammadot":  # Z*dGamma/dt overflows to +inf in every cell, which the audit passes
        doc = {"grid": {"nx": 16, "dx": 1e-10},
               "material": {"rho0": 1.0, "c1": 1.0, "lambda": 1e10, "c2": 1e20},
               "time": {"dt": 1e-11, "t_end": 1e-10},
               "ic": {"gamma": {"type": "constant", "value": 1e140}}}
        return fw.build_scenario(doc), fw.NonFiniteState, "min_Z_gammadot column", 1
    # boundary_work: on a traction bar it overflows only with kinetic, so inject it
    monkeypatch.setattr(solver.ElasticPlan, "wall_power", lambda self, v: math.inf)
    return fw.build_scenario(standing_doc(32)), fw.NonFiniteState, "boundary_work column", 1


@pytest.mark.parametrize("case", ["cfl", "admissibility", "picard", "kinetic", "audit",
                                  "min_Z_gammadot", "boundary_work"])
@pytest.mark.parametrize("entry", ["run", "record_trajectory"])
def test_runtime_violation_carries_a_copy_of_the_state_at_the_raise(monkeypatch, entry, case):
    # every way a run breaks its contract, through either driver of the run
    # loop, raises its typed error with .state: a copy of the state as the
    # raise left it (nothing moves it after the raise), sharing no memory
    cfg, error, message, step = _broken_run(case, monkeypatch)
    live = []

    def initialize(c):
        live.append(fw.initialize_state(c))
        return live[-1]

    monkeypatch.setattr(solver, "initialize_state", initialize)
    monkeypatch.setattr(variational, "initialize_state", initialize)
    with pytest.raises(error, match=message) as exc:
        getattr(fw, entry)(cfg)
    (state,), attached = live, exc.value.state
    assert isinstance(attached, fw.FieldState) and attached is not state
    assert attached.time == state.time == step * cfg.dt
    for field in ("U", "v", "gamma", "active"):
        assert getattr(attached, field).tobytes() == getattr(state, field).tobytes(), field
        assert not np.shares_memory(getattr(attached, field), getattr(state, field)), field


def test_damage_plan_step_books_the_dissipation_rate():
    # the budget's dissipated increment is the dissipation rate of the step's
    # dGamma/dt, summed over the cells and multiplied by the step
    cfg = fw.build_scenario(diffusion_doc())
    state = fw.initialize_state(cfg)
    before = state.gamma.copy()
    eps = ops.strain_faces(state.U, cfg.grid, cfg.bc, 0.0)
    _, dissipated = solver.DamagePlan(cfg, state.active).step(state, eps)
    rate = fw.dissipation_rate((state.gamma - before) / cfg.dt, cfg.material)
    assert dissipated == float(rate.sum() * cfg.grid.cell_volume) * cfg.dt
    assert dissipated > 0.0


def test_dissipated_energy_linear_in_lambda():
    # c2 = 0, no source: gamma rate is d1 * Laplacian(gamma), lambda-free,
    # so the dissipated integral lam * rate^2 scales exactly linearly
    ratios = []
    for lam in (1e-6, 1e-5, 1e-4):
        doc = diffusion_doc()
        doc["material"]["lambda"] = lam
        res = fw.run(fw.build_scenario(doc))
        ratios.append(res.reports["dissipated"][-1] / lam)
    spread = (max(ratios) - min(ratios)) / max(ratios)
    assert spread < 1e-9, f"dissipated/lambda spread {spread:.2e}"


# -- activation threshold --------------------------------------------------------



def test_damage_mass_is_conserved_on_a_diffusing_ring():
    # on the ring at lam = 1e-3 the damage law is pure diffusion, which
    # conserves sum(Γ) exactly; the increment form keeps it to roundoff,
    # at most eps per step
    cfg = load_scenario("clifton_pulse.yaml")
    nsteps = 500
    cfg = replace(cfg, material=replace(cfg.material, lam=1e-3), t_end=nsteps * cfg.dt)
    mass0 = fw.initialize_state(cfg).gamma.sum()
    mass = fw.run(cfg).state.gamma.sum()
    assert abs(mass - mass0) <= nsteps * np.finfo(float).eps * abs(mass0)

def test_subthreshold_pulse_never_activates():
    doc = {
        "grid": {"nx": 100, "dx": 0.01},
        "material": {"rho0": 1.0, "c1": 1.0, "lambda": 1.0, "d1": 0.1,
                     "sigma0": 2.0, "c2": 1.0},
        "time": {"dt": 0.005, "t_end": 0.3},
        "ic": {},
        "bc": {"u_left": {"type": "traction", "value": -1.0},
               "u_right": {"type": "free"}, "gamma": {"type": "zero_flux"}},
    }
    res = fw.run(fw.build_scenario(doc))
    assert not res.state.active.any()
    assert np.all(res.state.gamma == 0.0)
    assert res.reports["dissipated"][-1] == 0.0


def test_strong_pulse_spreads_activation():
    doc = {
        "grid": {"nx": 100, "dx": 0.01},
        "material": {"rho0": 1.0, "c1": 1.0, "lambda": 1.0, "d1": 0.1,
                     "sigma0": 0.5, "c2": 1.0},
        "time": {"dt": 0.005, "t_end": 0.3},
        "ic": {},
        "bc": {"u_left": {"type": "traction", "value": -2.0},
               "u_right": {"type": "free"}, "gamma": {"type": "zero_flux"}},
    }
    res = fw.run(fw.build_scenario(doc))
    n_active = int(res.state.active.sum())
    # the wave has crossed ~30% of the bar; cells behind it saw |S| >= sigma0
    assert 10 < n_active < 60
    assert res.state.active[:10].all()
    assert not res.state.active[-10:].any()


def _activation_bar(load=None, **material):
    """A 120-cell glass bar: a wave from the loaded end switches cells on
    behind a damaged skin there, every other step or so."""
    mat = {"rho0": 2500.0, "c1": 7.0e10, "lambda": 1.0, "d1": 6.6, "sigma0": 2.0e9,
           "source": {"law": "logistic", "rate": 4.0e5, "gamma_max": 1.0}}
    mat.update(material)
    return {
        "grid": {"nx": 120, "dx": 5.0e-5},
        "material": mat,
        "time": {"dt": 4.7246e-9, "t_end": 4.7246e-9 * 160},
        "ic": {"gamma": {"type": "step", "left": 0.3, "right": 0.0, "at": 5.0e-4}},
        "bc": {"u_left": load or {"type": "traction", "value": -4.0e9},
               "u_right": {"type": "free"}, "gamma": {"type": "dirichlet", "value": 0.3}},
    }


def _activation_sheet():
    """_activation_bar on 4 rows with a cubic stress, and a velocity pulse
    that varies across the rows."""
    doc = _activation_bar(c3=2.0e12, d2=3.3)
    doc["grid"] = {"nx": 120, "ny": 4, "dx": 5.0e-5, "dy": 5.0e-4}
    doc["ic"]["v"] = {"type": "gaussian", "amplitude": -40.0, "center": [1.0e-3, 1.0e-3],
                      "width": [2.0e-4, 1.0e-3]}
    doc["gauges"] = [[1.0e-3, 2.5e-4], [3.0e-3, 1.75e-3]]
    return doc


def _standalone_cases():
    linear = _activation_bar(b=1.0e9, c2=1.0e9, source={"law": "linear_decay"})
    cases = {
        "traction": _activation_bar({"type": "traction", "value": -4.0e9}),
        "velocity": _activation_bar({"type": "velocity", "value": -200.0}),
        "linear": linear,
        "2d": _activation_sheet(),
    }
    for doc in cases.values():
        doc.setdefault("gauges", [1.0e-3, 3.0e-3])
    return cases


def _summation_bound(*terms):
    """The most two sums of the same terms (arrays) can differ: 2n*eps*S
    for n terms whose magnitudes sum to S. Summed in any order, n terms
    carry an error of at most (n - 1)u*S, u = eps/2 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 2002, §4.2), so two orders
    differ by (n - 1)eps*S; the remaining (n + 1)eps*S covers each term's
    own few roundings when its factors are grouped differently. A product
    that underflows errs by up to half the smallest subnormal instead
    (Higham §2.1), so each term adds 4 of those per sum."""
    n = sum(np.size(t) for t in terms)
    scale = sum(float(np.abs(t).sum()) for t in terms)
    return 2 * n * (np.finfo(float).eps * scale + 4 * np.finfo(float).smallest_subnormal)


def _gradient_terms(cfg, gamma, active):
    """The damage-gradient terms of cst.damage_free_energy, one array of
    faces per grid axis."""
    p, grid, bc_g = cfg.material, cfg.grid, cfg.bc["gamma"]
    K = ops.grid_conductivity(active, (p.k1, p.k2), grid, bc_g)
    w_gamma = ops.energy_weights(cfg.bc, grid)[1]
    return [0.5 * ax.view(Ka) * ops.gamma_grad_faces(ax.view(gamma), ax.h, bc_g)**2 * w * ax.across
            for ax, Ka, w in zip(grid.axes, K, w_gamma)]


def _free_energy_terms(cfg, U, gamma, t, active):
    """The terms cst.total_free_energy sums at the level: the quadratic and
    quartic strain terms on the x faces, the gradient terms on each axis's
    faces, the potential and cross terms in the cells."""
    p, grid, bc = cfg.material, cfg.grid, cfg.bc
    eps = ops.strain_faces(U, grid, bc, t)
    w = ops.energy_weights(bc, grid)[0] * grid.axes[0].across
    u2 = eps * eps
    faces = [0.5 * p.c1 * u2 * w] + ([0.25 * p.c3 * u2 * u2 * w] if p.c3 else [])
    cells = [cst.damage_potential(gamma, p)] + ([p.b * ops.face_mean(eps) * gamma] if p.b else [])
    return faces + _gradient_terms(cfg, gamma, active) + [c * grid.cell_volume for c in cells]


# a velocity wall's strain reads the clock: the run builds level k at k*dt,
# which (k-1)*dt + dt can round off, so the loop passes the same time
@pytest.mark.parametrize("case", ["traction", "velocity", "linear", "2d"])
def test_run_equals_a_loop_of_standalone_steps(case):
    # the run keeps one elastic and one damage plan, evaluates the cell
    # stress only at the gauges (and wherever activation needs it), and keeps
    # the damage operator while no cell switches on; here fresh plans of the
    # current level and the reference functions compute everything afresh
    cfg = fw.build_scenario(_standalone_cases()[case])
    p = cfg.material
    res = fw.run(cfg)
    state = fw.initialize_state(cfg)
    switched = 0
    for k in range(1, len(res.reports)):
        elastic = solver.ElasticPlan(cfg)
        elastic.level(state.U, state.gamma, state.time)
        elastic.step(state, k * cfg.dt)
        state.time = k * cfg.dt
        eps = ops.strain_faces(state.U, cfg.grid, cfg.bc, state.time)
        uX = ops.face_mean(eps)
        active = state.active | (np.abs(fw.stress(uX, state.gamma, p)) >= p.sigma0)
        switched += int(active.sum() > state.active.sum())
        state.active = active
        solver.DamagePlan(cfg, state.active).step(state, eps)  # nothing left to switch on
    assert switched > 40
    for field in ("U", "v", "gamma", "active"):
        assert np.array_equal(getattr(state, field), getattr(res.state, field)), field
    S = fw.stress(uX, state.gamma, p)
    for trace in res.gauges:
        assert trace.S[-1] == S[trace.cell]
    # the run sums each free energy term as one dot product over the faces
    # or cells that hold it, the reference function in its own order; the
    # kinetic energy is the same dot over every cell
    last = res.reports[-1]
    free = fw.total_free_energy(state.U, state.gamma, p, cfg.grid, cfg.bc, state.time, state.active)
    terms = _free_energy_terms(cfg, state.U, state.gamma, state.time, state.active)
    assert abs(last["free_energy"] - free) <= _summation_bound(*terms)
    v = state.v.ravel()
    assert last["kinetic"] == 0.5 * p.rho0 * cfg.grid.cell_volume * float(np.dot(v, v))


def test_damage_operator_is_factored_once_per_active_set(monkeypatch):
    calls, solves = [], []
    factor, solve = ops.factor_lines, ops.solve_lines
    monkeypatch.setattr(ops, "factor_lines", lambda *args: calls.append(1) or factor(*args))
    monkeypatch.setattr(ops, "solve_lines", lambda *args: solves.append(1) or solve(*args))

    # a constant slope (linear_decay) on a growing active set: one factor for
    # the initial cells, then one for each step that switches a cell on
    linear = _activation_bar(b=1.0e9, c2=1.0e9, source={"law": "linear_decay"})
    traj = fw.record_trajectory(fw.build_scenario(linear))
    grew = [k for k in range(1, len(traj.times)) if (traj.active[k] != traj.active[k - 1]).any()]
    assert len(grew) > 40
    assert len(calls) == 1 + len(grew)

    # a slope that varies with Γ (logistic, every cell active): one factor
    # and one line solve per step over kpp_front's first 50 (a chord
    # iteration to the midpoint equation took 4.5 solves per step, a Picard
    # loop on the source 7.06)
    calls.clear()
    solves.clear()
    kpp = load_scenario("kpp_front.yaml")
    short = fw.scenario_to_dict(kpp)
    short["time"]["t_end"] = 50 * kpp.dt
    fw.run(fw.build_scenario(short))
    assert len(calls) == 50
    assert len(solves) == 50

    # no active cell: nothing to factor
    calls.clear()
    fw.run(fw.build_scenario(_activation_bar(sigma0=1.0e10) | {"ic": {}}))
    assert calls == []


def _linear_increment(cfg, gamma, active):
    """The Crank-Nicolson damage increment of one step (uX = 0) on the full
    grid, assembled densely and solved directly: on active cells d solves
    (lam/dt - L/2 - J) d = flux(Γ) + F(Γ), J = min(F'(Γ), lam/dt)/2, L the
    homogeneous flux divergence under active's conductivity; inactive cells
    keep d = 0."""
    p, grid, bc_g = cfg.material, cfg.grid, cfg.bc["gamma"]
    law = SOURCE_LAWS[p.source_law]
    K = ops.grid_conductivity(active, (p.k1, p.k2), grid, bc_g)
    shape, on = gamma.shape, active.ravel()

    def div(x):
        return ops.grid_flux_div(x.reshape(shape), K, grid, [bc_g] * grid.ndim).ravel()

    c = div(np.zeros(shape))
    L = np.column_stack([div(e) - c for e in np.eye(gamma.size)])
    a, g = p.lam / cfg.dt, gamma.ravel()
    J = np.where(on, 0.5 * np.minimum(law.slope(g, p), a), 0.0)
    A = np.eye(gamma.size) * a - 0.5 * L - np.diag(J)
    return np.linalg.solve(A, div(gamma) + np.where(on, law.force(g, p), 0.0)).reshape(shape)


def _logistic_doc(grid, rate, dt, **over):
    doc = {"grid": grid,
           "material": {"rho0": 1.0, "c1": 1.0, "lambda": 1.5, "d1": 0.02, "d2": 0.05,
                        "source": {"law": "logistic", "rate": rate, "gamma_max": 1.0}},
           "time": {"dt": dt, "t_end": 10 * dt},
           "bc": {"u_left": {"type": "fixed"}, "u_right": {"type": "fixed"},
                  "gamma": {"type": "dirichlet", "value": 0.3}}}
    doc.update(over)
    return doc


@pytest.mark.parametrize("ndim", [1, 2])
def test_increment_solves_the_linear_step(ndim):
    # the step's increment is the solution of one linear system, the source
    # linearised about the old level, which a dense direct solve on the full
    # grid gives too: one line solve on a 1D bar whose active box leaves
    # cells out at one end and touches the dirichlet wall at the other, and
    # the 2D defect correction on a sheet whose box holds an inactive cell
    # (sigma0 = 1 keeps the step from switching the rest on: with uX = 0 and
    # b = 0 no cell is stressed)
    rng = np.random.default_rng(7 + ndim)
    if ndim == 1:
        cfg = fw.build_scenario(_logistic_doc({"nx": 40, "dx": 0.05}, rate=6.0, dt=0.05))
        active = np.zeros(40, dtype=bool)
        active[:25] = True
    else:
        grid = {"nx": 10, "ny": 8, "dx": 0.1, "dy": 0.1}
        cfg = fw.build_scenario(_logistic_doc(grid, rate=6.0, dt=0.05,
                                              bc={"u_left": {"type": "fixed"},
                                                  "u_right": {"type": "fixed"},
                                                  "gamma": {"type": "zero_flux"}}))
        active = np.zeros((8, 10), dtype=bool)
        active[1:6, 2:9] = True
        active[3, 5] = False
    cfg = replace(cfg, material=replace(cfg.material, sigma0=1.0))
    gamma = rng.uniform(0.1, 0.9, active.shape)
    state = fw.FieldState(0.0, np.zeros(active.shape), np.zeros(active.shape), gamma.copy(), active)
    plan = solver.DamagePlan(cfg, active)
    plan.step(state, np.zeros(active.shape[:-1] + (active.shape[-1] + 1,)))  # no face strain
    gamma_new = state.gamma
    d = gamma_new - gamma
    reference = _linear_increment(cfg, gamma, active)
    assert state.active is active  # no cell switched on
    assert plan.box != tuple(slice(0, n) for n in active.shape)  # a partial box
    assert np.array_equal(gamma_new[~active], gamma[~active])
    assert float(np.abs(d - reference).max()) <= 1e-12 * float(np.abs(reference).max())


@pytest.mark.parametrize("rate", [40.0, 200.0, 2000.0])
def test_fast_source_keeps_the_operator_positive_definite(rate):
    # at r*dt >= 2 (dt 0.05) the uncapped slope would leave lam/dt - F'/2 <= 0
    # on undamaged cells; the cap keeps the operator SPD, so no step meets
    # an indefinite factor. Where it binds the step is first order in the
    # source: at r*dt = 2 kpp_front still passes the audit, at 10 and 100
    # its second step overshoots against Z and the audit refuses it, with no
    # overflow on the way
    doc = fw.scenario_to_dict(load_scenario("kpp_front.yaml"))
    doc["material"]["source"]["rate"] = rate
    doc["time"]["dt"] = 0.05
    cfg = fw.build_scenario(doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if rate == 40.0:
            low = fw.run(cfg).reports["min_Z_gammadot"]
        else:
            with pytest.raises(fw.AdmissibilityViolation) as exc:
                fw.run(cfg)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    if rate == 40.0:
        assert low.min() >= -1e-12  # roundoff (-1.2e-27) against a peak above 1
    else:
        assert exc.value.time == pytest.approx(0.1) and exc.value.value < 0.0


@pytest.mark.xfail(strict=True, reason="where the slope cap binds the damage step is first order "
                   "in the source and nothing audits the energy budget: kpp_front at dt 0.05 and "
                   "rate 40 returns with budget_imbalance 0.30 and no error")
def test_capped_source_slope_closes_the_budget_or_raises():
    # r*dt = 2: the cap min(F', lam/dt) binds on undamaged cells. A run
    # should either close its budget or refuse with a typed error
    doc = fw.scenario_to_dict(load_scenario("kpp_front.yaml"))
    doc["material"]["source"]["rate"] = 40.0
    doc["time"]["dt"] = 0.05
    try:
        res = fw.run(fw.build_scenario(doc))
    except fw.RuntimeViolation:
        return
    assert fw.budget_imbalance(res.reports) < 1e-2


def test_box_audit_matches_the_full_grid_audit():
    # the step audits, books and evaluates the energy on the active box;
    # step by step along a growing active set it reproduces the full-grid
    # reference: Z at the midpoint from cst.internal_forces, the dissipation
    # rate over every cell and cst.damage_free_energy. Its midpoint flux is
    # the mean of the two levels' fluxes, so min and peak Z*dGamma/dt agree
    # to the roundoff of the flux terms; the sums agree bit for bit. The
    # plan holds the run's peak; reset before each step, it holds the step's
    cfg = fw.build_scenario(_activation_bar())
    p, grid, bc_g = cfg.material, cfg.grid, cfg.bc["gamma"]
    w_gamma = ops.energy_weights(cfg.bc, grid)[1]
    state = fw.initialize_state(cfg)
    elastic, damage = solver.ElasticPlan(cfg), solver.DamagePlan(cfg, state.active)
    elastic.level(state.U, state.gamma, 0.0)
    damage.level(state.gamma)
    eps = np.finfo(float).eps
    partial = 0
    for k in range(1, 161):
        elastic.step(state, k * cfg.dt)
        state.time = k * cfg.dt
        uX = ops.face_mean(elastic.eps)
        gamma = state.gamma.copy()
        damage.peak = 0.0
        low, dissipated = damage.step(state, elastic.eps)
        gamma_new, peak = state.gamma, damage.peak
        gamma_dot = (gamma_new - gamma) / cfg.dt
        mid = 0.5 * (gamma + gamma_new)
        Z = cst.internal_forces(mid, p, grid, uX=uX, bc_gamma=bc_g, active=state.active)
        zg = np.where(state.active, Z * gamma_dot, 0.0)
        # each flux term carries the roundoff of k1/dx^2 times the damage
        flux_scale = 4.0 * p.k1 / grid.dx**2 * float(np.abs(gamma_new).max())
        bound = 8.0 * eps * (flux_scale + float(np.abs(Z).max())) * float(np.abs(gamma_dot).max())
        assert abs(low - float(zg.min())) <= bound, k
        assert abs(peak - float(np.abs(zg).max())) <= bound, k
        if not state.active.all():
            partial += 1
            assert low <= 0.0
        rate = fw.dissipation_rate(gamma_dot, p) * grid.cell_volume * cfg.dt
        assert abs(dissipated - float(rate.sum())) <= _summation_bound(rate)
        e_grad, e_cell = cst.damage_free_energy(gamma_new, p, grid, bc_g, w_gamma, state.active)
        assert abs(damage.energy[0] - e_grad) <= _summation_bound(*_gradient_terms(cfg, gamma_new,
                                                                                  state.active))
        assert damage.energy[1] == e_cell
    assert partial == 160


@st.composite
def report_levels(draw):
    """A random level (cfg, state) on a 1D or 2D grid, under any pair of
    displacement walls and a damage wall, or a ring, and either source
    law; its active cells lie in a drawn box, which may leave cells out on
    every side. sigma0 keeps every cell as it is, and the diffusion number
    stays below 1, where the 2D correction converges in a few steps."""
    grid = {"nx": draw(st.integers(3, 12)), "dx": draw(st.floats(0.05, 0.5))}
    if draw(st.booleans()):
        grid.update(ny=draw(st.integers(3, 8)), dy=draw(st.floats(0.05, 0.5)))
    if draw(st.booleans()):
        bc = {side: {"type": "periodic"} for side in ("u_left", "u_right", "gamma")}
    else:
        walls = st.sampled_from([{"type": "fixed", "value": 0.01}, {"type": "velocity", "value": -0.2},
                                 {"type": "free"}, {"type": "traction", "value": 0.3}])
        bc = {"u_left": draw(walls), "u_right": draw(walls),
              "gamma": draw(st.sampled_from([{"type": "zero_flux"}, {"type": "dirichlet", "value": 0.3}]))}
    mat = {"rho0": draw(st.floats(0.5, 3.0)), "c1": draw(st.floats(0.5, 4.0)),
           "c3": draw(st.sampled_from([0.0]) | st.floats(0.1, 2.0)), "sigma0": 1e300,
           "lambda": draw(st.floats(0.2, 2.0)), "d1": draw(st.floats(0.0, 1.0)),
           "d2": draw(st.floats(0.0, 1.0))}
    if draw(st.booleans()):
        mat["source"] = {"law": "logistic", "rate": draw(st.floats(0.5, 3.0)), "gamma_max": 1.0}
    else:
        mat.update(c2=draw(st.floats(0.0, 2.0)), b=draw(st.floats(-1.0, 1.0)))
    cfg = fw.build_scenario({"grid": grid, "material": mat, "time": {"dt": 1e-3, "t_end": 1e-3},
                             "bc": bc})
    shape = cfg.grid.shape
    box = tuple(slice(lo, draw(st.integers(lo + 1, n)))
                for n in shape for lo in [draw(st.integers(0, n - 1))])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    active = np.zeros(shape, dtype=bool)
    active[box] = rng.random(active[box].shape) < 0.8
    state = fw.FieldState(draw(st.floats(0.0, 3.0)), 0.1 * rng.standard_normal(shape),
                          rng.standard_normal(shape), rng.uniform(0.1, 0.9, shape), active)
    return cfg, state


@settings(max_examples=100, deadline=None)
@given(report_levels())
def test_report_sums_agree_with_the_reference_sums(level):
    # the report's sums are dot products over the cells or faces that hold
    # them, the box's alone for the damage terms; the reference functions
    # sum every cell and face of the grid. Each pair agrees to the
    # summation bound; the potential, summed over the same grid-sized
    # buffer, and the fields agree bit for bit
    cfg, state = level
    p, grid, dt = cfg.material, cfg.grid, cfg.dt
    U, v, gamma, active = (getattr(state, f).copy() for f in ("U", "v", "gamma", "active"))
    elastic, damage = solver.ElasticPlan(cfg), solver.DamagePlan(cfg, active)
    elastic.level(U, gamma, state.time)
    kinetic, free = elastic.energies(state, damage.level(gamma))
    reference = fw.total_free_energy(U, gamma, p, grid, cfg.bc, state.time, active)
    assert abs(free - reference) <= _summation_bound(*_free_energy_terms(cfg, U, gamma, state.time, active))
    moving = 0.5 * p.rho0 * v * v * grid.cell_volume
    assert abs(kinetic - float(moving.sum())) <= _summation_bound(moving)

    _, dissipated = damage.step(state, elastic.eps)
    assert np.array_equal(state.active, active)
    assert np.array_equal(state.gamma[~active], gamma[~active])
    rate = fw.dissipation_rate((state.gamma - gamma) / dt, p) * grid.cell_volume * dt
    assert abs(dissipated - float(rate.sum())) <= _summation_bound(rate)
    w_gamma = ops.energy_weights(cfg.bc, grid)[1]
    e_grad, e_cell = cst.damage_free_energy(state.gamma, p, grid, cfg.bc["gamma"], w_gamma, active)
    assert abs(damage.energy[0] - e_grad) <= _summation_bound(*_gradient_terms(cfg, state.gamma, active))
    assert damage.energy[1] == e_cell


# -- coupling structure (bitwise) -------------------------------------------------


def test_feng_displacement_blind_to_damage():
    base = diffusion_doc(
        ic={"U": {"type": "gaussian", "amplitude": 0.02, "center": 0.5, "width": 0.1}},
        time={"dt": 0.005, "t_end": 0.2},
    )
    seeded = copy.deepcopy(base)
    seeded["ic"]["gamma"] = {"type": "gaussian", "amplitude": 0.7, "center": 0.4,
                             "width": 0.1}
    res_a = fw.run(fw.build_scenario(base))
    res_b = fw.run(fw.build_scenario(seeded))
    assert np.array_equal(res_a.state.U, res_b.state.U)
    assert np.array_equal(res_a.state.v, res_b.state.v)
    assert not np.array_equal(res_a.state.gamma, res_b.state.gamma)


def test_uncoupled_quadratic_damage_blind_to_displacement():
    base = diffusion_doc(
        material={"rho0": 1.0, "c1": 4.0, "c2": 1.0, "b": 0.0, "lambda": 0.5, "d1": 0.2},
        time={"dt": 0.001, "t_end": 0.2},
    )
    pushed = copy.deepcopy(base)
    pushed["ic"] = dict(pushed["ic"])
    pushed["ic"]["U"] = {"type": "gaussian", "amplitude": 0.02, "center": 0.5,
                         "width": 0.1}
    res_a = fw.run(fw.build_scenario(base))
    res_b = fw.run(fw.build_scenario(pushed))
    assert np.array_equal(res_a.state.gamma, res_b.state.gamma)
    assert not np.array_equal(res_a.state.U, res_b.state.U)


def test_linear_model_two_way_coupling_is_live():
    # with b != 0 the same experiment must change the damage field
    base = diffusion_doc(
        material={"rho0": 1.0, "c1": 4.0, "c2": 1.0, "b": 0.8, "lambda": 0.5, "d1": 0.2},
        time={"dt": 0.001, "t_end": 0.2},
    )
    pushed = copy.deepcopy(base)
    pushed["ic"] = dict(pushed["ic"])
    pushed["ic"]["U"] = {"type": "gaussian", "amplitude": 0.02, "center": 0.5,
                         "width": 0.1}
    res_a = fw.run(fw.build_scenario(base))
    res_b = fw.run(fw.build_scenario(pushed))
    assert not np.array_equal(res_a.state.gamma, res_b.state.gamma)


def test_2d_linear_wall_stress_matches_1d_row_by_row():
    # a y-uniform 2D state is the 1D state on every row, dirichlet damage wall
    # included: its face carries the wall cell's value, as a zero-flux one does
    mat = {"rho0": 1.0, "c1": 1.0, "c2": 1.0, "b": 0.5, "lambda": 1.0, "d1": 0.1}
    bc = {"u_left": {"type": "fixed"}, "u_right": {"type": "fixed"},
          "gamma": {"type": "dirichlet", "value": 0.25}}
    doc = {"grid": {"nx": 8, "dx": 0.125}, "material": mat, "time": {"dt": 0.01, "t_end": 0.1},
           "bc": bc}
    cfg1 = fw.build_scenario(doc)
    cfg2 = fw.build_scenario(dict(doc, grid={"nx": 8, "ny": 3, "dx": 0.125, "dy": 0.2},
                                  material=dict(mat, d2=0.1)))
    x = cfg1.grid.axes[0].centers()
    U, gamma = 0.01 * np.sin(3.0 * x), 0.5 + 0.3 * np.cos(5.0 * x)
    plan1, plan2 = solver.ElasticPlan(cfg1), solver.ElasticPlan(cfg2)
    plan1.level(U, gamma, 0.0)
    plan2.level(np.tile(U, (3, 1)), np.tile(gamma, (3, 1)), 0.0)
    for row in plan2.S:
        assert np.array_equal(row, plan1.S)


@pytest.mark.parametrize("material", [{}, {"c3": 3.3}, {"b": 0.7, "c2": 1.0},
                                      {"c3": 3.3, "b": 0.7, "c2": 1.0}],
                         ids=["feng", "cubic", "linear", "cubic-linear"])
@pytest.mark.parametrize("walls", [("traction", "free"), ("velocity", "fixed")])
def test_plan_face_stress_matches_constitutive_stress(material, walls):
    # the plan resolves the stress branch and the wall rules once; interior
    # faces carry cst.stress of ops.strain_faces bitwise, and the walls their
    # prescribed stress (0 when free, the traction protocol) or the computed one
    specs = {"traction": {"type": "traction", "value": -0.3, "ramp": 0.5, "until": 2.0},
             "free": {"type": "free"}, "velocity": {"type": "velocity", "value": 0.2},
             "fixed": {"type": "fixed", "value": 0.01}}
    bc = {"u_left": specs[walls[0]], "u_right": specs[walls[1]],
          "gamma": {"type": "dirichlet", "value": 0.25}}
    doc = {"grid": {"nx": 64, "dx": 1.0 / 64},
           "material": dict({"rho0": 1.0, "c1": 1.0, "lambda": 1.0, "d1": 0.1}, **material),
           "time": {"dt": 0.01, "t_end": 0.1}, "bc": bc}
    cfg = fw.build_scenario(doc)
    p = cfg.material
    x = cfg.grid.axes[0].centers()
    U, gamma, t = 0.1 * np.sin(3.0 * x), 0.5 + 0.3 * np.cos(5.0 * x), 0.3
    plan = solver.ElasticPlan(cfg)
    plan.level(U, gamma, t)
    eps = ops.strain_faces(U, cfg.grid, cfg.bc, t)
    gamma_faces = ops.gamma_face_values(gamma, cfg.bc["gamma"])
    S = fw.stress(eps, gamma_faces, p)
    assert np.array_equal(plan.eps, eps)
    assert np.array_equal(plan.S[1:-1], S[1:-1])
    for side, face in (("u_left", 0), ("u_right", -1)):
        spec = cfg.bc[side]
        if spec["type"] == "traction":
            assert plan.S[face] == ops.traction_at(spec, t) != 0.0, side
        else:
            assert plan.S[face] == (0.0 if spec["type"] == "free" else S[face]), side


# -- output contracts --------------------------------------------------------------


def test_gauge_and_report_cadence():
    doc = diffusion_doc(gauges=[0.25, 0.75], output={"snapshots": 5},
                        time={"dt": 0.005, "t_end": 0.1})
    cfg = fw.build_scenario(doc)
    res = fw.run(cfg)
    nsteps = int(round(cfg.t_end / cfg.dt))
    assert len(res.reports) == nsteps + 1
    assert len(res.gauges) == 2
    for tr in res.gauges:
        assert len(tr.t) == nsteps + 1
        assert tr.t[0] == 0.0
        assert tr.t[-1] == pytest.approx(res.state.time)
        assert np.array_equal(tr.t, res.reports["time"])
        assert tr.gamma[-1] == res.state.gamma[tr.cell]
    assert len(res.snapshots) == 5
    times = [s.time for s in res.snapshots]
    assert times[0] == 0.0 and times == sorted(times)
    for s in res.snapshots:
        assert s.U.shape == cfg.grid.shape
        assert s.Z.shape == cfg.grid.shape


def test_budget_closure_on_fast_shipped_scenarios():
    for name in ("damage_decay.yaml", "linear_quadratic.yaml"):
        res = fw.run(load_scenario(name))
        assert fw.budget_imbalance(res.reports) < 0.01, name


@st.composite
def small_runs(draw):
    """A small 1D run and its CFL number: 16-48 cells, at most 60 steps, CFL
    at most 0.5, any pair of displacement walls (a ring, or each of fixed,
    velocity, free, traction, ramped traction) with a zero-flux or a
    dirichlet damage wall, with and without the strain-damage coupling b and
    an activation threshold.

    c3 = 0, the damage potential is quadratic and |b| <= sqrt(c1*c2)/2, so
    the free energy is at least half its uncoupled part. The initial
    displacement, a sine of amplitude 0.01 to 0.02, then carries a free
    energy E0 >= (0.01 pi)^2/8 = 1.2e-4; wall loads stay at or below 0.02
    and fixed walls within 0.001 of the sine's zero (see the bound below)."""
    nx = draw(st.integers(16, 48))
    cfl = draw(st.floats(0.05, 0.5))
    steps = draw(st.integers(1, 60))
    load = st.floats(-0.02, 0.02)

    def wall():
        kind = draw(st.sampled_from(["fixed", "velocity", "free", "traction", "ramp"]))
        if kind == "free":
            return {"type": "free"}
        if kind == "ramp":
            return {"type": "traction", "value": draw(load), "ramp": draw(st.floats(0.01, 0.5))}
        return {"type": kind, "value": draw(load) / 20.0 if kind == "fixed" else draw(load)}

    if draw(st.booleans()):
        bc = {"u_left": {"type": "periodic"}, "u_right": {"type": "periodic"},
              "gamma": {"type": "periodic"}}
    else:
        gamma_wall = {"type": "zero_flux"}
        if draw(st.booleans()):
            gamma_wall = {"type": "dirichlet", "value": draw(st.floats(-0.5, 0.5))}
        bc = {"u_left": wall(), "u_right": wall(), "gamma": gamma_wall}

    def coefficient(hi):  # 0, or far above roundoff
        return draw(st.sampled_from([0.0]) | st.floats(1e-3 * hi, hi))

    c2 = coefficient(1.0)
    mat = {"rho0": 1.0, "c1": 1.0, "c2": c2, "lambda": draw(st.floats(0.1, 2.0)),
           "d1": coefficient(0.05), "sigma0": draw(st.sampled_from([0.0, 0.002, 0.01]))}
    if draw(st.booleans()):
        b = coefficient(0.5) * draw(st.sampled_from([-1.0, 1.0])) * math.sqrt(c2)
        mat["b"] = b
    bump = {"type": "gaussian", "center": draw(st.floats(0.2, 0.8)), "width": 0.1}
    amplitude = draw(st.floats(0.01, 0.02)) * draw(st.sampled_from([-1.0, 1.0]))
    doc = {
        "grid": {"nx": nx, "dx": 1.0 / nx},
        "material": mat,
        "time": {"dt": cfl / nx, "t_end": steps * cfl / nx},
        "ic": {"U": {"type": "sine", "amplitude": amplitude, "mode": draw(st.integers(1, 3))},
               "v": dict(bump, amplitude=draw(st.floats(-0.05, 0.05))),
               "gamma": dict(bump, amplitude=draw(st.floats(0.0, 0.5)))},
        "bc": bc,
    }
    return doc, cfl


@settings(max_examples=40, deadline=None)
@given(small_runs())
def test_budget_closes_on_small_random_runs(run_and_cfl):
    # The bound, 2 cfl^2 relative to the peak energy, has two terms.
    # - Velocity Verlet: with c3 = 0 the elastic force is linear, and Verlet
    #   conserves the modified energy H - (dt^2/8) sum rho0 a^2 dV exactly.
    #   Mode by mode the correction is the potential energy times
    #   (omega dt/2)^2, and the discrete operator's top frequency is 2c/dx
    #   (mirror-ghost walls included, by Gershgorin), so kinetic + elastic
    #   energy drifts by at most cfl^2 times the peak total.
    # - Wall work: the trapezoidal work misses (dt/4) dT dv per step at a
    #   loaded wall (dT, dv the step's change of wall stress and velocity).
    #   Over the load's onset and a monotone ramp that sums to at most
    #   cfl^2 dx |T| (|T| + |S|) / (4 rho0 c^2) <= cfl^2 * 1.1e-4 for
    #   |T| <= 0.02, dx <= 1/16 and the stress next to the wall |S| <= 0.31
    #   (sine strain 0.02*3 pi, fixed-wall offset 2*0.001/dx, load), which
    #   is below cfl^2 E0.
    # Crank-Nicolson books the drop of a quadratic damage potential exactly
    # (its midpoint identity gives lam*gamma_dot^2*dt per step); splitting
    # and activation add terms of higher order at these sizes.
    doc, cfl = run_and_cfl
    res = fw.run(fw.build_scenario(doc))
    assert fw.budget_imbalance(res.reports) <= 2.0 * cfl**2


def test_roundoff_damage_rate_passes_the_admissibility_gate():
    # d1 = 2.2e-16 moves gamma by roundoff only; Z*dGamma/dt is roundoff of
    # either sign (min -6.7e-30), its peak about 2e-28 is roundoff too, and
    # only the step's roundoff allowance eps*max|Z|*max|Gamma|/dt (1.1e-28)
    # covers it
    nx = 45
    doc = {"grid": {"nx": nx, "dx": 1.0 / nx},
           "material": {"rho0": 1.0, "c1": 1.0, "lambda": 1.0, "d1": 2.220446049250313e-16},
           "time": {"dt": 0.5 / nx, "t_end": 0.5 / nx},
           "ic": {"U": {"type": "sine", "amplitude": -0.015625, "mode": 1},
                  "gamma": {"type": "gaussian", "amplitude": 0.5, "center": 0.5, "width": 0.1}},
           "bc": {"u_left": {"type": "periodic"}, "u_right": {"type": "periodic"},
                  "gamma": {"type": "periodic"}}}
    fw.run(fw.build_scenario(doc))


@pytest.mark.parametrize("two_d", [False, True], ids=["1d", "2d"])
def test_budget_closes_with_a_dirichlet_damage_wall(two_d):
    # a dirichlet wall holds gamma fixed, so the damage flux does no work
    # there: the free-energy drop is the dissipation, to roundoff
    bc = {"u_left": {"type": "fixed"}, "u_right": {"type": "fixed"},
          "gamma": {"type": "dirichlet", "value": 0.2}}
    doc = diffusion_doc(bc=bc)
    if two_d:
        doc["grid"] = {"nx": 24, "ny": 16, "dx": 1.0 / 24, "dy": 1.0 / 16}
        doc["material"]["d2"] = 0.1
        doc["ic"]["gamma"]["center"] = [0.5, 0.4]
    res = fw.run(fw.build_scenario(doc))
    assert fw.budget_imbalance(res.reports) < 1e-12


def test_linear_coupling_closes_the_budget_at_a_dirichlet_damage_wall():
    # no conduction (d1 = 0), so the damage flux plays no part. The wall face
    # stress carries b times the wall cell's gamma, the derivative of the free
    # energy's cell cross term b*uX*gamma; with the dirichlet value there
    # (-0.5) the budget missed b*(w - gamma_0)*v_0 and read 0.77. It now closes
    # as the same run with a zero-flux damage wall does, to 4e-5
    nx, cfl = 16, 0.05
    doc = {"grid": {"nx": nx, "dx": 1.0 / nx},
           "material": {"rho0": 1.0, "c1": 1.0, "c2": 1.0, "lambda": 1.0, "d1": 0.0, "b": 0.5},
           "time": {"dt": cfl / nx, "t_end": 60 * cfl / nx},
           "ic": {"U": {"type": "sine", "amplitude": 0.01, "mode": 1},
                  "gamma": {"type": "gaussian", "amplitude": 0.1, "center": 0.5, "width": 0.1}},
           "bc": {"u_left": {"type": "fixed", "value": 0.001}, "u_right": {"type": "free"},
                  "gamma": {"type": "dirichlet", "value": -0.5}}}
    res = fw.run(fw.build_scenario(doc))
    assert fw.budget_imbalance(res.reports) <= 2.0 * cfl**2


# -- 2D ---------------------------------------------------------------------------


def _lateral_doc():
    return {
        "grid": {"nx": 80, "ny": 80, "dx": 0.3, "dy": 0.3},
        "material": {"rho0": 1.0, "c1": 1.0, "lambda": 1.0, "d1": 1.0, "d2": 4.0,
                     "source": {"law": "logistic", "rate": 1.0, "gamma_max": 1.0}},
        "time": {"dt": 0.05, "t_end": 6.0},
        "ic": {"gamma": {"type": "gaussian", "amplitude": 1.0,
                         "center": [12.0, 12.0], "width": 0.8}},
        "bc": {"u_left": {"type": "fixed"}, "u_right": {"type": "fixed"},
               "gamma": {"type": "zero_flux"}},
        "gauges": [[16.5, 12.0], [12.0, 16.5]],
        "output": {"snapshots": 4},
    }


def test_lateral_diffusivity_wins_in_2d():
    res = fw.run(fw.build_scenario(_lateral_doc()))

    def arrival(trace, thr=0.5):
        hits = np.nonzero(np.asarray(trace.gamma) >= thr)[0]
        return float(trace.t[hits[0]]) if hits.size else None

    t_long = arrival(res.gauges[0])
    t_lat = arrival(res.gauges[1])
    assert t_long is not None and t_lat is not None
    assert t_lat < t_long  # equal distances; d2 > d1 means lateral first
    assert fw.budget_imbalance(res.reports) < 1e-3


def test_2d_sharp_seed_holds_strict_admissibility():
    # anisotropic sharp seed: the 2D step solves the same Crank-Nicolson
    # system as 1D, so Z*dGamma/dt stays nonnegative to roundoff (an
    # alternating-direction splitting dips to ~-1e-5 here) and the energy
    # budget closes to roundoff
    doc = {
        "grid": {"nx": 64, "ny": 64, "dx": 0.25, "dy": 0.25},
        "material": {"rho0": 1.0, "c1": 1.0, "lambda": 1.0, "d1": 0.2, "d2": 2.0},
        "time": {"dt": 0.05, "t_end": 1.0},
        "ic": {"gamma": {"type": "gaussian", "amplitude": 1.0,
                         "center": [8.0, 8.0], "width": 0.4}},
        "bc": {"u_left": {"type": "fixed"}, "u_right": {"type": "fixed"},
               "gamma": {"type": "zero_flux"}},
    }
    cfg = fw.build_scenario(doc)
    assert cfg.numerics["tol_admissibility"] == 1e-12
    res = fw.run(cfg)
    assert len(res.reports) == 21
    assert np.max(res.state.gamma) > 0.0
    assert fw.budget_imbalance(res.reports) < 1e-12


def test_2d_isotropic_matches_heat_kernel():
    nx, d, t_end = 96, 0.5, 0.5
    L = 12.0
    doc = {
        "grid": {"nx": nx, "ny": nx, "dx": L / nx, "dy": L / nx},
        "material": {"rho0": 1.0, "c1": 1.0, "lambda": 1.0, "d1": d, "d2": d},
        "time": {"dt": 0.02, "t_end": t_end},
        "ic": {"gamma": {"type": "gaussian", "amplitude": 1.0,
                         "center": [6.0, 6.0], "width": 0.5}},
        "bc": {"u_left": {"type": "fixed"}, "u_right": {"type": "fixed"},
               "gamma": {"type": "zero_flux"}},
    }
    cfg = fw.build_scenario(doc)
    res = fw.run(cfg)
    x = (np.arange(nx) + 0.5) * (L / nx)
    X, Y = np.meshgrid(x, x)
    var0 = 0.5**2
    var = var0 + 2 * d * t_end
    exact = (var0 / var) * np.exp(-((X - 6) ** 2 + (Y - 6) ** 2) / (2 * var))
    assert np.max(np.abs(res.state.gamma - exact)) < 2e-3
