"""Time stepping: invariants, guards, limits, and coupling structure."""

import copy
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import failwave as fw
from failwave import ops, solver

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


def test_unconverged_picard_loop_raises_typed_error():
    # rate 200 at dt 0.05 needs far more than 2 source iterations per step;
    # the loop used to carry on silently and trip the admissibility audit
    doc = fw.scenario_to_dict(load_scenario("kpp_front.yaml"))
    doc["material"]["source"]["rate"] = 200.0
    doc["time"]["dt"] = 0.05
    doc["numerics"] = {"source_max_iter": 2}
    with pytest.raises(fw.PicardNotConverged) as exc:
        fw.run(fw.build_scenario(doc))
    err = exc.value
    assert err.iterations == 2
    assert err.time == pytest.approx(0.05)
    assert err.residual > err.limit
    assert err.state is not None and err.state.gamma.shape == (1200,)


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


def test_non_finite_damage_state_raises_typed_error():
    cfg = fw.build_scenario(diffusion_doc())
    state = fw.initialize_state(cfg)
    state.gamma[10] = np.nan
    uX = ops.strain_cells(state.U, cfg.grid, cfg.bc, 0.0)
    with pytest.raises(fw.NonFiniteState) as exc:
        solver.DamagePlan(cfg, state.active).step(state, uX)
    assert np.isnan(exc.value.state.gamma[10])
    assert exc.value.state.gamma is not state.gamma


def test_nan_displacement_raises_typed_error():
    # a NaN strain makes the Courant number NaN, which a `>` test passes
    cfg = fw.build_scenario(standing_doc(32))
    state = fw.initialize_state(cfg)
    state.U[5] = np.nan
    plan = solver.ElasticPlan(cfg)
    plan.level(state.U, state.gamma, 0.0)
    with pytest.raises(fw.NonFiniteState, match="Courant number") as exc:
        plan.step(state, cfg.dt)
    assert np.isnan(exc.value.state.U[5])


@pytest.mark.parametrize("field", ["min_Z_gammadot", "peak_Z_gammadot"])
def test_nan_audit_raises_typed_error(monkeypatch, field):
    # a NaN minimum passes a `<` test, and max(peak, nan) keeps the old peak
    step = solver.DamagePlan.step
    at = {"min_Z_gammadot": 1, "peak_Z_gammadot": 2}[field]  # in step's return value

    def nan_audit(*args):
        out = list(step(*args))
        out[at] = float("nan")
        return tuple(out)

    monkeypatch.setattr(solver.DamagePlan, "step", nan_audit)
    cfg = fw.build_scenario(diffusion_doc())
    with pytest.raises(fw.NonFiniteState, match="admissibility audit") as exc:
        fw.run(cfg)
    assert exc.value.state.time == cfg.dt


def test_step_damage_books_the_dissipation_rate():
    # the budget's dissipated increment is the dissipation rate of the step's
    # dGamma/dt, summed over the cells and multiplied by the step
    cfg = fw.build_scenario(diffusion_doc())
    state = fw.initialize_state(cfg)
    uX = ops.strain_cells(state.U, cfg.grid, cfg.bc, 0.0)
    gamma, _, _, dissipated = solver.DamagePlan(cfg, state.active).step(state, uX)
    rate = fw.dissipation_rate((gamma - state.gamma) / cfg.dt, cfg.material)
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
        uX = ops.strain_cells(state.U, cfg.grid, cfg.bc, state.time)
        active = state.active | (np.abs(fw.stress(uX, state.gamma, p)) >= p.sigma0)
        switched += int(active.sum() > state.active.sum())
        state.active = active
        state.gamma = solver.DamagePlan(cfg, state.active).step(state, uX)[0]
    assert switched > 40
    for field in ("U", "v", "gamma", "active"):
        assert np.array_equal(getattr(state, field), getattr(res.state, field)), field
    S = fw.stress(uX, state.gamma, p)
    for trace in res.gauges:
        assert trace.S[-1] == S[trace.cell]
    last = res.reports[-1]
    assert last["free_energy"] == fw.total_free_energy(
        state.U, state.gamma, p, cfg.grid, cfg.bc, state.time, state.active
    )
    assert last["kinetic"] == 0.5 * p.rho0 * np.sum(state.v**2) * cfg.grid.cell_volume


def test_damage_operator_is_factored_once_per_active_set(monkeypatch):
    calls = []
    factor = ops.factor_lines
    monkeypatch.setattr(ops, "factor_lines", lambda *args: calls.append(1) or factor(*args))

    # every cell active from the start: one factor for the whole run
    kpp = load_scenario("kpp_front.yaml")
    short = fw.scenario_to_dict(kpp)
    short["time"]["t_end"] = 50 * kpp.dt
    fw.run(fw.build_scenario(short))
    assert len(calls) == 1

    # a growing active set: one factor for the initial cells, then one for
    # each step that switches a cell on
    calls.clear()
    traj = fw.record_trajectory(fw.build_scenario(_activation_bar()))
    grew = [k for k in range(1, len(traj.times)) if (traj.active[k] != traj.active[k - 1]).any()]
    assert len(grew) > 40
    assert len(calls) == 1 + len(grew)

    # no active cell: nothing to factor
    calls.clear()
    fw.run(fw.build_scenario(_activation_bar(sigma0=1.0e10) | {"ic": {}}))
    assert calls == []


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
