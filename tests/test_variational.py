"""Discrete variational verifier: residuals, reductions, exact identities."""

import copy
import os

import numpy as np
import pytest

import failwave as fw

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def verify_doc(nx=32, dt=4e-3, t_end=0.08):
    return {
        "grid": {"nx": nx, "dx": 1.0 / nx},
        "material": {"rho0": 1.0, "c1": 1.0, "c2": 1.0, "lambda": 1.0, "d1": 0.1},
        "time": {"dt": dt, "t_end": t_end},
        "ic": {"U": {"type": "sine", "amplitude": 0.01, "mode": 1},
               "gamma": {"type": "sine", "amplitude": 0.5, "mode": 1}},
        "bc": {"u_left": {"type": "fixed"}, "u_right": {"type": "fixed"},
               "gamma": {"type": "dirichlet", "value": 0.0}},
        "output": {"snapshots": 2},
    }


@pytest.fixture(scope="module")
def traj():
    return fw.record_trajectory(fw.build_scenario(verify_doc()))


# -- field residuals ---------------------------------------------------------------


def test_static_zero_trajectory_has_zero_residuals():
    doc = verify_doc()
    doc["ic"] = {}
    t = fw.record_trajectory(fw.build_scenario(doc))
    res = fw.lagrange_residual(t)
    assert np.max(res.norms_combined) == 0.0


def test_momentum_residual_is_machine_zero(traj):
    # the leapfrog update IS the discrete momentum equation
    res = fw.lagrange_residual(traj)
    assert np.max(res.norms_U) < 1e-11
    assert np.max(res.norms_gamma) > 1e-7  # damage residual is genuine O(dt^2)


def test_residuals_shrink_at_second_order():
    norms = []
    for lev in range(2):
        doc = verify_doc(nx=32 * 2**lev, dt=4e-3 / 2**lev)
        t = fw.record_trajectory(fw.build_scenario(doc))
        norms.append(float(np.max(fw.lagrange_residual(t).norms_combined)))
    assert norms[0] / norms[1] >= 3.5


def test_perturbed_trajectory_flags_large_residual(traj):
    res0 = float(np.max(fw.lagrange_residual(traj).norms_U))
    bad = copy.deepcopy(traj)
    x = bad.cfg.grid.cell_centers()
    k = bad.nlev // 2
    bad.U[k] = bad.U[k] + 1e-6 * np.sin(np.pi * x)
    res1 = float(np.max(fw.lagrange_residual(bad).norms_U))
    # the eps/dt^2 inertia term dominates: 1e-6/1.6e-5 = O(0.1)
    assert res1 > 1e-3
    assert res1 > 100.0 * max(res0, 1e-12)


def test_too_few_levels_rejected():
    # a single step yields two levels; recording refuses outright
    with pytest.raises(fw.TooFewLevels):
        fw.record_trajectory(fw.build_scenario(verify_doc(t_end=4e-3)))
    # and a hand-built two-level trajectory is refused by the residual
    cfg = fw.build_scenario(verify_doc())
    t2 = fw.DiscreteTrajectory(
        cfg=cfg, times=np.array([0.0, cfg.dt]),
        U=np.zeros((2, cfg.grid.nx)), v=np.zeros((2, cfg.grid.nx)),
        gamma=np.zeros((2, cfg.grid.nx)),
        active=np.ones((2, cfg.grid.nx), dtype=bool), dt_level=cfg.dt,
    )
    with pytest.raises(fw.TooFewLevels):
        fw.lagrange_residual(t2)


def test_record_trajectory_records_clifton():
    # the conservative limit runs the same Verlet loop: its momentum residual
    # is roundoff, and with no active cell and lam = 0 nothing drives gamma
    doc = verify_doc(nx=64, dt=2e-3)
    doc["material"] = {"rho0": 1.0, "c1": 1.0, "lambda": 0.0, "d1": 0.1}
    doc["ic"]["v"] = {"type": "gaussian", "amplitude": 1.0, "center": 0.5, "width": 0.1}
    doc["bc"] = {"u_left": {"type": "periodic"}, "u_right": {"type": "periodic"},
                 "gamma": {"type": "periodic"}}
    t = fw.record_trajectory(fw.build_scenario(doc))
    assert not t.active.any()
    assert np.array_equal(t.gamma, np.broadcast_to(t.gamma[0], t.gamma.shape))
    res = fw.lagrange_residual(t)
    assert np.max(res.norms_U) < 1e-11
    assert np.max(res.norms_gamma) == 0.0


def test_trajectory_matches_solver_run():
    # record_trajectory drives the solver's own step sequence: every level it
    # keeps is the run's state at that step, at stride 1 and at stride 3
    doc = verify_doc()
    nsteps = round(doc["time"]["t_end"] / doc["time"]["dt"])
    doc["output"] = {"snapshots": nsteps + 1}  # one snapshot per step
    cfg = fw.build_scenario(doc)
    snaps = fw.run(cfg).snapshots
    assert [s.step for s in snaps] == list(range(nsteps + 1))
    for stride in (1, 3):
        traj = fw.record_trajectory(cfg, stride=stride)
        assert traj.nlev == nsteps // stride + 1
        for i in range(traj.nlev):
            snap = snaps[i * stride]
            assert traj.times[i] == snap.time
            assert np.array_equal(traj.U[i], snap.U)
            assert np.array_equal(traj.v[i], snap.v)
            assert np.array_equal(traj.gamma[i], snap.gamma)
        # the run updates U and v in place; each stored level is its own copy
        for field in (traj.U, traj.v):
            assert len({level.tobytes() for level in field}) == traj.nlev


def test_trajectory_is_audited_like_run():
    # a run that breaks strict admissibility stops the recording at the
    # same step: a logistic bar seeded with negative damage, which the
    # clamp at zero lifts against its (negative) driving force
    doc = {
        "grid": {"nx": 32, "dx": 1.0 / 32},
        "material": {"rho0": 1.0, "c1": 1.0, "lambda": 1.0, "d1": 0.1,
                     "source": {"law": "logistic", "rate": 1.0, "gamma_max": 1.0}},
        "time": {"dt": 0.01, "t_end": 0.1},
        "ic": {"gamma": {"type": "step", "left": -0.2, "right": 0.0, "at": 0.5}},
        "bc": {"u_left": {"type": "fixed"}, "u_right": {"type": "fixed"},
               "gamma": {"type": "zero_flux"}},
    }
    cfg = fw.build_scenario(doc)
    with pytest.raises(fw.AdmissibilityViolation) as ran:
        fw.run(cfg)
    with pytest.raises(fw.AdmissibilityViolation) as recorded:
        fw.record_trajectory(cfg)
    assert recorded.value.time == ran.value.time
    assert recorded.value.value == ran.value.value


# -- generalized reduction -----------------------------------------------------------


def test_nodal_reduction_reproduces_field_residuals(traj):
    res = fw.lagrange_residual(traj)
    sys_n = fw.reduce_to_generalized(traj, fw.nodal_basis(traj.cfg.grid))
    gen = fw.generalized_residual(sys_n)
    dx = traj.cfg.grid.dx
    worst = 0.0
    for i in range(len(gen.R)):
        stacked = dx * np.concatenate([res.resid_U[i], res.resid_gamma[i]])
        worst = max(worst, float(np.max(np.abs(gen.R[i] - stacked))))
    assert worst < 1e-12


def test_modal_weighted_residual_identity(traj):
    # for a pure-mode basis, R_i = dx * sum_j phi_ij resid_j exactly
    basis = fw.sine_basis(traj.cfg.grid, 4)
    sys_m = fw.reduce_to_generalized(traj, basis)
    gen = fw.generalized_residual(sys_m)
    res = fw.lagrange_residual(traj)
    dx = traj.cfg.grid.dx
    worst = 0.0
    for i in range(len(gen.R)):
        expect = dx * (basis.phi_U @ res.resid_U[i] + basis.phi_G @ res.resid_gamma[i])
        worst = max(worst, float(np.max(np.abs(gen.R[i] - expect))))
    assert worst < 1e-10


def test_dual_norm_equals_field_norm_for_nodal_basis(traj):
    res = fw.lagrange_residual(traj)
    sys_n = fw.reduce_to_generalized(traj, fw.nodal_basis(traj.cfg.grid))
    gen = fw.generalized_residual(sys_n)
    assert np.allclose(gen.norms, res.norms_combined, rtol=1e-10, atol=1e-18)


def test_boundary_terms_carry_the_generalized_forces(traj):
    # dropping Q leaves the wall stresses unbalanced: norms blow up
    sys_n = fw.reduce_to_generalized(traj, fw.nodal_basis(traj.cfg.grid))
    with_q = fw.generalized_residual(sys_n)
    without_q = fw.generalized_residual(sys_n, Q=np.zeros_like(sys_n.Q))
    assert np.max(without_q.norms) > 100.0 * np.max(with_q.norms)


def test_singular_basis_rejected(traj):
    phi = np.zeros((2, traj.cfg.grid.nx))
    phi[0, 0] = 1.0
    phi[1, 0] = 1.0  # duplicated mode
    basis = fw.Basis(phi_U=phi, phi_G=np.zeros_like(phi))
    with pytest.raises(fw.SingularBasis):
        fw.reduce_to_generalized(traj, basis)


def test_reduction_rejects_two_way_coupling(traj):
    doc = verify_doc()
    doc["material"] = {"rho0": 1.0, "c1": 1.0, "c2": 1.0, "b": 0.5,
                       "lambda": 1.0, "d1": 0.1}
    t = fw.record_trajectory(fw.build_scenario(doc))
    with pytest.raises(fw.ConfigConflict):
        fw.reduce_to_generalized(t, fw.nodal_basis(t.cfg.grid))


# -- dissipation variation -------------------------------------------------------------


def test_dissipation_variation_uniform_rate():
    # gamma = 2t everywhere: lam*gd*delta*L = 1*2*3*1 = 6 at every level
    cfg = fw.build_scenario(verify_doc())
    nlev = 6
    times = np.arange(nlev) * cfg.dt
    gamma = np.tile(2.0 * times[:, None], (1, cfg.grid.nx))
    t = fw.DiscreteTrajectory(
        cfg=cfg, times=times,
        U=np.zeros((nlev, cfg.grid.nx)), v=np.zeros((nlev, cfg.grid.nx)),
        gamma=gamma, active=np.ones((nlev, cfg.grid.nx), dtype=bool),
        dt_level=cfg.dt,
    )
    var = fw.dissipation_variation(t, np.full(cfg.grid.nx, 3.0))
    assert var.shape == (nlev - 2,)
    assert np.allclose(var, 6.0, rtol=1e-12)


def test_dissipation_variation_shape_guard(traj):
    with pytest.raises(fw.ShapeMismatch):
        fw.dissipation_variation(traj, np.zeros(traj.cfg.grid.nx + 1))


# -- action identity -------------------------------------------------------------------


def test_action_first_variation_matches_residual_inner_product(traj):
    rng = np.random.default_rng(11)
    nlev, nx = traj.nlev, traj.cfg.grid.nx
    dU = np.zeros((nlev, nx))
    dG = np.zeros((nlev, nx))
    dU[1:-1, 1:-1] = 1e-3 * rng.standard_normal((nlev - 2, nx - 2))
    dG[1:-1, 1:-1] = 1e-3 * rng.standard_normal((nlev - 2, nx - 2))
    delta_I, inner = fw.action_first_variation(traj, dU, dG)
    assert delta_I == pytest.approx(inner, abs=1e-15)
    assert abs(inner) > 1e-14  # the comparison is not 0 == 0


def test_discrete_action_finite_and_stationary_scale(traj):
    I = fw.discrete_action(traj)
    assert np.isfinite(I)
