"""Discrete variational verifier: residuals, reductions, exact identities."""

import copy
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import failwave as fw
from failwave import constitutive as cst
from failwave import ops, variational

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
    x = bad.cfg.grid.axes[0].centers()
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


# -- the free energy's gradient -------------------------------------------------------


def _central_gradient(cfg, U, gamma, t, active, h):
    """Central differences of total_free_energy in every cell of U and of
    gamma."""
    def energy(U_, G_):
        return fw.total_free_energy(U_, G_, cfg.material, cfg.grid, cfg.bc, t, active)

    fd_U, fd_G = np.empty(U.shape), np.empty(U.shape)
    for i in np.ndindex(U.shape):
        e = np.zeros(U.shape)
        e[i] = h
        fd_U[i] = (energy(U + e, gamma) - energy(U - e, gamma)) / (2.0 * h)
        fd_G[i] = (energy(U, gamma + e) - energy(U, gamma - e)) / (2.0 * h)
    return fd_U, fd_G


def _energy_scale(cfg, U, gamma, t, active):
    """The sum of the magnitudes of total_free_energy's terms, the scale of
    its roundoff."""
    p, grid, bc = cfg.material, cfg.grid, cfg.bc
    eps = ops.strain_faces(U, grid, bc, t)
    w_u, w_gamma = ops.energy_weights(bc, grid)
    e_el = float((cst.elastic_energy_density(eps, p) * w_u).sum() * grid.axes[0].across)
    e_grad, _ = cst.damage_free_energy(gamma, p, grid, bc["gamma"], w_gamma, active)
    cells = np.abs(cst.damage_potential(gamma, p)) + np.abs(p.b * ops.face_mean(eps) * gamma)
    return e_el + e_grad + float(cells.sum() * grid.cell_volume)


@st.composite
def energy_levels(draw):
    """A random level (cfg, U, gamma, t, active) on a 1D or 2D grid, with
    any pair of displacement walls and a damage wall, or a ring, under
    either source law. b != 0 is drawn except under the logistic law (which
    needs b = 0) and at a traction wall (pinned below)."""
    grid = {"nx": draw(st.integers(3, 10)), "dx": draw(st.floats(0.05, 0.5))}
    if draw(st.booleans()):
        grid.update(ny=draw(st.integers(3, 6)), dy=draw(st.floats(0.05, 0.5)))
    load = st.floats(-0.1, 0.1)

    def wall():
        kind = draw(st.sampled_from(["fixed", "velocity", "free", "traction"]))
        if kind == "free":
            return {"type": "free"}
        if kind == "traction":
            return {"type": kind, "value": draw(load), "ramp": draw(st.floats(0.0, 2.0))}
        return {"type": kind, "value": draw(load)}

    if draw(st.booleans()):
        bc = {side: {"type": "periodic"} for side in ("u_left", "u_right", "gamma")}
    else:
        gamma_wall = draw(st.sampled_from([{"type": "zero_flux"},
                                           {"type": "dirichlet", "value": 0.3}]))
        bc = {"u_left": wall(), "u_right": wall(), "gamma": gamma_wall}
    mat = {"rho0": 1.0, "c1": draw(st.floats(0.5, 4.0)),
           "c3": draw(st.sampled_from([0.0]) | st.floats(0.1, 2.0)),
           "lambda": draw(st.floats(0.2, 2.0)), "d1": draw(st.floats(0.0, 1.0)),
           "d2": draw(st.floats(0.0, 1.0))}
    if draw(st.booleans()):
        mat["source"] = {"law": "logistic", "rate": draw(st.floats(0.5, 3.0)),
                         "gamma_max": draw(st.floats(0.5, 2.0))}
    else:
        mat["c2"] = draw(st.floats(0.0, 2.0))
        if "traction" not in (bc["u_left"]["type"], bc["u_right"]["type"]):
            mat["b"] = draw(st.floats(-1.0, 1.0))
    cfg = fw.build_scenario({"grid": grid, "material": mat, "time": {"dt": 1.0, "t_end": 1.0},
                             "bc": bc})
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = cfg.grid.shape
    U = 0.1 * rng.standard_normal(shape)
    gamma = rng.uniform(-0.5, 1.0, shape)
    active = rng.random(shape) < 0.7
    return cfg, U, gamma, draw(st.floats(0.0, 3.0)), active


@settings(max_examples=60, deadline=None)
@given(energy_levels())
def test_free_energy_gradient_matches_central_differences(level):
    # Along one field value Psi_h is a polynomial of degree <= 4, so its
    # central difference is the derivative plus exactly (h^2/6) d3Psi, plus
    # roundoff:
    # - d3Psi/dU^3 sums 6 c3 eps w across (d eps/dU)^3 over the cell's
    #   faces; an interior face has w = dx and |d eps/dU| = 1/dx, a
    #   displacement wall dx/2 and 2/dx, so it is at most
    #   6 c3 max|eps| across (1 + 4)/dx^2;
    # - d3Psi/dGamma^3 is W''' vol = 2 r lam vol/gamma_max under the
    #   logistic law and 0 under linear_decay;
    # - roundoff: each energy sums about n terms (n the cell count) whose
    #   magnitudes add up to _energy_scale, each term good to a few eps;
    #   two of them differenced over 2h are good to (n + 8) eps scale/h.
    cfg, U, gamma, t, active = level
    p, grid = cfg.material, cfg.grid
    h = 1e-3
    grad_U, grad_G = fw.free_energy_gradient(cfg, U, gamma, t, active)
    fd_U, fd_G = _central_gradient(cfg, U, gamma, t, active, h)
    eps = ops.strain_faces(U, grid, cfg.bc, t)
    third_U = 30.0 * p.c3 * float(np.abs(eps).max()) * grid.axes[0].across / grid.dx**2
    third_G = 0.0
    if p.source_law == "logistic":
        third_G = 2.0 * p.source_rate * p.lam * grid.cell_volume / p.gamma_max
    roundoff = (U.size + 8) * np.finfo(float).eps * _energy_scale(cfg, U, gamma, t, active) / h
    for fd, grad, third in ((fd_U, grad_U, third_U), (fd_G, grad_G, third_G)):
        bound = h**2 / 6.0 * third + roundoff
        assert float(np.abs(fd - grad).max()) <= bound


@pytest.mark.xfail(strict=True, reason="with b != 0 the cell cross term b*face_mean(eps)*gamma "
                   "reads a traction face's placeholder strain, so the scheme's force misses "
                   "the gradient in the two cells beside the wall")
def test_traction_wall_force_is_the_gradient_under_coupling():
    doc = verify_doc(nx=12)
    doc["material"].update(b=0.6)
    doc["bc"]["u_left"] = {"type": "traction", "value": -0.05, "ramp": 0.5}
    cfg = fw.build_scenario(doc)
    rng = np.random.default_rng(5)
    U = 0.05 * rng.standard_normal(cfg.grid.shape)
    gamma = 0.5 * rng.random(cfg.grid.shape)
    active = np.ones(cfg.grid.shape, dtype=bool)
    h = 1e-3
    grad_U, _ = fw.free_energy_gradient(cfg, U, gamma, 0.3, active)
    fd_U, _ = _central_gradient(cfg, U, gamma, 0.3, active, h)
    roundoff = (U.size + 8) * np.finfo(float).eps * _energy_scale(cfg, U, gamma, 0.3, active) / h
    assert float(np.abs(fd_U - grad_U).max()) <= roundoff


# -- generalized reduction -----------------------------------------------------------


def _nodal_gap(traj):
    """Largest gap between the nodal reduction's residual and cell_volume
    times the field residuals."""
    res = fw.lagrange_residual(traj)
    gen = fw.generalized_residual(fw.reduce_to_generalized(traj, fw.nodal_basis(traj.cfg.grid)))
    stacked = np.concatenate([res.resid_U.reshape(len(gen.R), -1),
                              res.resid_gamma.reshape(len(gen.R), -1)], axis=1)
    return float(np.max(np.abs(gen.R - traj.cfg.grid.cell_volume * stacked)))


def test_nodal_reduction_reproduces_field_residuals(traj):
    assert _nodal_gap(traj) < 1e-12


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


def test_boundary_terms_carry_the_generalized_forces():
    # Q books what the free energy does not give: at a traction wall the
    # prescribed stress; dropping it leaves the wall cell unbalanced
    doc = verify_doc()
    doc["bc"]["u_right"] = {"type": "traction", "value": -0.01, "ramp": 0.02}
    t = fw.record_trajectory(fw.build_scenario(doc))
    sys_n = fw.reduce_to_generalized(t, fw.nodal_basis(t.cfg.grid))
    assert np.any(sys_n.Q != 0.0)
    with_q = fw.generalized_residual(sys_n)
    without_q = fw.generalized_residual(sys_n, Q=np.zeros_like(sys_n.Q))
    assert np.max(without_q.norms) > 100.0 * np.max(with_q.norms)
    # and Q is only the traction, on the wall cell's displacement mode
    nx = t.cfg.grid.nx
    assert not np.any(np.delete(sys_n.Q, nx - 1, axis=1))
    assert sys_n.Q[-1, nx - 1] == -0.01


def test_singular_basis_rejected(traj):
    phi = np.zeros((2, traj.cfg.grid.nx))
    phi[0, 0] = 1.0
    phi[1, 0] = 1.0  # duplicated mode
    basis = fw.Basis(phi_U=phi, phi_G=np.zeros_like(phi))
    with pytest.raises(fw.SingularBasis):
        fw.reduce_to_generalized(traj, basis)


def test_nodal_reduction_holds_under_two_way_coupling():
    # linear_quadratic's material, b = 0.8: the reduction reads the same
    # gradient as the field form, so the nodal identity holds for any b
    doc = verify_doc()
    doc["material"] = {"rho0": 1.0, "c1": 4.0, "c2": 1.0, "b": 0.8,
                       "lambda": 0.5, "d1": 0.2}
    t = fw.record_trajectory(fw.build_scenario(doc))
    assert _nodal_gap(t) < 1e-12


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


def test_action_first_variation_evaluates_the_forces_once(traj, monkeypatch):
    # one free_energy_gradient per interior level serves both the action's
    # variation and the residual inner product
    calls = []
    gradient = variational.free_energy_gradient
    monkeypatch.setattr(variational, "free_energy_gradient",
                        lambda *args: calls.append(1) or gradient(*args))
    fw.action_first_variation(traj, np.zeros(traj.U.shape), np.zeros(traj.gamma.shape))
    assert len(calls) == traj.nlev - 2


def test_action_variation_shape_guard(traj):
    with pytest.raises(fw.ShapeMismatch):
        fw.action_first_variation(traj, np.zeros(traj.U.shape), np.zeros(traj.gamma.shape[1:]))


def test_discrete_action_finite_and_stationary_scale(traj):
    I = fw.discrete_action(traj)
    assert np.isfinite(I)


# -- 2D ------------------------------------------------------------------------------


def ring_doc(nx=16, b=0.0):
    """A 1 m x 0.5 m periodic ring with mode-2 sine data along x, which
    meets the wrap smoothly; dt shrinks with dx."""
    return {
        "grid": {"nx": nx, "ny": nx // 2, "dx": 1.0 / nx, "dy": 1.0 / nx},
        "material": {"rho0": 1.0, "c1": 1.0, "c2": 1.0, "b": b, "lambda": 1.0,
                     "d1": 0.1, "d2": 0.05},
        "time": {"dt": 0.064 / nx, "t_end": 0.08},
        "ic": {"U": {"type": "sine", "amplitude": 0.01, "mode": 2},
               "gamma": {"type": "sine", "amplitude": 0.5, "mode": 2}},
        "bc": {side: {"type": "periodic"} for side in ("u_left", "u_right", "gamma")},
        "output": {"snapshots": 2},
    }


def test_2d_ring_residuals_converge():
    # the displacement residual is roundoff; at b = 0 the damage residual
    # is Crank-Nicolson's O(dt^2) remainder
    norms_U, norms_G = [], []
    for nx in (16, 32, 64):
        res = fw.lagrange_residual(fw.record_trajectory(fw.build_scenario(ring_doc(nx))))
        norms_U.append(float(np.max(res.norms_U)))
        norms_G.append(float(np.max(res.norms_gamma)))
    assert max(norms_U) <= 1e-11
    assert all(norms_G[i] / norms_G[i + 1] >= 3.5 for i in range(2))


def test_2d_ring_reduction_and_action_identities():
    t = fw.record_trajectory(fw.build_scenario(ring_doc(16, b=0.5)))
    assert t.U.shape == (t.nlev, 8, 16)
    assert _nodal_gap(t) < 1e-12
    rng = np.random.default_rng(3)
    dU, dG = np.zeros_like(t.U), np.zeros_like(t.gamma)
    dU[1:-1] = 1e-3 * rng.standard_normal(dU[1:-1].shape)  # every cell
    dG[1:-1] = 1e-3 * rng.standard_normal(dG[1:-1].shape)
    delta_I, inner = fw.action_first_variation(t, dU, dG)
    assert delta_I == pytest.approx(inner, abs=1e-15)
    assert abs(inner) > 1e-14
