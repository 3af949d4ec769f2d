"""Factored line solves of the implicit damage operator: agreement with a
dense assembly of each line, backward stability on stiff lines, factor
reuse, and the finite-value and positive-definiteness guards. And the wall
table: each displacement wall kind's weight, velocity and prescribed stress,
and each damage wall kind's ghost cells."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import failwave as fw
from failwave import ops, solver

BC_KINDS = ("zero_flux", "dirichlet", "periodic")


def _bc(kind, g):
    return {"type": kind, "value": g} if kind == "dirichlet" else {"type": kind}


@st.composite
def line_systems(draw):
    """Random (m, n) line systems; some faces carry K = 0, as for inactive
    cells, and periodic lines share their wrap face."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(3, 9))
    kind = draw(st.sampled_from(BC_KINDS))
    conductivity = st.one_of(st.just(0.0), st.floats(0.0, 5.0))
    K = draw(hnp.arrays(float, (m, n + 1), elements=conductivity))
    if kind == "periodic":
        K[:, -1] = K[:, 0]
    react = draw(hnp.arrays(float, (m, n), elements=st.floats(0.0, 5.0)))
    rhs = [draw(hnp.arrays(float, (m, n), elements=st.floats(-1.0, 1.0))) for _ in range(2)]
    return {
        "K": K,
        "react": react,
        "a": draw(st.floats(0.5, 50.0)),
        "s": draw(st.sampled_from([0.5, 1.0])),
        "dh": draw(st.floats(0.2, 1.0)),
        "bc_g": _bc(kind, draw(st.floats(-1.0, 1.0))),
        "rhs": rhs,
    }


def _dense_system(K_line, react_line, a, s, dh, bc_g):
    """a + react/2 - s*L, with L the homogeneous part of the explicit flux
    divergence (a dirichlet wall's constant taken out), assembled column by
    column."""
    n = react_line.size
    c = ops.damage_flux_div(np.zeros(n), K_line, dh, bc_g)
    L = np.column_stack(
        [ops.damage_flux_div(e, K_line, dh, bc_g) - c for e in np.eye(n)]
    )
    return np.diag(a + 0.5 * react_line) - s * L


def _factor(K, react, a, s, dh, bc_g):
    """The factor of (a + react/2 - s*L) on every line of react."""
    return ops.factor_lines(ops.line_coupling(K, s, dh, bc_g), a + 0.5 * react)


def _scale(x):
    """The relative bound's scale: max |x|, floored at the smallest normal
    float (subnormals carry fewer than 53 significant bits, so no relative
    bound holds among them)."""
    return max(float(np.max(np.abs(x))), np.finfo(float).tiny)


@settings(max_examples=150, deadline=None)
@given(line_systems())
def test_factored_lines_match_dense_solve(sys_):
    args = (sys_["a"], sys_["s"], sys_["dh"], sys_["bc_g"])
    fac = _factor(sys_["K"], sys_["react"], *args)
    lines = [_dense_system(K, react, *args) for K, react in zip(sys_["K"], sys_["react"])]
    for rhs in sys_["rhs"]:
        x = ops.solve_lines(fac, rhs)
        dense = np.array([np.linalg.solve(A, b) for A, b in zip(lines, rhs)])
        assert float(np.max(np.abs(x - dense))) <= 1e-12 * _scale(dense)


@settings(max_examples=50, deadline=None)
@given(line_systems())
def test_reused_factor_equals_fresh_factor(sys_):
    args = (sys_["K"], sys_["react"], sys_["a"], sys_["s"], sys_["dh"], sys_["bc_g"])
    first, second = sys_["rhs"]
    kept = second.copy()
    fac = _factor(*args)
    ops.solve_lines(fac, first)
    reused = ops.solve_lines(fac, second)
    fresh = ops.solve_lines(_factor(*args), second)
    assert np.array_equal(reused, fresh)
    assert np.array_equal(second, kept)  # the right-hand side is not consumed


def test_non_finite_operator_or_rhs_is_typed():
    K = np.ones((2, 6))
    react = np.zeros((2, 5))
    bc_g = {"type": "zero_flux"}
    fac = _factor(K, react, 1.0, 0.5, 0.1, bc_g)
    rhs = np.ones((2, 5))
    rhs[1, 2] = np.nan
    with pytest.raises(fw.NonFiniteState, match="right-hand side"):
        ops.solve_lines(fac, rhs)
    K[0, 3] = np.inf
    with pytest.raises(fw.NonFiniteState, match="operator"):
        _factor(K, react, 1.0, 0.5, 0.1, bc_g)


def test_indefinite_operator_is_typed():
    # a < 0 makes the zero-flux operator indefinite (its constant mode has
    # the eigenvalue a); the LDLᵀ factor needs positive definiteness
    K = np.ones((2, 6))
    react = np.zeros((2, 5))
    with pytest.raises(fw.NonFiniteState, match="positive definite"):
        _factor(K, react, -1.0, 0.5, 0.1, {"type": "zero_flux"})


@st.composite
def stiff_line_systems(draw):
    """Line systems whose diffusion ratios K/(a dh²) span 1 to 1e6 face by
    face (impact_k8 steps at about 12.5), with one right-hand side."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(3, 12))
    kind = draw(st.sampled_from(BC_KINDS))
    a = draw(st.floats(0.5, 50.0))
    dh = draw(st.floats(0.2, 1.0))
    ratio = hnp.arrays(float, (m, n + 1), elements=st.floats(0.0, 6.0))
    K = 10.0 ** draw(ratio) * a * dh**2
    if kind == "periodic":
        K[:, -1] = K[:, 0]
    return {
        "K": K,
        "react": draw(hnp.arrays(float, (m, n), elements=st.floats(0.0, 5.0))),
        "a": a,
        "s": draw(st.sampled_from([0.5, 1.0])),
        "dh": dh,
        "bc_g": _bc(kind, draw(st.floats(-1.0, 1.0))),
        "rhs": draw(hnp.arrays(float, (m, n), elements=st.floats(-1.0, 1.0))),
    }


@settings(max_examples=300, deadline=None)
@given(stiff_line_systems())
def test_stiff_line_solve_is_backward_stable(sys_):
    # LDLᵀ runs without pivoting: its residual must stay at roundoff of the
    # operator's scale however stiff the lines are. A residual bound, not a
    # forward one: at these ratios the error against a dense solve measures
    # the conditioning.
    args = (sys_["a"], sys_["s"], sys_["dh"], sys_["bc_g"])
    x = ops.solve_lines(_factor(sys_["K"], sys_["react"], *args), sys_["rhs"])
    eps = np.finfo(float).eps
    for K, react, xl, b in zip(sys_["K"], sys_["react"], x, sys_["rhs"]):
        A = _dense_system(K, react, *args)
        scale = np.max(np.abs(A).sum(axis=1)) * _scale(xl) + _scale(b)
        assert float(np.max(np.abs(A @ xl - b))) <= 8 * eps * scale


# -- the damage step on the active box ---------------------------------------------


@st.composite
def box_steps(draw):
    """A damage step on a random 1D or 2D grid: a scenario with dt = 1, an
    active mask that is empty, full, scattered or a block (touching a wall
    when its bounds are 0 or n), conductivities masked by it, a reaction
    and a source on active cells, and Γ everywhere."""
    if draw(st.booleans()):
        n = (draw(st.integers(3, 6)), draw(st.integers(3, 6)))
        h = (draw(st.floats(0.2, 1.0)), draw(st.floats(0.2, 1.0)))
    else:
        n, h = (draw(st.integers(3, 9)),), (draw(st.floats(0.2, 1.0)),)
    shape = tuple(reversed(n))
    mode = draw(st.sampled_from(("empty", "full", "scattered", "block")))
    if mode == "scattered":
        active = draw(hnp.arrays(bool, shape))
    else:
        active = np.full(shape, mode == "full")
    if mode == "block":
        lo = [draw(st.integers(0, n - 1)) for n in shape]
        hi = [draw(st.integers(l + 1, n)) for l, n in zip(lo, shape)]
        active[tuple(slice(l, h) for l, h in zip(lo, hi))] = True
    bc_g = _bc(draw(st.sampled_from(BC_KINDS)), draw(st.floats(-1.0, 1.0)))
    ks = (draw(st.floats(0.1, 5.0)), draw(st.floats(0.1, 5.0)))
    unit = st.floats(-1.0, 1.0)
    react = np.where(active, draw(st.floats(0.0, 5.0)), 0.0)
    source = np.where(active, draw(hnp.arrays(float, shape, elements=unit)), 0.0)
    gamma = draw(hnp.arrays(float, shape, elements=unit))
    lam = draw(st.floats(0.5, 50.0))
    wall = {"type": "periodic" if bc_g["type"] == "periodic" else "fixed"}
    cfg = fw.build_scenario({
        "grid": dict(zip(("nx", "dx", "ny", "dy"), (v for pair in zip(n, h) for v in pair))),
        "material": {"rho0": 1.0, "c1": 1.0, "lambda": lam, "d1": ks[0] / lam, "d2": ks[1] / lam},
        "time": {"dt": 1.0, "t_end": 1.0},
        "bc": {"u_left": wall, "u_right": wall, "gamma": bc_g},
    })
    p = cfg.material
    return {
        "cfg": cfg,
        "grid": cfg.grid,
        "active": active,
        "bc_g": bc_g,
        "K": ops.grid_conductivity(active, (p.k1, p.k2), cfg.grid, bc_g),
        "react": react,
        "source": source,
        "gamma": gamma,
        "lam": lam,
    }


def _force(sys_):
    """The step's net damage force on the full grid: the flux divergence of
    Γ (dirichlet ghosts included) plus the source; zero on inactive cells."""
    K, bc_g = sys_["K"], sys_["bc_g"]
    return ops.grid_flux_div(sys_["gamma"], K, sys_["grid"], [bc_g] * len(K)) + sys_["source"]


def _dense_increment(sys_, force):
    """The full-grid Crank-Nicolson increment with dt = 1: (D - L/2) d =
    force, with L the homogeneous sum of every axis's flux divergence,
    assembled densely from its explicit form."""
    grid, bc_g, K, shape = sys_["grid"], sys_["bc_g"], sys_["K"], sys_["gamma"].shape

    def div(x):
        return ops.grid_flux_div(x.reshape(shape), K, grid, [bc_g] * len(K)).ravel()

    c = div(np.zeros(shape))
    L = np.column_stack([div(e) - c for e in np.eye(int(np.prod(shape)))])
    A = np.diag(sys_["lam"] + 0.5 * sys_["react"].ravel()) - 0.5 * L
    return np.linalg.solve(A, force.ravel()).reshape(shape)


def _converged_increment(force, plan):
    """Iterate the damage plan's corrections on its box until they stop
    shrinking (one correction in 1D, where it is exact)."""
    prev = plan._correct(force)
    if prev[1] is None:
        return prev[0]
    steps = []
    while len(steps) < 20000:
        nxt = plan._correct(force, prev)
        steps.append(float(np.max(np.abs(nxt[0] - prev[0]))))
        prev = nxt
        # stop at roundoff: no progress over the last 50 corrections
        if steps[-1] == 0.0 or (len(steps) > 50 and min(steps[-50:]) >= min(steps[:-50])):
            break
    return prev[0]


@settings(max_examples=150, deadline=None)
@given(box_steps())
def test_active_box_step_matches_dense_full_grid_step(sys_):
    # the damage plan's box increment, its operator factored with the
    # drawn diagonal, equals the full-grid one fed the same force, and
    # Γ + d keeps every inactive cell bit for bit, inside the box too; the
    # box's conductivity is the full grid's on its faces, bit for bit
    grid, gamma, active = sys_["grid"], sys_["gamma"], sys_["active"]
    plan = solver.DamagePlan(sys_["cfg"], active)
    box = plan.box
    if box is not None:  # dt = 1: D = lam + react/2
        for i, (Kb, K) in enumerate(zip(plan.K, sys_["K"])):
            dim = active.ndim - 1 - i
            s = box[dim]
            assert np.array_equal(Kb, K[box[:dim] + (slice(s.start, s.stop + 1),) + box[dim + 1:]])
        plan._factor(sys_["lam"] + 0.5 * sys_["react"][box])
    force = _force(sys_)
    d = np.zeros(gamma.shape)
    if box is not None:
        d[box] = _converged_increment(force[box], plan)
        inside = np.zeros(gamma.shape, dtype=bool)
        inside[box] = True
        assert not active[~inside].any()  # the box holds every active cell
    else:
        assert not active.any()
    assert np.array_equal((gamma + d)[~active], gamma[~active])  # frozen cells, bit for bit
    dense = _dense_increment(sys_, force)
    assert float(np.max(np.abs(d - dense))) <= 1e-12 * _scale(dense)


# -- the wall table --------------------------------------------------------------

U_WALLS = {
    "fixed": {"type": "fixed", "value": 0.25},
    "velocity": {"type": "velocity", "value": 0.5},
    "free": {"type": "free"},
    "traction": {"type": "traction", "value": -2.0},
    "periodic": {"type": "periodic"},
}
# kind: (energy weight in dx, wall velocity from the wall cell's velocity,
# prescribed face stress at t = 1 or None)
U_RULES = {
    "fixed": (0.5, lambda cell: 0.0, None),
    "velocity": (0.5, lambda cell: 0.5, None),
    "free": (0.0, lambda cell: cell, 0.0),
    "traction": (0.0, lambda cell: cell, -2.0),
}


@pytest.mark.parametrize("kind", fw.model.U_BC_KINDS)
def test_displacement_wall_table(kind):
    grid = fw.Grid((6, 3), (0.5, 0.25), (0.0, 0.0))
    bc = {"u_left": U_WALLS[kind], "u_right": U_WALLS[kind],
          "gamma": {"type": "periodic" if kind == "periodic" else "zero_flux"}}
    sides = ops.walls(bc, grid.dx)
    w_u = ops.energy_weights(bc, grid)[0]
    if kind == "periodic":  # a ring has no wall, and nx unique faces
        assert sides is None
        assert w_u.tolist() == [grid.dx] * grid.nx + [0.0]
        return
    assert (w_u[1:-1] == grid.dx).all()
    weight, velocity, stress = U_RULES[kind]
    v = np.random.default_rng(3).standard_normal(grid.shape)
    for wall, face, normal in zip(sides, (0, -1), (-1.0, 1.0)):
        assert (wall.face, wall.normal) == (face, normal)
        assert wall.weight == weight and w_u[face] == weight * grid.dx
        assert np.array_equal(wall.velocity(v), velocity(v[..., face]))
        if stress is None:
            assert wall.stress is None
        else:
            assert wall.stress(1.0) == stress


@pytest.mark.parametrize("kind", fw.model.GAMMA_BC_KINDS)
def test_damage_wall_ghosts(kind):
    # the cell beyond each end of a line: the wall cell itself (zero flux),
    # 2w - Γ (dirichlet, for the held field Γ only), or the periodic image
    g = np.random.default_rng(5).standard_normal((3, 5))
    bc_g = _bc(kind, 0.75)
    first, last = g[:, 0], g[:, -1]
    lo, hi = {"zero_flux": (first, last), "dirichlet": (1.5 - first, 1.5 - last),
              "periodic": (last, first)}[kind]
    grad = ops.gamma_grad_faces(g, 0.5, bc_g)
    assert np.array_equal(grad[:, 0], (first - lo) / 0.5)
    assert np.array_equal(grad[:, -1], (hi - last) / 0.5)
    # face values and conductivity reflect evenly at a dirichlet wall
    lo, hi = (last, first) if kind == "periodic" else (first, last)
    faces = ops.gamma_face_values(g, bc_g)
    assert np.array_equal(faces[:, 0], 0.5 * (first + lo))
    assert np.array_equal(faces[:, -1], 0.5 * (hi + last))
    active = np.ones(g.shape, dtype=bool)
    active[0, 0] = active[1, -1] = False
    K = ops.face_conductivity(active, 2.0, bc_g)
    ends = [[0.0, 2.0, 2.0], [2.0, 0.0, 2.0]] if kind != "periodic" else [[0.0, 0.0, 2.0]] * 2
    assert K[:, 0].tolist() == ends[0] and K[:, -1].tolist() == ends[1]
