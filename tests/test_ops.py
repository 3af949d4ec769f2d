"""Factored line solves of the implicit damage operator: agreement with a
dense assembly of each line, backward stability on stiff lines, factor
reuse, and the finite-value and positive-definiteness guards."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import failwave as fw
from failwave import ops

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
    """(a + react/2 - s*L, s*c): L assembled column by column from the
    explicit flux divergence, c its affine part (the dirichlet ghost)."""
    n = react_line.size
    c = ops.damage_flux_div(np.zeros(n), K_line, dh, bc_g)
    L = np.column_stack(
        [ops.damage_flux_div(e, K_line, dh, bc_g) - c for e in np.eye(n)]
    )
    return np.diag(a + 0.5 * react_line) - s * L, s * c


def _scale(x):
    """The relative bound's scale: max |x|, floored at the smallest normal
    float (subnormals carry fewer than 53 significant bits, so no relative
    bound holds among them)."""
    return max(float(np.max(np.abs(x))), np.finfo(float).tiny)


@settings(max_examples=150, deadline=None)
@given(line_systems())
def test_factored_lines_match_dense_solve(sys_):
    # the line solve is homogeneous; the factor hands the dirichlet ghost's
    # constants (the affine part of s*L) to the caller as .ghost
    args = (sys_["a"], sys_["s"], sys_["dh"], sys_["bc_g"])
    fac = ops.factor_lines(sys_["K"], sys_["react"], *args)
    lines = [_dense_system(K, react, *args) for K, react in zip(sys_["K"], sys_["react"])]
    constants = np.array([c for _, c in lines])
    if fac.ghost is None:
        assert not constants.any()
    else:
        assert np.array_equal(constants[:, 1:-1], np.zeros_like(constants[:, 1:-1]))
        for got, want in zip(fac.ghost, (constants[:, 0], constants[:, -1])):
            assert float(np.max(np.abs(got - want))) <= 1e-12 * _scale(want)
    for rhs in sys_["rhs"]:
        x = ops.solve_lines(fac, rhs)
        dense = np.array([np.linalg.solve(A, b) for (A, _), b in zip(lines, rhs)])
        assert float(np.max(np.abs(x - dense))) <= 1e-12 * _scale(dense)


@settings(max_examples=50, deadline=None)
@given(line_systems())
def test_reused_factor_equals_fresh_factor(sys_):
    args = (sys_["K"], sys_["react"], sys_["a"], sys_["s"], sys_["dh"], sys_["bc_g"])
    first, second = sys_["rhs"]
    kept = second.copy()
    fac = ops.factor_lines(*args)
    ops.solve_lines(fac, first)
    reused = ops.solve_lines(fac, second)
    fresh = ops.solve_lines(ops.factor_lines(*args), second)
    assert np.array_equal(reused, fresh)
    assert np.array_equal(second, kept)  # the right-hand side is not consumed


def test_non_finite_operator_or_rhs_is_typed():
    K = np.ones((2, 6))
    react = np.zeros((2, 5))
    bc_g = {"type": "zero_flux"}
    fac = ops.factor_lines(K, react, 1.0, 0.5, 0.1, bc_g)
    rhs = np.ones((2, 5))
    rhs[1, 2] = np.nan
    with pytest.raises(fw.NonFiniteState, match="right-hand side"):
        ops.solve_lines(fac, rhs)
    K[0, 3] = np.inf
    with pytest.raises(fw.NonFiniteState, match="operator"):
        ops.factor_lines(K, react, 1.0, 0.5, 0.1, bc_g)


def test_indefinite_operator_is_typed():
    # a < 0 makes the zero-flux operator indefinite (its constant mode has
    # the eigenvalue a); the LDLᵀ factor needs positive definiteness
    K = np.ones((2, 6))
    react = np.zeros((2, 5))
    with pytest.raises(fw.NonFiniteState, match="positive definite"):
        ops.factor_lines(K, react, -1.0, 0.5, 0.1, {"type": "zero_flux"})


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
    x = ops.solve_lines(ops.factor_lines(sys_["K"], sys_["react"], *args), sys_["rhs"])
    eps = np.finfo(float).eps
    for K, react, xl, b in zip(sys_["K"], sys_["react"], x, sys_["rhs"]):
        A, _ = _dense_system(K, react, *args)
        scale = np.max(np.abs(A).sum(axis=1)) * _scale(xl) + _scale(b)
        assert float(np.max(np.abs(A @ xl - b))) <= 8 * eps * scale


# -- the damage step on the active box ---------------------------------------------


@st.composite
def box_steps(draw):
    """A damage step on a random 1D or 2D grid: an active mask that is empty,
    full, scattered or a block (touching a wall when its bounds are 0 or
    n), conductivities masked by it, a reaction and a source on active
    cells, and Γ everywhere."""
    if draw(st.booleans()):
        n = (draw(st.integers(3, 6)), draw(st.integers(3, 6)))
        grid = fw.Grid(n, (draw(st.floats(0.2, 1.0)), draw(st.floats(0.2, 1.0))), (0.0, 0.0))
    else:
        grid = fw.Grid((draw(st.integers(3, 9)),), (draw(st.floats(0.2, 1.0)),), (0.0,))
    shape = grid.shape
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
    return {
        "grid": grid,
        "active": active,
        "bc_g": bc_g,
        "K": ops.grid_conductivity(active, ks, grid, bc_g),
        "react": np.where(active, draw(st.floats(0.0, 5.0)), 0.0),
        "source": np.where(active, draw(hnp.arrays(float, shape, elements=unit)), 0.0),
        "gamma": draw(hnp.arrays(float, shape, elements=unit)),
        "lam": draw(st.floats(0.5, 50.0)),
    }


def _affine(apply, shape):
    """(M, c) with apply(x) = M x.ravel() + c for every x of the given shape."""
    c = apply(np.zeros(shape)).ravel()
    cols = [apply(e.reshape(shape)).ravel() - c for e in np.eye(int(np.prod(shape)))]
    return np.column_stack(cols), c


def _dense_step(sys_):
    """The full-grid Crank-Nicolson step with dt = 1: (D - L/2) x = (C + L/2) Γ
    + c + source, with L the sum of every axis's flux divergence, assembled
    densely from its explicit form, and c its affine part (the dirichlet
    ghosts; the explicit side's half comes with the divergence of Γ)."""
    grid, bc_g, K = sys_["grid"], sys_["bc_g"], sys_["K"]
    g, r, src, lam = sys_["gamma"], sys_["react"], sys_["source"], sys_["lam"]

    def div(x):
        return ops.grid_flux_div(x, K, grid, [bc_g] * len(K))

    L, c = _affine(div, g.shape)
    A = np.diag(lam + 0.5 * r.ravel()) - 0.5 * L
    rhs = ((lam - 0.5 * r) * g + src + 0.5 * div(g)).ravel() + 0.5 * c
    return np.linalg.solve(A, rhs).reshape(g.shape)


def _converged_step(sys_, op):
    """Iterate damage_step's corrections on op's box until they stop
    shrinking (one correction in 1D, where it is exact)."""
    grid, gamma = sys_["grid"], sys_["gamma"]
    g = gamma[op.box]
    rhs0 = ops.damage_rhs(g, op, grid)
    prev = ops.damage_step(rhs0, sys_["source"][op.box], op, grid)
    if prev[1] is None:
        return prev[0]
    steps = []
    while len(steps) < 20000:
        nxt = ops.damage_step(rhs0, sys_["source"][op.box], op, grid, prev)
        steps.append(float(np.max(np.abs(nxt[0] - prev[0]))))
        prev = nxt
        # stop at roundoff: no progress over the last 50 corrections
        if steps[-1] == 0.0 or (len(steps) > 50 and min(steps[-50:]) >= min(steps[:-50])):
            break
    return prev[0]


@settings(max_examples=150, deadline=None)
@given(box_steps())
def test_active_box_step_matches_dense_full_grid_step(sys_):
    grid, gamma = sys_["grid"], sys_["gamma"]
    op = ops.damage_operator(sys_["active"], sys_["K"], sys_["react"], sys_["lam"], 1.0, grid,
                             sys_["bc_g"])
    out = gamma.copy()
    inside = np.zeros(gamma.shape, dtype=bool)
    if op is not None:
        out[op.box] = _converged_step(sys_, op)
        inside[op.box] = True
        assert sys_["active"][~inside].sum() == 0  # the box holds every active cell
    else:
        assert not sys_["active"].any()
    assert np.array_equal(out[~inside], gamma[~inside])  # frozen cells, bit for bit
    dense = _dense_step(sys_)
    assert float(np.max(np.abs(out - dense))) <= 1e-12 * _scale(dense)
