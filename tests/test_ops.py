"""Factored line solves of the implicit damage operator: agreement with a
dense assembly of each line, factor reuse, and the finite-value guard."""

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


def _dense_solve(K_line, react_line, a, s, dh, bc_g, rhs_line):
    """Solve (a + react/2 - s*L) x = rhs with L assembled column by column
    from the explicit flux divergence; its affine part (the dirichlet ghost)
    moves to the right-hand side."""
    n = react_line.size
    c = ops.damage_flux_div(np.zeros(n), K_line, dh, bc_g)
    L = np.column_stack(
        [ops.damage_flux_div(e, K_line, dh, bc_g) - c for e in np.eye(n)]
    )
    A = np.diag(a + 0.5 * react_line) - s * L
    return np.linalg.solve(A, rhs_line + s * c)


@settings(max_examples=150, deadline=None)
@given(line_systems())
def test_factored_lines_match_dense_solve(sys_):
    fac = ops.factor_lines(sys_["K"], sys_["react"], sys_["a"], sys_["s"], sys_["dh"], sys_["bc_g"])
    for rhs in sys_["rhs"]:
        x = ops.solve_lines(fac, rhs)
        dense = np.array([
            _dense_solve(sys_["K"][j], sys_["react"][j], sys_["a"], sys_["s"], sys_["dh"],
                         sys_["bc_g"], rhs[j])
            for j in range(rhs.shape[0])
        ])
        scale = float(np.max(np.abs(dense)))
        assert float(np.max(np.abs(x - dense))) <= 1e-12 * scale


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
