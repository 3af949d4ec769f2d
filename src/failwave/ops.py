"""Discrete grid operators: ghost cells, face gradients, divergence, face
quadrature weights, and banded parabolic solves.

Fields live at cell centers; strains, fluxes, and conductivities live at
faces. The face gradient and the cell divergence form a summation-by-parts
pair,

    sum_i (div F)_i u_i dx = -sum_f F_f (grad u)_f dx + F_R u_{N-1} - F_L u_0,

with the boundary value taken from the adjacent cell. That adjointness makes
the discrete damage force exactly the gradient of the discrete free energy,
which the variational checks depend on.

All functions are pure, arrays in and arrays out, except the fill function
strain_rule returns, which writes into the buffer it is given.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import NonFiniteState

# -- boundary-condition protocol helpers ------------------------------------
# The rules are resolved from a BC dict once, to constants or functions of
# the clock, so a run does not dispatch on the wall types per step.


def traction_at(spec: dict, t: float) -> float:
    """Prescribed boundary stress (Pa) at time t, with optional linear ramp
    and optional shutoff time after which the face is traction-free."""
    T = spec["value"]
    ramp = spec.get("ramp", 0.0)
    if ramp > 0.0:
        T *= min(1.0, t / ramp)
    if "until" in spec and t > spec["until"]:
        T = 0.0
    return T


def stress_rules(bc: dict) -> tuple:
    """The boundary faces whose stress is prescribed, as (face index,
    stress(t)) pairs: 0 on free faces, the traction protocol on traction
    faces."""
    rules = []
    for side, idx in (("u_left", 0), ("u_right", -1)):
        spec = bc[side]
        if spec["type"] == "free":
            rules.append((idx, lambda t: 0.0))
        elif spec["type"] == "traction":
            rules.append((idx, partial(traction_at, spec)))
    return tuple(rules)


def _wall_strain(spec: dict, left: bool, dx: float):
    """One wall's face strain as a function (e, u, t) of the face strains
    and cells along x (x-first views) and the time."""
    kind = spec["type"]
    if kind == "free":
        return lambda e, u, t: 0.0
    if kind == "traction":  # a placeholder: the face stress is prescribed
        return (lambda e, u, t: e[1]) if left else (lambda e, u, t: e[-2])
    value = spec["value"]
    wall = (lambda t: value * t) if kind == "velocity" else (lambda t: value)
    if left:
        return lambda e, u, t: 2.0 * (u[0] - wall(t)) / dx
    return lambda e, u, t: 2.0 * (wall(t) - u[-1]) / dx


def strain_rule(bc: dict, dx: float):
    """strain_faces with bc's wall rules resolved once: returns
    fill(U, t, eps), which writes the face strains of U at time t into eps
    (shape (..., nx+1)) and returns it."""
    if bc["u_left"]["type"] == "periodic":
        def walls(e, u, t):
            e[0] = (u[0] - u[-1]) / dx
            e[-1] = e[0]
    else:
        left = _wall_strain(bc["u_left"], True, dx)
        right = _wall_strain(bc["u_right"], False, dx)

        def walls(e, u, t):
            e[0] = left(e, u, t)
            e[-1] = right(e, u, t)

    def fill(U, t, eps):
        inner = eps[..., 1:-1]
        np.subtract(U[..., 1:], U[..., :-1], out=inner)
        np.divide(inner, dx, out=inner)
        walls(eps.T, U.T, t)  # x first: u[0] is the left cell of every row
        return eps

    return fill


# -- faces and cells along the last axis -------------------------------------


def face_mean(F: np.ndarray) -> np.ndarray:
    """Cell values as the mean of the two adjacent faces (last axis)."""
    return 0.5 * (F[..., :-1] + F[..., 1:])


def div_faces(F: np.ndarray, dh: float) -> np.ndarray:
    """Cell divergence of face values along the last axis."""
    return (F[..., 1:] - F[..., :-1]) / dh


# -- strain at faces -----------------------------------------------------------


def strain_faces(U: np.ndarray, grid, bc: dict, t: float) -> np.ndarray:
    """Face strains (U_{i+1} - U_i)/dx along x, the last axis: shape (nx+1,),
    or (ny, nx+1) row by row in 2D.

    fixed/velocity walls use the mirror ghost 2g - U_adj, so the boundary
    face strain is 2(U_adj - g)/dx (toward the wall at the right end), with
    g the wall value, or value*t for a velocity wall. free faces carry
    strain 0; traction faces copy the nearest interior face (a placeholder:
    their stress is prescribed, not computed, and they are excluded from the
    energy quadrature).
    """
    eps = np.empty(U.shape[:-1] + (U.shape[-1] + 1,))
    return strain_rule(bc, grid.dx)(U, t, eps)


def strain_cells(U: np.ndarray, grid, bc: dict, t: float) -> np.ndarray:
    """Cell-centered strain: mean of the two adjacent face strains."""
    return face_mean(strain_faces(U, grid, bc, t))


# -- damage field: face values, gradients, conductivity ----------------------
# Along the last axis: cells (..., n), faces (..., n+1). The helpers index
# the transpose, whose first axis is that last axis, so x.T[0] is the first
# cell of every line: a scalar in 1D, a column in 2D.


def gamma_grad_faces(gamma: np.ndarray, dh: float, bc_g: dict) -> np.ndarray:
    """Face gradients (Γ_{i+1} - Γ_i)/dh with BC ghosts: the periodic image,
    the wall cell itself at a zero-flux wall (even reflection), 2w - Γ at a
    dirichlet wall of value w."""
    n = gamma.shape[-1]
    grad = np.empty(gamma.shape[:-1] + (n + 1,))
    grad[..., 1:n] = (gamma[..., 1:] - gamma[..., :-1]) / dh
    g, out = gamma.T, grad.T
    kind = bc_g["type"]
    gl, gr = (g[-1], g[0]) if kind == "periodic" else (g[0], g[-1])
    if kind == "dirichlet":
        value = bc_g.get("value", 0.0)
        gl, gr = 2.0 * value - g[0], 2.0 * value - g[-1]
    out[0] = (g[0] - gl) / dh
    out[n] = (gr - g[-1]) / dh
    return grad


def gamma_face_values(gamma: np.ndarray, bc_g: dict) -> np.ndarray:
    """Face-centered Γ: mean of adjacent cells. A wall face carries its wall
    cell's Γ, whatever the damage BC: the derivative of the free energy's
    cell cross term b*face_mean(eps)*Γ at the wall face. A ring's wrap face
    is the mean of the first and last cells."""
    n = gamma.shape[-1]
    out = np.empty(gamma.shape[:-1] + (n + 1,))
    out[..., 1:n] = 0.5 * (gamma[..., 1:] + gamma[..., :-1])
    g, o = gamma.T, out.T
    if bc_g["type"] == "periodic":
        o[0] = o[n] = 0.5 * (g[0] + g[-1])
    else:
        o[0], o[n] = g[0], g[-1]
    return out


def face_conductivity(active: np.ndarray, k: float, bc_g: dict) -> np.ndarray:
    """Face conductivity, zero unless both adjacent cells are active.

    Boundary faces follow the single adjacent cell (periodic wraps)."""
    a = active.T
    lo, hi = (a[-1:], a[:1]) if bc_g["type"] == "periodic" else (a[:1], a[-1:])
    a = np.concatenate((lo, a, hi))  # ghost cells: the wall cell, or its periodic image
    return np.where(a[1:] & a[:-1], k, 0.0).T


def damage_flux_div(gamma: np.ndarray, K: np.ndarray, dh: float, bc_g: dict) -> np.ndarray:
    """Div(K grad Γ) at cells; equals -Div(B) with B = -K grad Γ."""
    return div_faces(K * gamma_grad_faces(gamma, dh, bc_g), dh)


def grid_conductivity(active: np.ndarray, ks, grid, bc_g: dict) -> tuple:
    """Face conductivities of every grid axis, ks = (k1, k2) per axis."""
    return tuple(
        ax.view(face_conductivity(ax.view(active), k, bc_g))
        for ax, k in zip(grid.axes, ks)
    )


def grid_flux_div(gamma: np.ndarray, K: tuple, grid, bcs) -> np.ndarray:
    """Div(K grad Γ) at cells, summed over the grid axes (one face array and
    one damage BC per axis)."""
    parts = [
        ax.view(damage_flux_div(ax.view(gamma), ax.view(Ka), ax.h, bc))
        for ax, Ka, bc in zip(grid.axes, K, bcs)
    ]
    return sum(parts[1:], parts[0])


# -- energy quadrature weights ----------------------------------------------


def face_weights_gamma(bc_g: dict, n: int, dh: float) -> np.ndarray:
    """Quadrature weights for the damage-gradient energy along one axis of n
    cells: interior faces dh, dirichlet walls dh/2, zero-flux walls dh/2
    (their gradient is zero anyway), periodic counts n unique faces."""
    w = np.full(n + 1, dh)
    if bc_g["type"] == "periodic":
        w[-1] = 0.0
    else:
        w[0] = 0.5 * dh
        w[-1] = 0.5 * dh
    return w


def energy_weights(bc: dict, grid) -> tuple:
    """The free energy's face quadrature weights: (strain weights along x,
    damage-gradient weights of each grid axis).

    Interior strain faces weigh dx. Displacement walls (fixed/velocity)
    weigh dx/2, which makes the semi-discrete power balance exact against
    the mirror ghost. Free and traction faces are excluded (their work
    enters the budget through the boundary-work term instead). Periodic
    counts nx unique faces.
    """
    w_gamma = tuple(face_weights_gamma(bc["gamma"], ax.n, ax.h) for ax in grid.axes)
    w_u = np.full(grid.nx + 1, grid.dx)
    if bc["u_left"]["type"] == "periodic":
        w_u[-1] = 0.0
        return w_u, w_gamma
    for side, idx in (("u_left", 0), ("u_right", -1)):
        w_u[idx] = 0.5 * grid.dx if bc[side]["type"] in ("fixed", "velocity") else 0.0
    return w_u, w_gamma


# -- banded parabolic solves --------------------------------------------------


class LineFactor(NamedTuple):
    lu: tuple  # dpttrf's (d, e), the LDLᵀ factor of all lines joined into one system
    ghost: Optional[tuple]  # dirichlet constants of the (first, last) cells
    sm: Optional[tuple]  # periodic Sherman-Morrison terms (w, v_coef, denom)


def factor_lines(K, react, a: float, s: float, dh: float, bc_g: dict) -> LineFactor:
    """Factor (a + react/2 - s*L) for each line of react at once.

    K holds face conductivities, shape (..., n+1); react the cell reaction,
    shape (..., n), one line of n cells along the last axis per leading
    index. The operator is symmetric positive definite, and the lines become
    one tridiagonal system with zero coupling between them, so a single
    LAPACK dpttrf call factors every line as LDLᵀ (no pivoting) and
    solve_lines reuses the factor for any number of right-hand sides.
    Dirichlet values enter through the ghost 2g - x_adj, whose constant is
    returned as .ghost, not applied (solve_lines is homogeneous); periodic
    lines wrap via a Sherman-Morrison rank-1 update, whose matrix-only solve
    is done here once. Raises NonFiniteState on a non-finite operator or one
    that is not positive definite.
    """
    kind = bc_g["type"]
    cl = K[..., :-1] / dh**2  # left face of each cell
    cr = K[..., 1:] / dh**2  # right face
    if kind == "zero_flux":
        cl[..., 0] = 0.0  # no flux through the walls
        cr[..., -1] = 0.0
    diag = a + 0.5 * react + s * (cl + cr)
    off = -s * cr  # A[i, i+1] = A[i+1, i]: both read the face between them
    ghost = sm = None
    if kind == "dirichlet":
        # the ghost doubles the wall coupling and adds a constant
        g = bc_g.get("value", 0.0)
        diag[..., 0] += s * cl[..., 0]
        diag[..., -1] += s * cr[..., -1]
        ghost = (2.0 * s * cl[..., 0] * g, 2.0 * s * cr[..., -1] * g)
    elif kind == "periodic":
        # B = A + u uᵀ/d0, u = (-d0, 0, .., corner), drops A's corners and stays SPD
        corner = -s * K[..., 0] / dh**2  # A[0, n-1] = A[n-1, 0]
        gam = -diag[..., 0]
        diag[..., 0] -= gam
        diag[..., -1] -= corner * corner / gam
    if not np.isfinite(diag).all():  # every coupling also enters diag
        raise NonFiniteState("damage operator")
    off[..., -1] = 0.0  # lines do not couple
    *lu, info = dpttrf(diag.ravel(), off.ravel()[:-1])
    if info > 0:
        raise NonFiniteState(f"damage operator (not positive definite at row {info - 1})")
    if kind == "periodic":
        u = np.zeros_like(diag)
        u[..., 0] = gam
        u[..., -1] = corner
        w = dpttrs(*lu, u.ravel())[0].reshape(diag.shape)
        v_coef = corner / gam
        sm = (w, v_coef, 1.0 + (w[..., 0] + v_coef * w[..., -1]))
    return LineFactor(tuple(lu), ghost, sm)


def solve_lines(fac: LineFactor, rhs: np.ndarray) -> np.ndarray:
    """Solve the factored line systems for a (..., n) right-hand side; the
    dirichlet constants fac.ghost are the caller's to add (damage_step adds
    them to b)."""
    if not np.isfinite(rhs).all():
        raise NonFiniteState("damage right-hand side")
    x = dpttrs(*fac.lu, rhs.ravel())[0].reshape(rhs.shape)
    if fac.sm is not None:
        w, v_coef, denom = fac.sm
        x = x - w * ((x[..., 0] + v_coef * x[..., -1]) / denom)[..., None]
    return x


_ZERO_FLUX = {"type": "zero_flux"}
_HOMOGENEOUS_DIRICHLET = {"type": "dirichlet", "value": 0.0}


def active_box(active: np.ndarray):
    """Bounding box of the active cells, one slice per array axis; None when
    no cell is active."""
    if not active.any():
        return None
    box = []
    for dim in range(active.ndim):
        other = tuple(d for d in range(active.ndim) if d != dim)
        hit = np.flatnonzero(active.any(axis=other))
        box.append(slice(int(hit[0]), int(hit[-1]) + 1))
    return tuple(box)


def _three_cells(s: slice, n: int) -> slice:
    """s, or a slice of 3 cells inside [0, n) that covers it (n >= 3)."""
    if s.stop - s.start >= 3:
        return s
    start = min(s.start, n - 3)
    return slice(start, start + 3)


class DamageOperator(NamedTuple):
    """The Crank-Nicolson damage operator of one active set, restricted to
    the bounding box of its active cells: A = D - L/2, with D = lam/dt +
    react/2 and L the sum of every grid axis's flux divergence. K (one face
    array per grid axis), coef, diag and fac cover the box only; bc is the
    damage BC of each grid axis at the box edges."""

    box: tuple  # one slice per array axis
    K: tuple
    bc: tuple
    coef: np.ndarray  # C = lam/dt - react/2, the explicit diagonal
    diag: np.ndarray  # D = lam/dt + react/2
    fac: tuple  # factor_lines of D - L_a/2 per axis, its dirichlet constants included


def damage_operator(active, K, react, lam: float, dt: float, grid, bc_g: dict):
    """Restrict the damage operator (face conductivity K per grid axis, cell
    reaction react) to the box of the active cells and factor each axis's
    D - L_a/2 there; None when no cell is active.

    Cells outside the box are inactive, so they keep their Γ. Every face on
    a box edge that is not a wall has such a cell on its far side, hence
    K = 0 and the zero-flux closure there is exact; a periodic axis keeps
    its wrap only when the box spans it.
    """
    box = active_box(active)
    if box is None:
        return None
    # scipy's dpttrf rejects a system of one unknown: pad with inactive cells
    box = tuple(_three_cells(s, n) for s, n in zip(box, active.shape))
    react = react[box]
    a = lam / dt
    Kb, bcs, facs = [], [], []
    for i, (ax, Ka) in enumerate(zip(grid.axes, K)):
        dim = active.ndim - 1 - i  # x is the last array axis, y the first
        s = box[dim]
        Ka = Ka[box[:dim] + (slice(s.start, s.stop + 1),) + box[dim + 1:]]
        spans = s.stop - s.start == active.shape[dim]
        bc = bc_g if spans or bc_g["type"] != "periodic" else _ZERO_FLUX
        Kb.append(Ka)
        bcs.append(bc)
        facs.append(factor_lines(ax.view(Ka), ax.view(react), a, 0.5, ax.h, bc))
    return DamageOperator(box, tuple(Kb), tuple(bcs), a - 0.5 * react, a + 0.5 * react, tuple(facs))


def damage_rhs(gamma: np.ndarray, op: DamageOperator, grid):
    """The source-free part of a damage step's right-hand side on op's box
    (gamma is the box's cells): the pair (C Γ, L Γ / 2), with the dirichlet
    ghosts inside L. It holds for every iteration of the step."""
    return op.coef * gamma, 0.5 * grid_flux_div(gamma, op.K, grid, op.bc)


def damage_step(rhs0: tuple, source: np.ndarray, op: DamageOperator, grid, prev=None):
    """One correction towards the Crank-Nicolson damage step on op's box,
    (D - L/2) Γ = b with b = C Γ0 + L Γ0 / 2 + g + source: rhs0 is
    damage_rhs's pair, g the dirichlet constants (each axis's
    LineFactor.ghost, added here and nowhere else, so every line solve is
    homogeneous), and source is zero on inactive cells (K and
    react are zero there too, so frozen cells reduce to identity rows).

    Solves M Γ = b + (M - A) Γk with M = (D - Lx/2) D^-1 (D - Ly/2), the
    approximate factorisation of A = D - L/2: an x solve, a multiply by D,
    a y solve. In 1D M = A and one correction is the exact step. In 2D the
    cross term M - A = Lx D^-1 Ly / 4 costs one flux divergence, since the
    previous y solve gives Ly Γk = 2 D (Γk - xk), xk its x-sweep result;
    the corrections contract each mode by mu_x mu_y / ((1+mu_x)(1+mu_y)).
    prev is the previous return value (Γk, xk), None for the first one.
    Returns (Γ, x), x None in 1D.
    """
    explicit, half_div = rhs0
    b = (explicit + source) + half_div
    for ax, fac in zip(grid.axes, op.fac):
        if fac.ghost is not None:
            view = ax.view(b)
            view[..., 0] += fac.ghost[0]
            view[..., -1] += fac.ghost[1]
    if prev is not None and prev[1] is not None:  # Lx D^-1 Ly Γk / 4, homogeneous
        bc = _HOMOGENEOUS_DIRICHLET if op.bc[0]["type"] == "dirichlet" else op.bc[0]
        b += 0.5 * damage_flux_div(prev[0] - prev[1], op.K[0], grid.axes[0].h, bc)
    x = solve_lines(op.fac[0], b)  # x lines run along the last array axis
    if len(op.fac) == 1:
        return x, None
    y = grid.axes[1]
    return y.view(solve_lines(op.fac[1], y.view(op.diag * x))), x
