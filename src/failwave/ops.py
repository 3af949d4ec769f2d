"""Discrete grid operators: ghost cells, face gradients, divergence, face
quadrature weights, and banded parabolic solves.

Fields live at cell centers; strains, fluxes, and conductivities live at
faces. The face gradient and the cell divergence form a summation-by-parts
pair,

    sum_i (div F)_i u_i dx = -sum_f F_f (grad u)_f dx + F_R u_{N-1} - F_L u_0,

with the boundary value taken from the adjacent cell. That adjointness makes
the discrete damage force exactly the gradient of the discrete free energy,
which the variational checks depend on.

What a wall kind means is written here once: wall() for the displacement
walls, which the solver's plans, the budget and the verifier read, and
_padded() for the damage walls.

The damage solves stop at the stencils and the line solves (line_coupling,
factor_lines, solve_lines) and at active_box: the Crank-Nicolson operator
they make up, its box, factors and iteration, is solver.DamagePlan's.

All functions are pure, arrays in and arrays out, except the fill function
strain_rule returns, which writes into the buffer it is given.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import NonFiniteState

# -- displacement walls --------------------------------------------------------
# resolved from a BC dict once per run, to functions of the state and clock


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


class Wall(NamedTuple):
    """One displacement wall's rules (x-first views of the fields)."""

    face: int  # its face along x: 0 at the left, -1 at the right
    normal: float  # its outward normal: -1 at the left, +1 at the right
    strain: Callable  # (e, u, t) -> face strain, of face strains e and cells u
    stress: Optional[Callable]  # t -> prescribed face stress; None: the strain's
    velocity: Callable  # v -> wall velocity, of cell velocities v
    weight: float  # the face's energy quadrature weight, in units of dx


def wall(spec: dict, left: bool, dx: float) -> Wall:
    """The rules of the wall spec at the left or right end of a line of cells
    dx wide.

    fixed/velocity walls hold the wall at g (value, or value*t) through the
    mirror ghost 2g - U_adj, so the face strain is 2(U_adj - g)/dx (toward
    the wall at the right end); they weigh 1/2, which makes the
    semi-discrete power balance exact against the ghost. free and traction
    walls prescribe the face stress (0, or the traction protocol) and move
    with their cell; their work is boundary work, so they weigh 0. A free
    face's strain is 0; a traction face copies the nearest interior face (a
    placeholder: its stress is prescribed, not computed).
    """
    kind = spec["type"]
    face, normal = (0, -1.0) if left else (-1, 1.0)
    if kind in ("free", "traction"):
        inner, velocity = (1 if left else -2), (lambda v: v.T[face])
        if kind == "free":
            return Wall(face, normal, lambda e, u, t: 0.0, lambda t: 0.0, velocity, 0.0)
        return Wall(face, normal, lambda e, u, t: e[inner], partial(traction_at, spec), velocity, 0.0)
    value = spec["value"]
    if kind == "velocity":
        at, velocity = (lambda t: value * t), (lambda v: value)
    else:
        at, velocity = (lambda t: value), (lambda v: 0.0)
    if left:
        return Wall(face, normal, lambda e, u, t: 2.0 * (u[0] - at(t)) / dx, None, velocity, 0.5)
    return Wall(face, normal, lambda e, u, t: 2.0 * (at(t) - u[-1]) / dx, None, velocity, 0.5)


def walls(bc: dict, dx: float) -> Optional[tuple]:
    """bc's (left, right) displacement walls; None on a ring, which has none."""
    if bc["u_left"]["type"] == "periodic":
        return None
    return wall(bc["u_left"], True, dx), wall(bc["u_right"], False, dx)


def strain_rule(sides: Optional[tuple], dx: float):
    """strain_faces with the walls sides (of walls()) resolved once: returns
    fill(U, t, eps), which writes the face strains of U at time t into eps
    (shape (..., nx+1)) and returns it. A ring's wrap face is periodic."""
    if sides is None:
        def fill_walls(e, u, t):
            e[0] = (u[0] - u[-1]) / dx
            e[-1] = e[0]
    else:
        left, right = (side.strain for side in sides)

        def fill_walls(e, u, t):
            e[0] = left(e, u, t)
            e[-1] = right(e, u, t)

    def fill(U, t, eps):
        inner = eps[..., 1:-1]
        np.subtract(U[..., 1:], U[..., :-1], out=inner)
        np.divide(inner, dx, out=inner)
        fill_walls(eps.T, U.T, t)  # x first: u[0] is the left cell of every row
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
    or (ny, nx+1) row by row in 2D. The wall faces follow their Wall's
    strain rule (wall())."""
    eps = np.empty(U.shape[:-1] + (U.shape[-1] + 1,))
    return strain_rule(walls(bc, grid.dx), grid.dx)(U, t, eps)


def strain_cells(U: np.ndarray, grid, bc: dict, t: float) -> np.ndarray:
    """Cell-centered strain: mean of the two adjacent face strains."""
    return face_mean(strain_faces(U, grid, bc, t))


# -- damage field: face values, gradients, conductivity ----------------------
# Along the last axis: cells (..., n), faces (..., n+1). The helpers index
# the transpose, whose first axis is that last axis, so x.T[0] is the first
# cell of every line: a scalar in 1D, a column in 2D.


def _padded(x: np.ndarray, bc_g: dict, held: bool = True) -> np.ndarray:
    """x (an x-first view) with the ghost cell beyond each end of its lines:
    the periodic image; else the wall cell itself (even reflection), or
    2w - x at a dirichlet wall of value w when the wall holds x (held)."""
    if bc_g["type"] == "periodic":
        lo, hi = x[-1:], x[:1]
    elif held and bc_g["type"] == "dirichlet":
        value = bc_g.get("value", 0.0)
        lo, hi = 2.0 * value - x[:1], 2.0 * value - x[-1:]
    else:
        lo, hi = x[:1], x[-1:]
    return np.concatenate((lo, x, hi))


def gamma_grad_faces(gamma: np.ndarray, dh: float, bc_g: dict) -> np.ndarray:
    """Face gradients (Γ_{i+1} - Γ_i)/dh, the wall faces against the ghost
    cells of _padded; C order, the order of the energy sums over them."""
    g = _padded(gamma.T, bc_g)
    grad = np.empty(gamma.shape[:-1] + (gamma.shape[-1] + 1,))
    np.subtract(g[1:], g[:-1], out=grad.T)
    return np.divide(grad, dh, out=grad)


def gamma_face_values(gamma: np.ndarray, bc_g: dict) -> np.ndarray:
    """Face-centered Γ: mean of adjacent cells. A wall face carries its wall
    cell's Γ, whatever the damage BC (the even ghost): the derivative of the
    free energy's cell cross term b*face_mean(eps)*Γ at the wall face. A
    ring's wrap face is the mean of the first and last cells."""
    g = _padded(gamma.T, bc_g, held=False)
    return (0.5 * (g[1:] + g[:-1])).T


def face_conductivity(active: np.ndarray, k: float, bc_g: dict) -> np.ndarray:
    """Face conductivity, zero unless both adjacent cells are active.

    Boundary faces follow the single adjacent cell (periodic wraps)."""
    a = _padded(active.T, bc_g, held=False)
    return np.where(a[1:] & a[:-1], k, 0.0).T


def damage_flux_div(gamma: np.ndarray, K: np.ndarray, dh: float, bc_g: dict) -> np.ndarray:
    """Div(K grad Γ) at cells; equals -Div(B) with B = -K grad Γ."""
    return div_faces(K * gamma_grad_faces(gamma, dh, bc_g), dh)


def grid_conductivity(active: np.ndarray, ks, grid, bc_g: dict, box: tuple = ()) -> tuple:
    """Face conductivities of every grid axis, ks = (k1, k2) per axis, on
    the faces of box (a slice per array axis, the grid when empty): those of
    the grid, from the box widened by a cell along the axis where one is."""
    box = box or tuple(slice(0, n) for n in active.shape)
    K = []
    for i, (ax, k) in enumerate(zip(grid.axes, ks)):
        dim = active.ndim - 1 - i  # x is the last array axis, y the first
        s = box[dim]
        lo = max(s.start - 1, 0)
        wide = ax.view(active[box[:dim] + (slice(lo, s.stop + 1),) + box[dim + 1:]])
        K.append(ax.view(face_conductivity(wide, k, bc_g)[..., s.start - lo:s.stop - lo + 1]))
    return tuple(K)


def grid_flux_div(gamma: np.ndarray, K: tuple, grid, bcs, grads: tuple = ()) -> np.ndarray:
    """Div(K grad Γ) at cells, summed over the grid axes (one face array, one
    damage BC and, when given, Γ's gamma_grad_faces in the axis view each)."""
    grads = grads or [gamma_grad_faces(ax.view(gamma), ax.h, bc) for ax, bc in zip(grid.axes, bcs)]
    parts = [ax.view(div_faces(ax.view(Ka) * g, ax.h)) for ax, Ka, g in zip(grid.axes, K, grads)]
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

    Interior strain faces weigh dx, a wall face its Wall's weight times dx;
    a ring counts nx unique faces.
    """
    w_gamma = tuple(face_weights_gamma(bc["gamma"], ax.n, ax.h) for ax in grid.axes)
    w_u = np.full(grid.nx + 1, grid.dx)
    sides = walls(bc, grid.dx)
    if sides is None:
        w_u[-1] = 0.0
    else:
        for side in sides:
            w_u[side.face] = side.weight * grid.dx
    return w_u, w_gamma


# -- banded parabolic solves --------------------------------------------------


class LineFactor(NamedTuple):
    lu: tuple  # dpttrf's (d, e), the LDLᵀ factor of all lines joined into one system
    sm: Optional[tuple]  # periodic Sherman-Morrison terms (w, v_coef, denom)


def line_coupling(K, s: float, dh: float, bc_g: dict) -> tuple:
    """What the face conductivities K (..., n+1) fix of the operator D - s*L
    on each line of n cells (the last axis), for factor_lines: the diagonal
    s*(cl + cr), dpttrf's off-diagonal (0 between lines), a dirichlet wall's
    extra end coupling (its ghost doubles it) and a periodic wrap's corner."""
    kind = bc_g["type"]
    cl = K[..., :-1] / dh**2  # left face of each cell
    cr = K[..., 1:] / dh**2  # right face
    if kind == "zero_flux":
        cl[..., 0] = 0.0  # no flux through the walls
        cr[..., -1] = 0.0
    off = -s * cr  # A[i, i+1] = A[i+1, i]: both read the face between them
    off[..., -1] = 0.0  # lines do not couple
    ends = (s * cl[..., 0], s * cr[..., -1]) if kind == "dirichlet" else None
    corner = -s * K[..., 0] / dh**2 if kind == "periodic" else None  # A[0, n-1] = A[n-1, 0]
    return s * (cl + cr), off.ravel()[:-1], ends, corner


def factor_lines(coupling: tuple, D: np.ndarray) -> LineFactor:
    """Factor the SPD operator D - s*L of every line (D shaped (..., n),
    coupling the line_coupling of s*L) as LDLᵀ without pivoting, in one
    LAPACK dpttrf call over the lines joined into one tridiagonal system;
    solve_lines reuses it. Periodic lines wrap via a Sherman-Morrison update
    whose matrix-only solve is done here. Raises NonFiniteState on a
    non-finite operator or one that is not positive definite."""
    couple, off, ends, corner = coupling
    diag, sm = D + couple, None
    if ends is not None:
        diag[..., 0] += ends[0]
        diag[..., -1] += ends[1]
    elif corner is not None:
        # B = A + u uᵀ/d0, u = (-d0, 0, .., corner), drops A's corners and stays SPD
        gam = -diag[..., 0]
        diag[..., 0] -= gam
        diag[..., -1] -= corner * corner / gam
    if not np.isfinite(diag).all():  # every coupling also enters diag
        raise NonFiniteState("damage operator")
    *lu, info = dpttrf(diag.ravel(), off)
    if info > 0:
        raise NonFiniteState(f"damage operator (not positive definite at row {info - 1})")
    if corner is not None:
        u = np.zeros_like(diag)
        u[..., 0] = gam
        u[..., -1] = corner
        w = dpttrs(*lu, u.ravel())[0].reshape(diag.shape)
        v_coef = corner / gam
        sm = (w, v_coef, 1.0 + (w[..., 0] + v_coef * w[..., -1]))
    return LineFactor(tuple(lu), sm)


def solve_lines(fac: LineFactor, rhs: np.ndarray) -> np.ndarray:
    """Solve the factored line systems for a (..., n) right-hand side."""
    if not np.isfinite(rhs).all():
        raise NonFiniteState("damage right-hand side")
    x = dpttrs(*fac.lu, rhs.ravel())[0].reshape(rhs.shape)
    if fac.sm is not None:
        w, v_coef, denom = fac.sm
        x = x - w * ((x[..., 0] + v_coef * x[..., -1]) / denom)[..., None]
    return x


def active_box(active: np.ndarray):
    """Bounding box of the active cells, one slice per array axis, widened
    to 3 cells inside the grid where narrower (scipy's dpttrf rejects a
    system of one unknown; the added cells are inactive); None when no cell
    is active."""
    box = []
    for dim, n in enumerate(active.shape):
        rest = tuple(d for d in range(active.ndim) if d != dim)
        hit = np.flatnonzero(active.any(axis=rest) if rest else active)
        if not hit.size:
            return None
        start, stop = int(hit[0]), int(hit[-1]) + 1
        start = min(start, n - 3) if stop - start < 3 else start
        box.append(slice(start, max(stop, start + 3)))
    return tuple(box)
