"""The paper's two functions, the free energy and the dissipation rate, and
every quantity derived from them.

free_energy is the one density the discrete sums integrate,
    psi = (c1/2)uX^2 + (c3/4)uX^4 + b*uX*gamma + W(gamma)
          + (1/2)k1 (dGamma/dX)^2 + (1/2)k2 |grad_perp Gamma|^2,
with k1 = lam*d1, k2 = lam*d2; stress and damage_force are its derivatives
in uX and -gamma. The classical models are special cases by parameter:
b = 0 is Feng's one-way coupling (the elastic field never feels the damage
field), and lam = 0 is Clifton's conservative limit (solver.run freezes the
damage field). A zero c3 or b drops its term, so no branch adds 0*x.

W(gamma) (damage_potential) and its force -W' (damage_force) are the row
of the material's source law in model.SOURCE_LAWS: (c2/2)gamma^2, which
relaxes, under linear_decay; a cubic whose force r*lam*gamma*(1 -
gamma/gamma_max) sustains traveling fronts under logistic. Keeping the
source inside the potential keeps Z*dGamma/dt >= 0 structurally, so the
admissibility monitor stays meaningful for front-forming runs.

dissipation_rate is lam*(dGamma/dt)^2, the rate the energy budget books;
entropy production is that rate over theta0. Densities are volumetric: psi
in J/m^3, the rate in W/m^3, entropy production in W/(m^3 K).
"""

from __future__ import annotations

import numpy as np

from . import ops
from .model import SOURCE_LAWS, MaterialParams


def _grad_parts(grad_gamma):
    """Split a damage gradient argument into (longitudinal, transverse)."""
    if isinstance(grad_gamma, (tuple, list)):
        gx, gy = grad_gamma
        return np.asarray(gx, dtype=float), np.asarray(gy, dtype=float)
    return np.asarray(grad_gamma, dtype=float), 0.0


def damage_potential(gamma, p: MaterialParams):
    """Potential W(gamma) of p's source law, whose negative derivative is the source."""
    return SOURCE_LAWS[p.source_law].potential(np.asarray(gamma, dtype=float), p)


def damage_force(gamma, p: MaterialParams, uX=None):
    """Internal force A = -d(psi)/d(gamma) = -b*uX - W'(gamma) (Pa), under
    every source law; uX (the strain, 0 when not given) enters only when
    b != 0."""
    A = SOURCE_LAWS[p.source_law].force(np.asarray(gamma, dtype=float), p)
    if p.b != 0.0 and uX is not None:
        A = A - p.b * np.asarray(uX, dtype=float)
    return A


def stress(uX, gamma, p: MaterialParams):
    """Longitudinal 1st Piola-Kirchhoff stress d(psi)/d(uX) = c1*uX +
    c3*uX^3 + b*gamma (Pa), its terms added in that order."""
    uX = np.asarray(uX, dtype=float)
    S = p.c1 * uX
    if p.c3 != 0.0:
        S = S + p.c3 * (uX * uX * uX)  # spelled out: ** dispatches to pow
    if p.b != 0.0:
        S = S + p.b * np.asarray(gamma, dtype=float)
    return S


def elastic_energy_density(uX, p: MaterialParams):
    """Strain part (c1/2)uX^2 + (c3/4)uX^4 of psi only (the face-quadrature
    integrand), J/m^3."""
    uX = np.asarray(uX, dtype=float)
    u2 = uX * uX
    if p.c3 == 0.0:
        return 0.5 * p.c1 * u2
    return 0.5 * p.c1 * u2 + 0.25 * p.c3 * (u2 * u2)


def free_energy(uX, gamma, grad_gamma, p: MaterialParams):
    """Free energy density psi of p (J/m^3): elastic_energy_density +
    damage_potential + (1/2)k1 gx^2 + (1/2)k2 gy^2 + b*uX*gamma.
    grad_gamma may be a scalar/array (1D) or an (x, y) pair."""
    gx, gy = _grad_parts(grad_gamma)
    uX = np.asarray(uX, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    psi = (
        elastic_energy_density(uX, p)
        + damage_potential(gamma, p)
        + 0.5 * p.k1 * gx**2
        + 0.5 * p.k2 * gy**2
    )
    if p.b != 0.0:
        psi = psi + p.b * uX * gamma
    return psi


def dissipation_rate(gamma_dot, p: MaterialParams):
    """Dissipation rate lam*gamma_dot^2 (W/m^3), the rate the energy budget
    books as dissipated; always >= 0."""
    gd = np.asarray(gamma_dot, dtype=float)
    return p.lam * gd**2


def entropy_production(gamma_dot, p: MaterialParams):
    """Volumetric entropy production dissipation_rate/theta0 (W/(m^3 K))."""
    return dissipation_rate(gamma_dot, p) / p.theta0


def characteristic_speed(u2: float, p: MaterialParams) -> float:
    """Characteristic speed sqrt((c1 + 3 c3 u2)/rho0) at squared strain u2
    (m/s); NaN when u2 is."""
    return float(np.sqrt((p.c1 + 3.0 * p.c3 * u2) / p.rho0))


def elastic_wave_speed(uX, p: MaterialParams) -> float:
    """Max characteristic speed sqrt((c1 + 3 c3 uX^2)/rho0) over the field (m/s)."""
    uX = np.asarray(uX)
    return characteristic_speed(float((uX * uX).max()) if uX.size else 0.0, p)


def internal_forces(
    gamma: np.ndarray,
    p: MaterialParams,
    grid,
    uX=None,
    *,
    bc_gamma: dict,
    active: np.ndarray | None = None,
) -> np.ndarray:
    """Net damage force Z = A - div(B) at cells (Pa): A is damage_force, B
    = -K grad(gamma) the face flux, and the divergence is adjoint to the
    face gradient (ops.grid_flux_div) under the damage wall bc_gamma.

    Conductivity is masked to zero on faces with an inactive neighbor.
    """
    K = _conductivity(active, p, grid, bc_gamma)
    return damage_force(gamma, p, uX=uX) + ops.grid_flux_div(gamma, K, grid, [bc_gamma] * grid.ndim)


def _conductivity(active, p: MaterialParams, grid, bc_g: dict) -> tuple:
    if active is None:
        active = np.ones(grid.shape, dtype=bool)
    return ops.grid_conductivity(active, (p.k1, p.k2), grid, bc_g)


def damage_free_energy(
    gamma: np.ndarray,
    p: MaterialParams,
    grid,
    bc_g: dict,
    weights: tuple,
    active: np.ndarray | None = None,
) -> tuple:
    """The damage part of the discrete free energy (J per unit
    cross-section), as the pair (gradient term on faces, potential term on
    cells). weights are the damage-gradient weights of ops.energy_weights;
    the face conductivity is that of the active set (all cells when None)."""
    K = _conductivity(active, p, grid, bc_g)
    e_grad = 0.0
    for ax, Ka, w in zip(grid.axes, K, weights):
        grad = ops.gamma_grad_faces(ax.view(gamma), ax.h, bc_g)
        e_grad += float((0.5 * ax.view(Ka) * grad**2 * w).sum() * ax.across)
    return e_grad, float((damage_potential(gamma, p) * grid.cell_volume).sum())


def total_free_energy(
    U: np.ndarray,
    gamma: np.ndarray,
    p: MaterialParams,
    grid,
    bc: dict,
    t: float,
    active: np.ndarray | None = None,
) -> float:
    """Discrete free energy (J per unit cross-section) with the quadrature
    the solver's budget uses: strain and gradient terms on faces (interior
    weight dx, displacement/dirichlet walls dx/2, traction and free walls
    excluded), potential and cross terms on cells.

    The half-weight wall rule makes d(psi)/d(field) reproduce the scheme's
    force exactly, so the budget closes to time-discretization error. This
    is the reference for the budget of solver.ElasticPlan, which evaluates
    the same sums on a run's buffers.
    """
    eps = ops.strain_faces(U, grid, bc, t)
    w_u, w_gamma = ops.energy_weights(bc, grid)
    e_el = float((elastic_energy_density(eps, p) * w_u).sum() * grid.axes[0].across)
    e_grad, e_cell = damage_free_energy(gamma, p, grid, bc["gamma"], w_gamma, active)
    if p.b != 0.0:
        uXc = ops.face_mean(eps)
        e_cell += float((p.b * uXc * gamma * grid.cell_volume).sum())
    return e_el + e_grad + e_cell
