"""Constitutive forms against hand-evaluated values and derivative checks.

Every frozen number below is recomputed in the comment next to it, never
copied from solver output.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import failwave as fw
from failwave import ops
from failwave.model import SOURCE_LAWS, MaterialParams


def mat(**kw):
    base = dict(rho0=1.0, c1=1.0)
    base.update(kw)
    return MaterialParams(**base)


# -- frozen point values ---------------------------------------------------------


def test_free_energy_feng_strain_part():
    # (c1/2) uX^2 + (c3/4) uX^4 = 1*0.25 + 1*0.0625 = 0.3125
    p = mat(c1=2.0, c3=4.0)
    assert fw.free_energy(0.5, 0.0, 0.0, p) == pytest.approx(0.3125, rel=1e-14)


def test_free_energy_feng_damage_part():
    # linear_decay: (c2/2) G^2 + (lam*d1/2) g^2 = 0.5*4 + 1*9 = 11
    p = mat(c2=1.0, lam=1.0, d1=2.0)
    assert fw.free_energy(0.0, 2.0, 3.0, p) == pytest.approx(11.0, rel=1e-14)
    # logistic, c2 playing no part: -r lam (G^2/2 - G^3/(3 Gmax)) + (lam*d1/2) g^2
    # = -2*(0.045 - 0.009) + 9 = 8.928 (r 2, lam 1, Gmax 1, G 0.3, g 3)
    p = mat(c2=1.0, lam=1.0, d1=2.0, source_law="logistic", source_rate=2.0)
    assert fw.free_energy(0.0, 0.3, 3.0, p) == pytest.approx(8.928, rel=1e-14)


def test_free_energy_linear_point():
    # (c1/2) uX^2 + b uX G + (c2/2) G^2 = 1 + 3 + 2 = 6
    p = mat(c1=2.0, b=3.0, c2=4.0)
    assert fw.free_energy(1.0, 1.0, 0.0, p) == pytest.approx(6.0, rel=1e-14)


def test_stress_points():
    # feng: 2*0.5 + 4*0.125 = 1.5 ; linear: 2*0.5 + 3*2 = 7
    assert fw.stress(0.5, 0.0, mat(c1=2.0, c3=4.0)) == pytest.approx(1.5, rel=1e-14)
    p_lin = mat(c1=2.0, b=3.0)
    assert fw.stress(0.5, 2.0, p_lin) == pytest.approx(7.0, rel=1e-14)


def test_internal_forces_uniform_field():
    # uniform gamma: no gradient, so Z = A = -c2*G = -6
    p = mat(c2=3.0, lam=1.0, d1=0.5)
    grid = fw.Grid((8,), (0.125,), (0.0,))
    gamma = np.full(8, 2.0)
    Z = fw.internal_forces(gamma, p, grid, bc_gamma={"type": "zero_flux"})
    assert np.allclose(Z, -6.0, rtol=1e-14)


def test_dissipation_and_entropy_production():
    # rate = lam gd^2 = 18, twice the Rayleigh potential D = (lam/2) gd^2 = 9 ;
    # s_dot = lam gd^2/theta0 = 18/300 = 0.06
    p = mat(lam=2.0, theta0=300.0)
    assert fw.dissipation_rate(3.0, p) == pytest.approx(18.0, rel=1e-14)
    assert fw.entropy_production(3.0, p) == pytest.approx(0.06, rel=1e-14)
    # identity s_dot = rate / theta0 on an array
    gd = np.linspace(-2.0, 2.0, 11)
    assert np.array_equal(fw.entropy_production(gd, p), fw.dissipation_rate(gd, p) / p.theta0)


def test_logistic_damage_force_point():
    # A = r lam G (1 - G/Gmax) = 2*1.5*0.5*0.75 = 1.125
    p = mat(lam=1.5, source_law="logistic", source_rate=2.0, gamma_max=2.0)
    assert fw.damage_force(0.5, p) == pytest.approx(1.125, rel=1e-14)


def test_elastic_wave_speed_uses_peak_strain():
    # sqrt((c1 + 3 c3 uX^2)/rho0) at uX = -0.2: sqrt(1.36/4)
    p = mat(c1=1.0, c3=3.0, rho0=4.0)
    c = fw.elastic_wave_speed(np.array([0.1, -0.2]), p)
    assert c == pytest.approx(np.sqrt(1.36 / 4.0), rel=1e-14)


# -- derivative consistency --------------------------------------------------------


def _central(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


@pytest.mark.parametrize("case", ["feng", "linear"])
def test_forces_match_free_energy_gradient(case):
    # feng (b = 0) draws both source laws, linear draws c3 and b together
    # under linear_decay (a logistic source needs b = 0)
    rng = np.random.default_rng(42)
    h = 1e-6
    for i in range(100):
        law = "logistic" if case == "feng" and i % 2 else "linear_decay"
        p = mat(
            c1=rng.uniform(0.5, 4.0),
            c3=rng.uniform(0.0, 2.0),
            c2=rng.uniform(0.1, 2.0),
            b=rng.uniform(-1.0, 1.0) if case == "linear" else 0.0,
            lam=rng.uniform(0.2, 2.0),
            d1=rng.uniform(0.05, 1.0),
            source_law=law,
            source_rate=rng.uniform(0.5, 3.0),
            gamma_max=rng.uniform(0.5, 2.0),
        )
        uX = rng.uniform(-0.5, 0.5)
        G = rng.uniform(0.0, 2.0)
        g = rng.uniform(-3.0, 3.0)

        psi = lambda u_, G_, g_: fw.free_energy(u_, G_, g_, p)
        S_fd = _central(lambda u_: psi(u_, G, g), uX, h)
        A_fd = -_central(lambda G_: psi(uX, G_, g), G, h)
        Bg_fd = _central(lambda g_: psi(uX, G, g_), g, h)  # dpsi/dg = K g = -B

        S = fw.stress(uX, G, p)
        A = fw.damage_force(G, p, uX=uX)
        assert S == pytest.approx(S_fd, rel=1e-6, abs=1e-9)
        assert A == pytest.approx(A_fd, rel=1e-6, abs=1e-9)
        assert p.k1 * g == pytest.approx(Bg_fd, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("law", list(SOURCE_LAWS))
def test_source_law_force_matches_potential_gradient(law):
    # every row of the table: its force is -W' and its slope -W'', W and the
    # force vanish at gamma = 0, the force vanishes at the saturation level,
    # and a constant slope c makes the force c*gamma exactly
    p = mat(lam=0.8, c2=1.1, source_law=law, source_rate=1.7, gamma_max=1.3)
    row = SOURCE_LAWS[law]
    h = 1e-6
    G = np.linspace(0.05, 1.25, 9)
    for g in G:
        A_fd = -_central(lambda G_: fw.damage_potential(G_, p), g, h)
        assert fw.damage_force(g, p) == pytest.approx(A_fd, rel=1e-7, abs=1e-10)
        slope_fd = _central(lambda G_: fw.damage_force(G_, p), g, h)
        assert row.slope(g, p) == pytest.approx(slope_fd, rel=1e-7, abs=1e-10)
    assert fw.damage_potential(0.0, p) == 0.0 and fw.damage_force(0.0, p) == 0.0
    if row.saturation is not None:
        assert fw.damage_force(row.saturation(p), p) == 0.0
    if np.ndim(row.slope(G, p)) == 0:
        assert np.array_equal(fw.damage_force(G, p), row.slope(G, p) * G)


def test_rate_conjugacy():
    # the rate is force times rate, (lam*gd)*gd, with the thermodynamic force
    # lam*gd = d(D)/d(gd) of the Rayleigh function D = rate/2
    p = mat(lam=1.7)
    for gd in [-2.0, -0.3, 0.0, 0.9, 4.0]:
        force_fd = _central(lambda g_: 0.5 * fw.dissipation_rate(g_, p), gd, 1e-6)
        assert force_fd == pytest.approx(p.lam * gd, rel=1e-8, abs=1e-8)
        assert fw.dissipation_rate(gd, p) == pytest.approx(p.lam * gd * gd, rel=1e-15)


def test_elastic_energy_convex():
    p = mat(c1=2.0, c3=1.5)
    u = np.linspace(-1.0, 1.0, 101)
    e = fw.elastic_energy_density(u, p)
    second = e[2:] - 2 * e[1:-1] + e[:-2]
    assert np.all(second >= -1e-15)


# -- discrete operator structure ---------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["zero_flux", "dirichlet", "periodic"]),
    two_d=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_flux_divergence_adjoint_to_gradient(kind, two_d, seed):
    # summation by parts along every grid axis, for each damage BC (dirichlet
    # at value 0), with K = 0 on the faces of inactive cells:
    #   sum phi div(K grad G) dV = -sum_faces K (grad G)(grad phi) w dA
    rng = np.random.default_rng(seed)
    if two_d:
        grid = fw.Grid((9, 12), (0.03, 0.02), (0.0, 0.0))
    else:
        grid = fw.Grid((40,), (0.025,), (0.0,))
    k = mat(lam=1.3, d1=0.6).k1
    bc_g = {"type": kind, "value": 0.0} if kind == "dirichlet" else {"type": kind}
    gamma = rng.standard_normal(grid.shape)
    phi = rng.standard_normal(grid.shape)
    active = rng.random(grid.shape) < 0.7
    active.flat[0] = False
    for ax in grid.axes:
        G, P = ax.view(gamma), ax.view(phi)
        K = ops.face_conductivity(ax.view(active), k, bc_g)
        assert np.any(K == 0.0) and np.any(K == k)
        div = ops.damage_flux_div(G, K, ax.h, bc_g)
        lhs = float(np.sum(P * div) * ax.h * ax.across)
        gradG = ops.gamma_grad_faces(G, ax.h, bc_g)
        if kind == "zero_flux":  # the wall faces carry no flux
            assert not gradG[..., [0, -1]].any()
        gradP = ops.gamma_grad_faces(P, ax.h, bc_g)
        w = ops.face_weights_gamma(bc_g, G.shape[-1], ax.h)
        rhs = -float(np.sum(K * gradG * gradP * w) * ax.across)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)
