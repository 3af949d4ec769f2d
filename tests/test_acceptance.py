"""Acceptance gate.

One test per acceptance criterion; each prints a single PASS/FAIL line with
the measured numbers (visible under pytest -s, and in the failure report
otherwise) before asserting. Reference values marked below are frozen from
independent derivations; nothing is read back from the code under test.
"""

import os
import time

import numpy as np
import pytest
import yaml

import failwave as fw
from failwave import analysis
from failwave.model import SOURCE_LAWS

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
SHIPPED = [
    "clifton_pulse",
    "damage_decay",
    "heat_kernel",
    "impact_k8",
    "kpp_front",
    "linear_quadratic",
    "standing_wave",
    "verify_smooth",
]


def _report(num, name, ok, detail):
    print(f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"acceptance {num} {name}: {detail}"


def _load(name):
    with open(os.path.join(SCENARIO_DIR, name + ".yaml")) as fh:
        return fw.build_scenario(fh.read())


@pytest.fixture(scope="module")
def shipped_runs():
    """Every shipped scenario integrated once; (cfg, result, wall seconds)."""
    out = {}
    for name in SHIPPED:
        cfg = _load(name)
        t0 = time.perf_counter()
        result = fw.run(cfg)
        out[name] = (cfg, result, time.perf_counter() - t0)
    return out


# -- 1: predictor tables ---------------------------------------------------------


def test_criterion_01_prediction_tables():
    t0 = time.perf_counter()
    rep = analysis.table_report()
    wall = time.perf_counter() - t0
    # frozen reference predictions (tau s, delta1 m), one significant digit
    ref = {"K8": (0.6e-6, 2.0e-3), "soda-lime": (0.8e-6, 2.4e-3)}
    assert {r.name for r in rep.rows} == set(ref)
    ok = wall < 1.0
    details = [f"wall {wall * 1e3:.1f} ms"]
    for row in rep.rows:
        tau_ref, w_ref = ref[row.name]
        for label, pred, target, scale in (
            ("tau", row.tau_pred, tau_ref, 1e7),
            ("delta1", row.delta1_pred, w_ref, 1e4),
        ):
            rel = abs(pred - target) / target
            # the reference tables carry one digit; a predictor that rounds
            # onto the printed value agrees to within table rounding
            hit = round(pred * scale) == round(target * scale)
            ok = ok and (rel <= 0.02 or hit) and rel < 0.04
            details.append(f"{row.name} {label} {pred:.4e} vs {target:.1e} (rel {rel:.2%})")
    _report(1, "prediction tables", ok, "; ".join(details))


# -- 2: logistic front speed and the rise-time predictor --------------------------


def test_criterion_02a_logistic_front_speed(shipped_runs):
    cfg, res, wall = shipped_runs["kpp_front"]
    track = fw.track_front(res.snapshots, cfg.grid)
    rel = abs(track.v_f - 2.0) / 2.0
    ok = rel <= 0.10 and wall < 60.0
    _report(
        "2a",
        "logistic front speed",
        ok,
        f"v_f {track.v_f:.4f} m/s vs 2.0 (rel {rel:.2%}, fit r2 {track.fit_r2:.6f}, wall {wall:.1f} s)",
    )


def _rise_time_prediction(cfg, res):
    """(corrected, naive, measured v_f, 10-90 rise time) for a logistic run."""
    # Frozen derivation, independent of failwave: a cell that the pulled front
    # sweeps over follows the local logistic reaction g' = r g (1 - g) in the
    # normalised damage g = gamma/gamma_max, so g(t) = 1/(1 + exp(-r (t - t0)))
    # reaches level p at t0 + ln(p/(1-p))/r and the gauge's lo->hi passage time
    # is tau = ln(hi(1-lo)/(lo(1-hi)))/r, i.e. ln 81/r at 10-90. The pulled
    # (Fisher-KPP) front speed is 2 sqrt(d1 r) (Kolmogorov-Petrovsky-Piskunov
    # 1937; van Saarloos, Phys. Rep. 386, 2003). Eliminating r, the diffusivity
    # and the measured rise time predict v = 2 sqrt(d1 ln(...)/tau). The naive
    # sqrt(d1/tau) reads the scaling v_f ~ sqrt(d1/tau) as an equality and the
    # rise time as 1/r, so it is low by 2 sqrt(ln 81) ~ 4.19 for any (d1, r).
    lo, hi = 0.1, 0.9
    track = fw.track_front(res.snapshots, cfg.grid)
    tau = fw.measure_rise_time(res.gauges[0], lo=lo, hi=hi)
    tau_r = tau / np.log(hi * (1.0 - lo) / (lo * (1.0 - hi)))
    pred = 2.0 * float(np.sqrt(cfg.material.d1 / tau_r))
    naive = float(np.sqrt(cfg.material.d1 / tau))
    return pred, naive, track.v_f, tau


def test_criterion_02b_rise_time_predictor(shipped_runs):
    cfg, res, wall = shipped_runs["kpp_front"]
    # the same relation on a second logistic front with (d1, r) = (0.5, 2):
    # the prefactor is parameter-free, not fitted to the shipped scenario
    with open(os.path.join(SCENARIO_DIR, "kpp_front.yaml")) as fh:
        doc = yaml.safe_load(fh)
    doc["material"]["d1"] = 0.5
    doc["material"]["source"]["rate"] = 2.0
    cfg2 = fw.build_scenario(doc)
    t0 = time.perf_counter()
    res2 = fw.run(cfg2)
    wall2 = time.perf_counter() - t0
    ok = wall < 60.0 and wall2 < 60.0
    details = []
    for label, c, result in (("kpp_front", cfg, res), ("d1 0.5 r 2", cfg2, res2)):
        pred, naive, v_f, tau = _rise_time_prediction(c, result)
        rel = abs(pred - v_f) / v_f
        ok = ok and rel <= 0.35
        details.append(
            f"{label}: 2 sqrt(d1 ln81/tau) {pred:.4f} m/s vs measured v_f {v_f:.4f} m/s "
            f"(rel {rel:.1%}; naive sqrt(d1/tau) {naive:.4f} m/s; tau {tau:.4f} s)"
        )
    details.append(f"wall {wall:.1f} s + {wall2:.1f} s")
    _report("2b", "rise-time speed predictor", ok, "; ".join(details))


# -- 3: elastic convergence --------------------------------------------------------


def test_criterion_03_elastic_convergence(standing_wave_225):
    doc, exact = standing_wave_225
    t0 = time.perf_counter()
    st = fw.refinement_study(doc, 3, exact)  # dx = 1/64, 1/128, 1/256
    wall = time.perf_counter() - t0
    ok = st.order >= 1.9 and wall < 30.0
    errs = ", ".join(f"{e:.3e}" for e in st.errors["U"])
    _report(3, "elastic order", ok, f"order {st.order:.3f} (errors {errs}; t=2.25; wall {wall:.1f} s)")


# -- 4: diffusion convergence and variance growth ----------------------------------


def test_criterion_04_diffusion_convergence(heat_kernel):
    text, exact = heat_kernel
    t0 = time.perf_counter()
    st = fw.refinement_study(fw.refine(text, -1), 3, exact)  # nx = 48, 96, 192
    slope, target = analysis.variance_growth_slope()
    wall = time.perf_counter() - t0
    rel = abs(slope - target) / target
    ok = st.order >= 1.9 and rel <= 0.01 and wall < 30.0
    _report(
        4,
        "damage diffusion order",
        ok,
        f"order {st.order:.3f}; variance slope {slope:.6f} vs {target:.6f} "
        f"(rel {rel:.3%}); wall {wall:.1f} s",
    )


# -- 5: admissibility and entropy across every shipped scenario --------------------


def test_criterion_05_admissibility_and_entropy(shipped_runs):
    ok = True
    details = []
    for name, (cfg, res, _) in shipped_runs.items():
        mins = res.reports["min_Z_gammadot"]
        dis = res.reports["dissipated"]
        tvals = res.reports["time"]
        # peak scale: recorded per-step minima plus the volume-averaged
        # dissipation rate 2*D/V <= peak Z*gamma_dot (both lower bounds on
        # the true peak, so the threshold is at least as strict as stated)
        vol = cfg.grid.nx * cfg.grid.dx
        rate = np.diff(dis) / np.maximum(np.diff(tvals), 1e-300) / vol
        peak = max(float(np.max(np.abs(mins))), float(rate.max(initial=0.0)))
        min_zg = float(mins.min())
        entropy_ok = bool(np.all(np.diff(dis) >= 0.0))
        this_ok = min_zg >= -1e-12 * peak and entropy_ok
        ok = ok and this_ok
        details.append(f"{name}: min {min_zg:.1e} (peak {peak:.2e}, entropy {'up' if entropy_ok else 'DOWN'})")
    _report(5, "thermodynamic admissibility", ok, "; ".join(details))


# -- 6: conservative limit ----------------------------------------------------------


def test_criterion_06_conservative_limit(shipped_runs):
    cfg, _, _ = shipped_runs["clifton_pulse"]
    t0 = time.perf_counter()
    study = analysis.clifton_limit_study(cfg, [1e-2, 1e-3, 1e-4, 0.0])
    wall = time.perf_counter() - t0
    frozen = next(r for r in study.rows if r.lam == 0.0)
    ok = abs(study.slope - 1.0) <= 0.1 and frozen.energy_drift < 1e-6 and wall < 120.0
    _report(
        6,
        "conservative limit",
        ok,
        f"dissipation slope {study.slope:.4f} vs 1.0; lam=0 drift {frozen.energy_drift:.2e} "
        f"over 10 crossings at dx=1/1024; wall {wall:.1f} s",
    )


# -- 7: variational refinement -------------------------------------------------------


def test_criterion_07_variational_refinement():
    t0 = time.perf_counter()
    base = fw.scenario_to_dict(_load("verify_smooth"))
    norms = []
    traj0 = None
    for lev in range(3):
        traj = fw.record_trajectory(fw.build_scenario(fw.refine(base, lev)))
        if lev == 0:
            traj0 = traj
        norms.append(float(np.max(fw.lagrange_residual(traj).norms_combined)))
    ratios = [norms[i] / norms[i + 1] for i in range(2)]

    res = fw.lagrange_residual(traj0)
    sys_n = fw.reduce_to_generalized(traj0, fw.nodal_basis(traj0.cfg.grid))
    gen = fw.generalized_residual(sys_n)
    dx = traj0.cfg.grid.dx
    gap = float(np.max(np.abs(gen.norms - res.norms_combined)))
    for i in range(len(gen.R)):
        stacked = dx * np.concatenate([res.resid_U[i], res.resid_gamma[i]])
        gap = max(gap, float(np.max(np.abs(gen.R[i] - stacked))))
    wall = time.perf_counter() - t0
    ok = all(r >= 3.5 for r in ratios) and gap < 1e-10 and wall < 120.0
    _report(
        7,
        "variational refinement",
        ok,
        f"residual ratios {ratios[0]:.2f}x, {ratios[1]:.2f}x (need >= 3.5); "
        f"nodal reduction gap {gap:.2e}; wall {wall:.1f} s",
    )


# -- 8: constitutive gradient checks -------------------------------------------------


def test_criterion_08_gradient_checks():
    rng = np.random.default_rng(42)
    h = 1e-6
    worst = 0.0

    def central(f, x):
        return (f(x + h) - f(x - h)) / (2.0 * h)

    def scaled_err(a, b):
        return abs(a - b) / (max(abs(a), abs(b)) + 1e-3)

    # c3 and b together under linear_decay; a logistic source needs b = 0
    for law in SOURCE_LAWS:
        for _ in range(150):
            p = fw.MaterialParams(
                rho0=1.0,
                c1=rng.uniform(0.5, 4.0),
                c3=rng.uniform(0.0, 2.0),
                c2=rng.uniform(0.1, 2.0),
                b=rng.uniform(-1.0, 1.0) if law == "linear_decay" else 0.0,
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
            worst = max(worst, scaled_err(fw.stress(uX, G, p), central(lambda u_: psi(u_, G, g), uX)))
            worst = max(
                worst,
                scaled_err(fw.damage_force(G, p, uX=uX), -central(lambda G_: psi(uX, G_, g), G)),
            )
            # conduction flux B = -k1 * grad, so dpsi/dgrad must equal k1*grad
            worst = max(worst, scaled_err(p.k1 * g, central(lambda g_: psi(uX, G, g_), g)))
    ok = worst < 1e-6
    _report(8, "free-energy gradient checks", ok,
            f"worst scaled error {worst:.2e} over {len(SOURCE_LAWS)}x150 states")


# -- 9: one-way coupling, bitwise ----------------------------------------------------


def _coupling_doc():
    return {
        "name": "coupling-probe",
        "grid": {"nx": 64, "dx": 1.0 / 64},
        "material": {"rho0": 1.0, "c1": 1.0, "c2": 0.5, "lambda": 1.0, "d1": 0.1, "b": 0.0},
        "time": {"dt": 0.005, "t_end": 0.25},
        "ic": {"U": {"type": "gaussian", "amplitude": 0.01, "center": 0.5, "width": 0.1}},
        "bc": {"u_left": {"type": "fixed"}, "u_right": {"type": "fixed"},
               "gamma": {"type": "zero_flux"}},
        "output": {"snapshots": 2},
    }


def test_criterion_09_decoupling_bitwise():
    # b = 0 (Feng's model) decouples both ways on one config
    doc = _coupling_doc()
    t_plain = fw.record_trajectory(fw.build_scenario(doc))
    doc["ic"]["gamma"] = {"type": "gaussian", "amplitude": 0.6, "center": 0.4, "width": 0.15}
    t_seeded = fw.record_trajectory(fw.build_scenario(doc))
    # the motion must not see the damage seed
    motion_ok = np.array_equal(t_plain.U, t_seeded.U) and np.array_equal(t_plain.v, t_seeded.v)
    assert np.any(t_plain.gamma != t_seeded.gamma)  # the comparison is not trivial

    # the damage history must not see the displacement bump
    doc["ic"]["U"] = {"type": "zeros"}
    t_still = fw.record_trajectory(fw.build_scenario(doc))
    damage_ok = np.array_equal(t_seeded.gamma, t_still.gamma)
    assert np.any(t_seeded.U != t_still.U)

    ok = motion_ok and damage_ok
    _report(
        9,
        "one-way coupling",
        ok,
        f"motion blind to damage seed: {motion_ok}; damage blind to motion (b=0): {damage_ok}",
    )
