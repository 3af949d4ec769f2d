"""Measurement pipeline: predictors, front tracking, rise times, tables,
refinement studies."""

import os

import numpy as np
import pytest

import failwave as fw
from failwave.solver import Snapshot

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


# -- predictors ------------------------------------------------------------------


def test_predict_tau_points():
    # tau = d1/v_f^2: 6.6/3320^2 = 5.9878e-7 ; 7.4/3090^2 = 7.7504e-7
    assert fw.predict_tau(6.6, 3320.0) == pytest.approx(5.98775e-7, rel=1e-4)
    assert fw.predict_tau(7.4, 3090.0) == pytest.approx(7.75043e-7, rel=1e-4)


def test_predict_width_points():
    # delta = d/v_f: 6.6/3320 = 1.9880e-3 ; doubling d doubles the width
    assert fw.predict_width(6.6, 3320.0) == pytest.approx(1.98795e-3, rel=1e-4)
    assert fw.predict_width(13.2, 3320.0) == pytest.approx(3.97590e-3, rel=1e-4)


def test_nonpositive_speed_rejected():
    with pytest.raises(fw.NonpositiveSpeed):
        fw.predict_tau(1.0, 0.0)
    with pytest.raises(fw.NonpositiveSpeed):
        fw.predict_width(1.0, -3.0)


# -- front tracking ----------------------------------------------------------------


def _sigmoid_snapshots(v=2.0, n_snaps=9, nx=400, L=40.0, width=0.25):
    grid = fw.Grid((nx,), (L / nx,), (0.0,))
    x = grid.axes[0].centers()
    snaps = []
    for k in range(n_snaps):
        t = 0.5 * k
        gamma = 1.0 / (1.0 + np.exp((x - (5.0 + v * t)) / width))
        snaps.append(Snapshot(step=k, time=t, U=np.zeros(nx), v=np.zeros(nx),
                              gamma=gamma, S=np.zeros(nx), Z=np.zeros(nx)))
    return snaps, grid


def test_track_front_recovers_speed():
    snaps, grid = _sigmoid_snapshots(v=2.0)
    track = fw.track_front(snaps, grid, level=0.5, gamma_max=1.0)
    assert track.v_f == pytest.approx(2.0, rel=1e-3)
    assert track.fit_r2 > 0.9999
    assert len(track.times) == 9


def test_track_front_level_scaling():
    # same profile saturating at 0.5: level is relative to gamma_max
    snaps, grid = _sigmoid_snapshots(v=1.5)
    for s in snaps:
        s.gamma = 0.5 * s.gamma
    track = fw.track_front(snaps, grid, level=0.5, gamma_max=0.5)
    assert track.v_f == pytest.approx(1.5, rel=1e-3)


def test_no_front_detected():
    snaps, grid = _sigmoid_snapshots()
    for s in snaps:
        s.gamma = np.zeros_like(s.gamma)
    with pytest.raises(fw.NoFrontDetected):
        fw.track_front(snaps, grid, gamma_max=1.0)


def test_front_tracking_of_tiled_rows_is_the_1d_track():
    # a 2D run whose rows all hold the 1D profile tracks bitwise as 1D does,
    # and a row ahead of the others sets the front
    snaps, grid = _sigmoid_snapshots()
    ny = 5
    grid2 = fw.Grid((grid.nx, ny), (grid.dx, 0.1), (0.0, 0.0))
    tiled = [Snapshot(step=s.step, time=s.time, U=None, v=None, gamma=np.tile(s.gamma, (ny, 1)),
                      S=None, Z=None) for s in snaps]
    one = fw.track_front(snaps, grid, gamma_max=1.0)
    two = fw.track_front(tiled, grid2, gamma_max=1.0)
    assert np.array_equal(one.times, two.times) and np.array_equal(one.positions, two.positions)
    assert (one.v_f, one.fit_r2) == (two.v_f, two.fit_r2)
    lead, _ = _sigmoid_snapshots(v=3.0)
    for s, ahead in zip(tiled, lead):
        s.gamma[3] = ahead.gamma
    assert fw.track_front(tiled, grid2, gamma_max=1.0).v_f == pytest.approx(3.0, rel=1e-3)


# -- rise times ---------------------------------------------------------------------


def test_rise_time_exponential_oracle():
    # y = 1 - exp(-t): 10% at ln(10/9), 90% at ln(10); rise = ln(9) = 2.1972
    t = np.linspace(0.0, 12.0, 4801)
    y = 1.0 - np.exp(-t)
    tau = fw.measure_rise_time((t, y))
    assert tau == pytest.approx(np.log(9.0), rel=1e-3)


def test_rise_time_step_bounded_by_sampling():
    t = np.arange(0.0, 10.5, 0.5)
    y = np.where(t >= 5.0, 1.0, 0.0)
    tau = fw.measure_rise_time((t, y))
    assert 0.0 <= tau <= 0.5 + 1e-12


def test_rise_time_custom_levels():
    # 1-99 bracket of 1 - exp(-t): ln(100) - ln(100/99) = ln(99)
    t = np.linspace(0.0, 20.0, 20001)
    y = 1.0 - np.exp(-t)
    tau = fw.measure_rise_time((t, y), lo=0.01, hi=0.99)
    assert tau == pytest.approx(np.log(99.0), rel=1e-3)


def test_no_plateau_on_flat_or_rising_tail():
    t = np.linspace(0.0, 1.0, 50)
    with pytest.raises(fw.NoPlateau):
        fw.measure_rise_time((t, np.zeros(50)))
    with pytest.raises(fw.NoPlateau):
        fw.measure_rise_time((t, t.copy()))  # never settles


# -- material tables ----------------------------------------------------------------


def test_table_rows_against_presets():
    report = fw.table_report()
    names = [r.name for r in report.rows]
    assert names == [p.name for p in fw.MATERIAL_PRESETS.values()]
    for row, preset in zip(report.rows, fw.MATERIAL_PRESETS.values()):
        assert row.tau_pred == pytest.approx(preset.d1 / preset.v_f**2, rel=1e-12)
        assert row.delta1_pred == pytest.approx(preset.d1 / preset.v_f, rel=1e-12)
        # published experimental values sit within 25% of the predictor
        assert abs(row.tau_pred - row.tau_exp) / row.tau_exp < 0.25
        assert abs(row.delta1_pred - row.delta1_exp) / row.delta1_exp < 0.25


def test_table_text_and_csv():
    report = fw.table_report()
    text = report.to_text()
    assert "K8" in text and "soda-lime" in text
    csv = report.to_csv()
    lines = csv.strip().splitlines()
    assert len(lines) == 1 + len(report.rows)
    header = lines[0].split(",")
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == len(header)
        float(parts[1])  # v_f column parses


# -- studies --------------------------------------------------------------------------


def test_elastic_study_order_small_grids(standing_wave_225):
    doc, exact = standing_wave_225
    study = fw.refinement_study(fw.refine(doc, -2), 2, exact)
    assert study.resolutions == [16, 32]
    assert 1.8 < study.order < 2.2
    assert study.errors["U"][0] > study.errors["U"][1]


def test_diffusion_study_order_small_grids(heat_kernel):
    text, exact = heat_kernel
    study = fw.refinement_study(fw.refine(text, -2), 2, exact)
    assert study.resolutions == [24, 48]
    assert 1.8 < study.order < 2.3


def _finest_ratios(study):
    """Each field's finest-pair difference ratio, fields with nonzero differences."""
    return {name: d[-2] / d[-1] for name, d in study.errors.items() if any(d)}


# Space and dt halved together at levels -1, 0, 1: every field that moves
# converges at second order. Not run: impact_k8, whose unramped 4 GPa
# traction step is not smooth (U 1.99, gamma 1.15 at levels -2..0 with
# t_end cut to 1058 coarsest steps; its own t_end is no whole number of
# steps), and clifton_pulse for cost (3.996 and 4.000 at levels -2..0 in
# 2 s; -1..1 would take about 5 s).
@pytest.mark.parametrize("name", [
    "verify_smooth", "heat_kernel", "standing_wave", "damage_decay", "kpp_front",
    pytest.param("linear_quadratic", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 12: the b != 0 coupling is first order in dt "
                            "(gamma ratio 1.72)")),
])
def test_shipped_scenario_refines_at_second_order(name):
    with open(os.path.join(SCENARIO_DIR, name + ".yaml")) as fh:
        study = fw.refinement_study(fw.refine(fh.read(), -1), 3)
    ratios = _finest_ratios(study)
    assert ratios and min(ratios.values()) >= 3.5, ratios


def test_2d_ring_refines_at_second_order(ring_2d):
    study = fw.refinement_study(fw.refine(ring_2d, -1), 3)
    assert study.resolutions == [8, 16, 32]
    ratios = _finest_ratios(study)
    assert set(ratios) == {"U", "gamma"} and min(ratios.values()) >= 3.5, ratios
    assert study.order == pytest.approx(np.log2(min(ratios.values())))
    with pytest.raises(fw.TooFewLevels, match="needs >= 3 levels"):
        fw.refinement_study(ring_2d, 2)  # successive differences need 3
    # t = 0.084 is 21 steps of 0.004 but 10.5 of the coarsest 0.008
    with pytest.raises(fw.InvalidValue, match="time.t_end"):
        fw.refinement_study(fw.refine(ring_2d.replace("t_end: 0.08", "t_end: 0.084"), -1), 3)


def test_refine_scales_grid_and_dt_and_refuses_what_it_cannot(ring_2d):
    fine = fw.refine(ring_2d, 1)
    assert fine["grid"] == {"nx": 32, "dx": 0.03125, "origin_x": 0.0,
                            "ny": 16, "dy": 0.03125, "origin_y": 0.0}
    assert fine["time"] == {"dt": 0.002, "t_end": 0.08}
    assert fw.refine(fine, -1) == fw.refine(ring_2d, 0)
    for k, key in ((-4, "grid.ny"), (-5, "grid.nx")):  # 16 x 8 cells
        with pytest.raises(fw.InvalidValue, match=key):
            fw.refine(ring_2d, k)
    tab = fw.scenario_to_dict(fw.build_scenario(ring_2d))
    tab["ic"]["gamma"] = {"type": "tabulated", "values": np.zeros((8, 16)).tolist()}
    assert fw.refine(tab, 0)["ic"]["gamma"]["type"] == "tabulated"
    with pytest.raises(fw.InvalidValue, match="tabulated"):
        fw.refine(tab, 1)


def test_variance_growth_matches_diffusivity():
    slope, expected = fw.variance_growth_slope()
    assert slope == pytest.approx(expected, rel=1e-12)


def test_clifton_mini_study_rows_and_slope():
    doc = {
        "grid": {"nx": 128, "dx": 1.0 / 128},
        "material": {"rho0": 1.0, "c1": 1.0, "lambda": 0.0, "d1": 0.2},
        "time": {"dt": 0.2 / 128, "t_end": 0.5},
        "ic": {"v": {"type": "gaussian", "amplitude": 1.0, "center": 0.5, "width": 0.08},
               "gamma": {"type": "gaussian", "amplitude": 0.4, "center": 0.5, "width": 0.1}},
        "bc": {"u_left": {"type": "periodic"}, "u_right": {"type": "periodic"},
               "gamma": {"type": "periodic"}},
    }
    study = fw.clifton_limit_study(fw.build_scenario(doc), [1e-3, 1e-4, 0.0])
    assert len(study.rows) == 3
    assert study.slope == pytest.approx(1.0, abs=0.02)
    frozen = study.rows[-1]
    assert frozen.lam == 0.0
    assert frozen.dissipated == 0.0
    assert frozen.energy_drift < 1e-4


# -- budget arithmetic ------------------------------------------------------------------


def test_budget_imbalance_definition():
    doc = {
        "grid": {"nx": 32, "dx": 1.0 / 32},
        "material": {"rho0": 1.0, "c1": 1.0, "c2": 1.0, "lambda": 1.0, "d1": 0.05},
        "time": {"dt": 0.005, "t_end": 0.1},
        "ic": {"gamma": {"type": "gaussian", "amplitude": 0.5, "center": 0.5,
                         "width": 0.1}},
        "bc": {"u_left": {"type": "fixed"}, "u_right": {"type": "fixed"},
               "gamma": {"type": "zero_flux"}},
    }
    res = fw.run(fw.build_scenario(doc))
    got = fw.budget_imbalance(res.reports)
    kin, free = res.reports["kinetic"], res.reports["free_energy"]
    tot = kin + free
    dis = res.reports["dissipated"]
    wrk = res.reports["boundary_work"]
    expected = np.max(np.abs(tot - tot[0] + dis - wrk)) / np.max(np.abs(kin) + np.abs(free))
    assert got == pytest.approx(expected, rel=1e-15)
    assert got < 1e-4

    # a negative free energy that cancels the kinetic one: the peak of
    # K + psi is 0.01, the peak of |K| + |psi| is 1.5 + 1.49 = 2.99, and the
    # residual 1e-6 reads 1e-6/2.99 (over 0.01 it would read 1e-4)
    reports = np.zeros(2, dtype=res.reports.dtype)
    reports["kinetic"] = [1.0, 1.5]
    reports["free_energy"] = [-0.99, -1.49]
    reports["dissipated"] = [0.0, 1e-6]
    assert fw.budget_imbalance(reports) == pytest.approx(1e-6 / 2.99, rel=1e-9)
