"""Command-line driver: artifacts, exit codes, determinism."""

import json
import os
import shlex

import numpy as np
import pytest

import failwave as fw
from failwave import cli

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
HEAT = os.path.join(SCENARIO_DIR, "heat_kernel.yaml")
SMOOTH = os.path.join(SCENARIO_DIR, "verify_smooth.yaml")
KPP = os.path.join(SCENARIO_DIR, "kpp_front.yaml")


def write_yaml(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


CLIFTON_SMALL = """\
name: clifton_small
grid: {nx: 128, dx: 0.0078125}
material: {rho0: 1.0, c1: 1.0, lambda: 0.01, d1: 0.2}
time: {dt: 1.5625e-3, t_end: 0.5}
ic:
  v: {type: gaussian, amplitude: 1.0, center: 0.5, width: 0.08}
  gamma: {type: gaussian, amplitude: 0.4, center: 0.5, width: 0.1}
bc:
  u_left: {type: periodic}
  u_right: {type: periodic}
  gamma: {type: periodic}
output: {snapshots: 2}
"""

UNSTABLE = """\
name: unstable
grid: {nx: 32, dx: 0.03125}
material: {rho0: 1.0, c1: 1.0, lambda: 1.0, d1: 0.1}
time: {dt: 0.1, t_end: 0.5}   # Courant number 3.2
ic:
  U: {type: sine, amplitude: 0.01, mode: 1}
bc:
  u_left: {type: fixed}
  u_right: {type: fixed}
  gamma: {type: zero_flux}
output: {snapshots: 2}
"""


def test_run_writes_artifacts_and_manifest(tmp_path):
    out = str(tmp_path / "out")
    rc = cli.main(["run", HEAT, "--out", out, "--snapshots", "3", "--quiet"])
    assert rc == 0
    names = sorted(os.listdir(out))
    assert "reports.csv" in names
    assert "manifest.json" in names
    assert "gauge_00.csv" in names
    assert sum(n.startswith("snap_") for n in names) == 3

    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    with open(HEAT) as fh:
        cfg = fw.build_scenario(fh.read())
    doc = fw.scenario_to_dict(cfg)
    doc["output"]["snapshots"] = 3
    assert manifest["config_hash"] == fw.config_hash(fw.build_scenario(doc))
    assert manifest["scenario"] == "heat_kernel"
    assert set(manifest["files"]) == set(names) - {"manifest.json"}
    # quiescent pulse has no travelling front: metric fields stay null
    assert manifest["summary"]["v_f"] is None
    assert manifest["summary"]["energy_closure"] < 1e-10

    with open(os.path.join(out, "reports.csv")) as fh:
        header = fh.readline().strip()
    assert header == (
        "time,dt,max_cfl,max_diff,min_Z_gammadot,"
        "kinetic,free_energy,dissipated,boundary_work,total"
    )
    with open(os.path.join(out, "gauge_00.csv")) as fh:
        assert fh.readline().strip() == "t,S,gamma,sigma_lateral_proxy"


def test_reports_csv_holds_the_run_record(tmp_path):
    out = str(tmp_path / "out")
    assert cli.main(["run", SMOOTH, "--out", out, "--quiet"]) == 0
    with open(SMOOTH) as fh:
        rec = fw.run(fw.build_scenario(fh.read())).reports
    table = np.loadtxt(os.path.join(out, "reports.csv"), delimiter=",", skiprows=1)
    assert table.shape == (len(rec), len(rec.dtype.names) + 1)
    for col, name in zip(table.T, rec.dtype.names):
        assert np.array_equal(col, rec[name]), name
    assert np.array_equal(table[:, -1], rec["kinetic"] + rec["free_energy"])


def test_run_output_is_bitwise_deterministic(tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert cli.main(["run", HEAT, "--out", out_a, "--quiet"]) == 0
    assert cli.main(["run", HEAT, "--out", out_b, "--quiet"]) == 0
    names = sorted(n for n in os.listdir(out_a) if n.endswith(".csv"))
    assert names == sorted(n for n in os.listdir(out_b) if n.endswith(".csv"))
    for n in names:
        with open(os.path.join(out_a, n), "rb") as fh:
            a = fh.read()
        with open(os.path.join(out_b, n), "rb") as fh:
            b = fh.read()
        assert a == b, n


def test_missing_config_exits_one(tmp_path, capsys):
    rc = cli.main(["run", str(tmp_path / "nope.yaml"), "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "config not found" in err


def test_bad_config_exits_one(tmp_path, capsys):
    path = write_yaml(tmp_path, "bad.yaml", "grid: {nx: 8, dx: 0.125}\n")
    rc = cli.main(["run", path, "--quiet"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


ONE_STEP = """\
name: one_step
grid: {nx: 8, dx: 0.125}
material: {rho0: 1.0, c1: 1.0, lambda: 1.0, d1: 0.1}
time: {dt: 0.01, t_end: 0.01}
ic:
  gamma: {type: gaussian, amplitude: 0.5, center: 0.5, width: 0.2}
output: {snapshots: 2}
"""


@pytest.mark.parametrize("argv, named", [
    (["verify-variational", "{one_step}"], "time levels"),
    (["clifton-study", "{one_step}", "--lambdas", "1e-2,abc"], "--lambdas"),
    (["clifton-study", "{one_step}", "--lambdas", ","], "--lambdas"),
    (["verify-variational", SMOOTH, "--levels", "0"], "--levels"),
    (["run", KPP, "--level", "2"], "--level"),
], ids=["one-step-trajectory", "non-numeric-lambda", "no-lambda", "zero-levels",
        "front-level"])
def test_refused_inputs_exit_one(tmp_path, capsys, argv, named):
    one_step = write_yaml(tmp_path, "one_step.yaml", ONE_STEP)
    out = str(tmp_path / "out")
    rc = cli.main([a.format(one_step=one_step) for a in argv] + ["--out", out, "--quiet"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and named in err and "Traceback" not in err
    assert not os.path.exists(os.path.join(out, "residual_norms.csv"))


def test_unstable_run_exits_two(tmp_path, capsys):
    path = write_yaml(tmp_path, "unstable.yaml", UNSTABLE)
    rc = cli.main(["run", path, "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    assert "runtime violation" in capsys.readouterr().err


def test_failwave_out_env_is_honored(tmp_path, monkeypatch):
    out = str(tmp_path / "envout")
    monkeypatch.setenv("FAILWAVE_OUT", out)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", HEAT, "--quiet"]) == 0
    assert os.path.isfile(os.path.join(out, "manifest.json"))


def test_tables_command(tmp_path, capsys):
    out = str(tmp_path / "tab")
    rc = cli.main(["tables", "--out", out])
    assert rc == 0
    text = capsys.readouterr().out
    assert "K8" in text
    assert "soda-lime" in text
    assert os.path.isfile(os.path.join(out, "tables.csv"))
    with open(os.path.join(out, "tables.txt")) as fh:
        assert fh.read() == text


def test_verify_variational_command(tmp_path, capsys):
    out = str(tmp_path / "vv")
    rc = cli.main(["verify-variational", SMOOTH, "--levels", "2", "--out", out])
    assert rc == 0
    msg = capsys.readouterr().out
    assert "residual shrank" in msg
    with open(os.path.join(out, "residual_norms.csv")) as fh:
        header = fh.readline().strip()
        rows = fh.read().strip().splitlines()
    assert header == "level,nx,dt,time,residU_L2,residGamma_L2"
    # interior levels only: (20 - 1) + (40 - 1)
    assert len(rows) == 19 + 39


def test_verify_variational_refines_a_2d_ring(tmp_path, capsys, ring_2d):
    # both axes refine with dt: 16x8 then 32x16 cells; the displacement
    # residual stays roundoff and the damage residual shrinks at O(dt^2)
    out = str(tmp_path / "vv2d")
    rc = cli.main(["verify-variational", write_yaml(tmp_path, "ring.yaml", ring_2d),
                   "--levels", "2", "--out", out])
    assert rc == 0
    assert "residual shrank" in capsys.readouterr().out
    table = np.loadtxt(os.path.join(out, "residual_norms.csv"), delimiter=",", skiprows=1)
    levels = [table[table[:, 0] == lev] for lev in (0, 1)]
    assert [len(rows) for rows in levels] == [19, 39]
    assert [rows[0, 1] for rows in levels] == [16, 32]
    assert table[:, 4].max() < 1e-11
    assert levels[0][:, 5].max() / levels[1][:, 5].max() >= 3.5


@pytest.mark.parametrize("command", [["verify-variational", "--levels", "2"], ["convergence"]],
                         ids=["verify-variational", "convergence"])
def test_verify_variational_rejects_tabulated_refinement(tmp_path, capsys, command):
    doc = """\
name: tab
grid: {nx: 8, dx: 0.125}
material: {rho0: 1.0, c1: 1.0, lambda: 1.0, d1: 0.1}
time: {dt: 0.004, t_end: 0.04}
ic:
  gamma: {type: tabulated, values: [0.0, 0.1, 0.2, 0.3, 0.3, 0.2, 0.1, 0.0]}
bc:
  u_left: {type: fixed}
  u_right: {type: fixed}
  gamma: {type: zero_flux}
output: {snapshots: 2}
"""
    path = write_yaml(tmp_path, "tab.yaml", doc)
    rc = cli.main([command[0], path, *command[1:], "--quiet"])
    assert rc == 1
    assert "tabulated" in capsys.readouterr().err


def test_convergence_command(tmp_path, capsys):
    out = str(tmp_path / "conv")
    rc = cli.main(["convergence", HEAT, "--out", out])
    assert rc == 0
    # gamma spreads, U stays identically zero and has no order to report
    said = capsys.readouterr().out.splitlines()
    assert len(said) == 1 and said[0].startswith("heat_kernel gamma: observed order")
    with open(os.path.join(out, "convergence.csv")) as fh:
        header = fh.readline().strip()
        rows = [r.split(",") for r in fh.read().strip().splitlines()]
    assert header == "level,nx,dx,field,difference,order"
    assert [r[:4] for r in rows] == [["1", "192", "0.015625", "U"], ["1", "192", "0.015625", "gamma"],
                                     ["2", "384", "0.0078125", "U"], ["2", "384", "0.0078125", "gamma"]]
    assert [r[4:] for r in rows[::2]] == [["0", "nan"], ["0", "nan"]]
    diffs = [float(r[4]) for r in rows[1::2]]
    assert diffs[0] / diffs[1] >= 3.5


def test_readme_commands_parse():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        section = fh.read().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("failwave ")]
    assert len(commands) == 5
    parser = cli.build_parser()
    for argv in commands:
        assert parser.parse_args(argv).func.__name__ == "cmd_" + argv[0].replace("-", "_")


def test_clifton_study_command(tmp_path, capsys):
    path = write_yaml(tmp_path, "clifton_small.yaml", CLIFTON_SMALL)
    out = str(tmp_path / "cs")
    rc = cli.main(["clifton-study", path, "--lambdas", "1e-2,1e-3", "--out", out])
    assert rc == 0
    assert "slope" in capsys.readouterr().out
    with open(os.path.join(out, "limit_study.csv")) as fh:
        header = fh.readline().strip()
        rows = fh.read().strip().splitlines()
    assert header == "lambda,dissipated,energy_drift,front_sharpness"
    assert len(rows) == 2
    # dissipation scales linearly with lam: ratio of the two rows is 10x
    d = [float(r.split(",")[1]) for r in rows]
    assert d[0] / d[1] == pytest.approx(10.0, rel=1e-6)


SHEET_2D = """\
name: sheet_2d
grid: {nx: 6, ny: 5, dx: 0.5, dy: 0.5}
material:
  rho0: 1.0
  c1: 1.0
  lambda: 1.0
  d1: 0.2
  d2: 0.4
  source: {law: logistic, rate: 1.0, gamma_max: 1.0}
time: {dt: 0.05, t_end: 0.2}
ic:
  gamma: {type: gaussian, amplitude: 0.5, center: [1.5, 1.25], width: 0.5}
bc:
  u_left: {type: fixed}
  u_right: {type: fixed}
  gamma: {type: zero_flux}
gauges: [[2.0, 1.0]]
output: {snapshots: 3}
"""


def test_2d_run_writes_snapshots(tmp_path):
    path = write_yaml(tmp_path, "sheet.yaml", SHEET_2D)
    out = str(tmp_path / "out")
    assert cli.main(["run", path, "--out", out, "--quiet"]) == 0
    snaps = sorted(n for n in os.listdir(out) if n.startswith("snap_"))
    assert len(snaps) == 3
    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert set(snaps) <= set(manifest["files"])
    with open(os.path.join(out, snaps[-1])) as fh:
        header = fh.readline().strip()
        rows = [line.split(",") for line in fh.read().strip().splitlines()]
    assert header == "X,Y,U,v,gamma,S,Z"
    assert len(rows) == 6 * 5
    # rows run x-fastest: cell (j, i) = (1, 2) is row 8, centered at (1.25, 0.75)
    assert float(rows[8][0]) == 1.25 and float(rows[8][1]) == 0.75


def test_manifest_reports_actual_final_time(tmp_path):
    # t_end is not a multiple of dt: the run stops at the nearest whole step
    with open(HEAT) as fh:
        doc = fw.scenario_to_dict(fw.build_scenario(fh.read()))
    dt = doc["time"]["dt"]
    doc["time"]["t_end"] = 10.4 * dt
    path = write_yaml(tmp_path, "heat.yaml", json.dumps(doc))
    out = str(tmp_path / "out")
    assert cli.main(["run", path, "--out", out, "--quiet"]) == 0
    with open(os.path.join(out, "manifest.json")) as fh:
        summary = json.load(fh)["summary"]
    assert summary["steps"] == 10
    assert summary["t_final"] == 10 * dt
    assert summary["t_final"] < doc["time"]["t_end"]



UNSETTLED_FRONT = """\
name: unsettled_front
grid: {nx: 200, dx: 0.1}
material:
  rho0: 1.0
  c1: 1.0
  lambda: 1.0
  d1: 1.0
  source: {law: logistic, rate: 1.0, gamma_max: 1.0}
time: {dt: 0.05, t_end: 6.0}
ic:
  gamma: {type: step, left: 1.0, right: 0.0, at: 2.0}
bc:
  u_left: {type: fixed}
  u_right: {type: fixed}
  gamma: {type: zero_flux}
gauges: [12.0]   # the front reaches it near the end: its trace never settles
output: {snapshots: 11}
"""


def test_manifest_keeps_the_front_speed_of_an_unsettled_gauge(tmp_path):
    path = write_yaml(tmp_path, "front.yaml", UNSETTLED_FRONT)
    out = str(tmp_path / "out")
    assert cli.main(["run", path, "--out", out, "--quiet"]) == 0
    with open(os.path.join(out, "manifest.json")) as fh:
        summary = json.load(fh)["summary"]
    assert summary["tau"] is None
    assert 1.0 < summary["v_f"] < 2.5  # the pulled speed 2 sqrt(d1 r) = 2 is approached from below
    assert summary["fit_r2"] > 0.99
    assert summary["delta1"] is not None and summary["delta2"] is not None

def test_non_finite_tabulated_ic_exits_one(tmp_path, capsys):
    doc = """\
name: tab_nan
grid: {nx: 4, dx: 0.25}
material: {rho0: 1.0, c1: 1.0, lambda: 1.0, d1: 0.1}
time: {dt: 0.01, t_end: 0.05}
ic:
  gamma: {type: tabulated, values: [0.0, .nan, 0.2, 0.0]}
output: {snapshots: 2}
"""
    path = write_yaml(tmp_path, "tab_nan.yaml", doc)
    rc = cli.main(["run", path, "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "ic.gamma.values" in err and "finite" in err
