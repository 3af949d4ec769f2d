"""Command-line front end.

Subcommands: run (integrate a scenario and dump CSV artifacts), clifton-study
(dissipation scaling across lam values), tables (predictor vs experiment),
verify-variational (Euler-Lagrange residual refinement), convergence (the
observed order of a scenario refined twice by model.refine). Exit codes: 0
success, 1 a refused input (a bad configuration or argument, or another
FailwaveError such as a trajectory too short to verify), 2 a run tripped a
stability or admissibility contract.

All CSV output uses %.17g so reruns of the same config are byte-identical;
wall-clock stamps live only in the JSON manifest.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import analysis
from .errors import ConfigError, FailwaveError, InvalidValue, RuntimeViolation
from .model import build_scenario, config_hash, refine, scenario_to_dict
from .solver import REPORT_FIELDS, run
from .variational import lagrange_residual, record_trajectory


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _load_config(path: str):
    if not os.path.isfile(path):
        raise ConfigError(f"config not found: {path}")
    with open(path) as fh:
        return build_scenario(fh.read())


def _outdir(args) -> str:
    out = args.out or os.environ.get("FAILWAVE_OUT") or "out"
    os.makedirs(out, exist_ok=True)
    return out


def _write(path: str, lines) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


_CSV_BLOCK = 1024  # rows per formatting call; bounds the transient strings


def _write_csv(path: str, header: str, table: np.ndarray) -> None:
    """Write a (rows, cols) array under a header line, every value as %.17g.

    Each block of rows is formatted by one % over a repeated row template,
    which gives the same bytes as formatting value by value."""
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(table), _CSV_BLOCK):
            block = table[lo:lo + _CSV_BLOCK]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg)


# -- run -----------------------------------------------------------------------


def _snapshot_table(snap, cfg):
    axes = cfg.grid.axes
    coords = np.meshgrid(*(ax.centers() for ax in axes))  # x first, each shaped like a field
    header = ",".join(("X", "Y")[: len(axes)] + ("U", "v", "gamma", "S", "Z"))
    fields = (*coords, snap.U, snap.v, snap.gamma, snap.S, snap.Z)
    return header, np.column_stack([np.ravel(f) for f in fields])


def _finite_or_none(x):
    try:
        x = float(x)
    except (TypeError, ValueError):
        return None
    return x if math.isfinite(x) else None


def cmd_run(args) -> int:
    if not 0 < args.level < 1:  # outside (0, 1) no level is ever crossed
        raise InvalidValue("--level", f"must be in (0, 1), got {args.level}")
    cfg = _load_config(args.config)
    if args.snapshots is not None:
        doc = scenario_to_dict(cfg)
        doc["output"]["snapshots"] = args.snapshots
        cfg = build_scenario(doc)
    out = _outdir(args)
    started = datetime.now(timezone.utc).isoformat()
    result = run(cfg)
    finished = datetime.now(timezone.utc).isoformat()

    files = []
    for snap in result.snapshots:
        name = f"snap_{snap.step:06d}.csv"
        _write_csv(os.path.join(out, name), *_snapshot_table(snap, cfg))
        files.append(name)
    for idx, trace in enumerate(result.gauges):
        name = f"gauge_{idx:02d}.csv"
        table = np.column_stack((trace.t, trace.S, trace.gamma, trace.sigma_lateral_proxy))
        _write_csv(os.path.join(out, name), "t,S,gamma,sigma_lateral_proxy", table)
        files.append(name)
    rec = result.reports
    table = np.column_stack([rec[name] for name in REPORT_FIELDS] + [rec["kinetic"] + rec["free_energy"]])
    _write_csv(os.path.join(out, "reports.csv"), ",".join(REPORT_FIELDS) + ",total", table)
    files.append("reports.csv")

    summary = {
        "energy_closure": _finite_or_none(analysis.budget_imbalance(rec)),
        # + 0.0 reports a zero minimum as 0.0, never -0.0
        "min_Z_gammadot": _finite_or_none(rec["min_Z_gammadot"].min() + 0.0),
        "v_f": None,
        "tau": None,
        "delta1": None,
        "delta2": None,
        "fit_r2": None,
        "steps": len(result.reports) - 1,
        "t_final": result.state.time,
    }
    try:
        wm = analysis.wave_metrics(result, cfg, level=args.level)
        summary.update(
            v_f=_finite_or_none(wm.v_f),
            tau=_finite_or_none(wm.tau),
            delta1=_finite_or_none(wm.delta1),
            delta2=_finite_or_none(wm.delta2),
            fit_r2=_finite_or_none(wm.fit_r2),
        )
    except FailwaveError:
        pass  # quiescent or front-free runs have no wave metrics

    manifest = {
        "scenario": cfg.name,
        "config_hash": config_hash(cfg),
        "started": started,
        "finished": finished,
        "files": sorted(files),
        "summary": summary,
    }
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _say(args, f"{cfg.name}: {len(result.reports) - 1} steps, artifacts in {out}")
    return 0


# -- clifton-study ---------------------------------------------------------------


def cmd_clifton_study(args) -> int:
    cfg = _load_config(args.config)
    try:
        lambdas = [float(s) for s in args.lambdas.split(",") if s.strip() != ""]
    except ValueError:
        lambdas = []
    if not lambdas:
        raise InvalidValue("--lambdas", f"not a comma-separated list of numbers: {args.lambdas!r}")
    study = analysis.clifton_limit_study(cfg, lambdas)
    out = _outdir(args)
    lines = ["lambda,dissipated,energy_drift,front_sharpness"]
    for row in study.rows:
        lines.append(
            ",".join(_fmt(v) for v in (row.lam, row.dissipated, row.energy_drift, row.front_sharpness))
        )
    _write(os.path.join(out, "limit_study.csv"), lines)
    _say(args, f"dissipation scaling slope vs lam: {study.slope:.4f}")
    for row in study.rows:
        _say(
            args,
            f"  lam={row.lam:.3e}  dissipated={row.dissipated:.6e}  "
            f"drift={row.energy_drift:.3e}  sharpness={row.front_sharpness:.4e}",
        )
    return 0


# -- tables ----------------------------------------------------------------------


def cmd_tables(args) -> int:
    rep = analysis.table_report()
    out = _outdir(args)
    with open(os.path.join(out, "tables.csv"), "w") as fh:
        fh.write(rep.to_csv())
    text = rep.to_text()
    with open(os.path.join(out, "tables.txt"), "w") as fh:
        fh.write(text)
    if not args.quiet:
        sys.stdout.write(text)
    return 0


# -- verify-variational ----------------------------------------------------------


def cmd_verify_variational(args) -> int:
    if args.levels < 1:
        raise InvalidValue("--levels", "must be >= 1")
    base = scenario_to_dict(_load_config(args.config))
    cfgs = [build_scenario(refine(base, lev)) for lev in range(args.levels)]
    out = _outdir(args)
    lines = ["level,nx,dt,time,residU_L2,residGamma_L2"]
    max_norms = []
    for lev, cfg_lev in enumerate(cfgs):
        res = lagrange_residual(record_trajectory(cfg_lev))
        for row in zip(res.times, res.norms_U, res.norms_gamma):
            lines.append(",".join(map(_fmt, (lev, cfg_lev.grid.nx, cfg_lev.dt, *row))))
        max_norms.append(float(np.max(res.norms_combined)))
        _say(args, f"level {lev}: nx={cfg_lev.grid.nx} dt={cfg_lev.dt:.3e} max residual {max_norms[-1]:.6e}")
    _write(os.path.join(out, "residual_norms.csv"), lines)
    for lev in range(1, len(max_norms)):
        ratio = max_norms[lev - 1] / max_norms[lev] if max_norms[lev] > 0 else float("inf")
        _say(args, f"level {lev - 1} -> {lev}: residual shrank {ratio:.2f}x")
    return 0


# -- convergence -----------------------------------------------------------------


def cmd_convergence(args) -> int:
    study = analysis.refinement_study(scenario_to_dict(_load_config(args.config)))
    out = _outdir(args)
    lines = ["level,nx,dx,field,difference,order"]  # one row per level and field
    for lev in range(1, len(study.resolutions)):
        for name, diffs in study.errors.items():
            order = study.orders.get(name, math.nan)
            lines.append(",".join((*map(_fmt, (lev, study.resolutions[lev], study.dxs[lev])),
                                   name, _fmt(diffs[lev - 1]), _fmt(order))))
    _write(os.path.join(out, "convergence.csv"), lines)
    for name, order in study.orders.items():
        _say(args, f"{study.name} {name}: observed order {order:.3f}")
    return 0


# -- parser ----------------------------------------------------------------------


def _add_common(sub) -> None:
    sub.add_argument("--out", default=None, help="output directory (default $FAILWAVE_OUT or ./out)")
    sub.add_argument("--quiet", action="store_true", help="suppress non-error output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="failwave",
        description="failure-wave continuum simulations and their verifiers",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="integrate a scenario, write CSV artifacts")
    p_run.add_argument("config", help="scenario YAML file")
    p_run.add_argument("--snapshots", type=int, default=None, help="override snapshot count")
    p_run.add_argument("--level", type=float, default=0.5,
                       help="front threshold fraction for metrics, in (0, 1)")
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cs = subs.add_parser("clifton-study", help="dissipation scaling across lam values")
    p_cs.add_argument("config", help="base scenario YAML file")
    p_cs.add_argument(
        "--lambdas", default="1e-2,1e-3,1e-4,0", help="comma-separated lam values (0 = conservative limit)"
    )
    _add_common(p_cs)
    p_cs.set_defaults(func=cmd_clifton_study)

    p_tab = subs.add_parser("tables", help="predictor vs experiment comparison tables")
    _add_common(p_tab)
    p_tab.set_defaults(func=cmd_tables)

    p_vv = subs.add_parser("verify-variational", help="Euler-Lagrange residual refinement study")
    p_vv.add_argument("config", help="scenario YAML file (coarsest level)")
    p_vv.add_argument("--levels", type=int, default=3, help="refinement levels (default 3)")
    _add_common(p_vv)
    p_vv.set_defaults(func=cmd_verify_variational)

    p_cv = subs.add_parser("convergence", help="order-of-accuracy refinement study")
    p_cv.add_argument("config", help="scenario YAML file (coarsest of 3 levels)")
    _add_common(p_cv)
    p_cv.set_defaults(func=cmd_convergence)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RuntimeViolation as err:
        print(f"runtime violation: {err}", file=sys.stderr)
        return 2
    except FailwaveError as err:  # ConfigError, or an input a study refuses
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
