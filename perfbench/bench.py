"""Rounds, checks and metrics of one benchmark run (see run.py for usage).

Each round runs the user-facing path `failwave.cli.main(["run", ...])` on the
workload's scenario. On kpp_front, the first round and every traced round
then run the discrete variational audit `record_trajectory` +
`lagrange_residual`; the other plain rounds leave it out, so that a run
spends its time on more samples of `failwave run`. Rounds repeat until the
next one would end after --seconds, with at least two plain rounds (three
rounds in trace mode). The operations of a round are solve, artifacts and (kpp_front)
verify; one that raises or fails its output check is counted as failed.

--trace 0 reports the end-to-end metrics as medians over rounds; set-up time
is taken in fresh processes started before each round. --trace 1 runs plain
and traced rounds in the pattern plain, traced, traced, plain, ... and
reports the per-layer metrics of the traced rounds; plain rounds give the
untraced reference for the tracing overhead.
"""

from __future__ import annotations

import collections
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import env
import failwave as fw
import failwave.cli
import workloads as wl
from failwave.errors import RuntimeViolation
from spans import SpanView, Tracer

END_TO_END = {"setup_s": "s", "solve_s": "s", "run_to_disk_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "model.build_scenario_s": "s",
    "model.initialize_state_s": "s",
    "model.self_s": "s",
    "solver.us_per_step": "us",
    "solver.self_s": "s",
    "solver.run.self_s": "s",
    "solver.step_elastic.self_s": "s",
    "solver.step_damage.self_s": "s",
    "solver.run_clifton.self_s": "s",
    "solver.picard_iters_per_step": "calls/step",
    "solver.picard_capped_steps": "count",
    "solver.active_set_changes": "count",
    "ops.self_s": "s",
    "ops.damage_solve.self_s": "s",
    "ops.banded_solve.self_s": "s",
    "ops.banded_solves_per_step": "calls/step",
    "ops.strain_faces_per_step": "calls/step",
    "ops.face_conductivity_per_step": "calls/step",
    "constitutive.self_s": "s",
    "constitutive.total_free_energy.self_s": "s",
    "constitutive.internal_forces.self_s": "s",
    "constitutive.stress_per_step": "calls/step",
    "analysis.wave_metrics_s": "s",
    "analysis.budget_imbalance_s": "s",
    "variational.record_trajectory_s": "s",
    "variational.lagrange_residual_s": "s",
    "cli.artifacts_s": "s",
    "cli.bytes_written": "bytes",
    "trace.solve_s": "s",
    "trace.overhead_frac": "frac",
}

# Counts that a deterministic program repeats exactly from round to round
# (cli.bytes_written is checked over every round, traced or not).
EXACT = ("solver.picard_iters_per_step", "ops.banded_solves_per_step", "solver.active_set_changes")

SOLVE_LAYERS = ("model", "solver", "ops", "constitutive")


def setup_time(yaml_path) -> float:
    """Seconds to import failwave, build the scenario and initialize the
    state, in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(env.ROOT / "perfbench" / "setup_probe.py"), str(yaml_path)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.split()[-1])


class SolveProbe:
    """Times the `run` call that `failwave.cli.cmd_run` makes and keeps its
    result for the output checks."""

    def __enter__(self):
        self.inner = failwave.cli.run
        self.seconds = self.cfg = self.result = None

        def timed(cfg):
            t0 = time.perf_counter()
            res = self.inner(cfg)
            self.seconds = time.perf_counter() - t0
            self.cfg, self.result = cfg, res
            return res

        failwave.cli.run = timed
        return self

    def __exit__(self, *exc):
        failwave.cli.run = self.inner


def _describe(exc: BaseException) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1] if exc.__traceback__ else None
    where = f" in {frame.name}()" if frame else ""
    return f"{type(exc).__name__}: {exc}{where}"


class Bench:
    def __init__(self, workload: wl.Workload, yaml_path, work_dir, tracer=None):
        self.w = workload
        self.yaml_path = yaml_path
        self.out = work_dir / "out"
        self.tracer = tracer
        self.rounds = []
        self.attempted = 0
        self.failed = 0
        self.wrong = collections.Counter()  # outputs produced but wrong
        self.errors = collections.Counter()  # operations that raised
        self.peak_rss_mb = None  # ru_maxrss right after the first `failwave run`
        self.verify_cfg = fw.build_scenario(yaml_path.read_text()) if workload.verify else None

    def _op(self, name: str, fn) -> None:
        """Run one checked operation; count it, and count its failure."""
        self.attempted += 1
        try:
            fn()
            return
        except (wl.CheckFailed, RuntimeViolation) as exc:
            self.wrong[f"{name}: {_describe(exc)}"] += 1
        except Exception as exc:  # a failed operation; the run goes on
            self.errors[f"{name}: {_describe(exc)}"] += 1
        self.failed += 1

    def round(self, traced: bool) -> None:
        rec = {"traced": traced}
        shutil.rmtree(self.out, ignore_errors=True)
        lo = len(self.tracer) if self.tracer else 0
        if traced:
            self.tracer.install()
        try:
            self._run_round(rec, verify=traced or not self.rounds)
        finally:
            if traced:
                self.tracer.uninstall()
        if traced and rec["solve_s"] is not None:
            rec.update(layer_metrics(SpanView(self.tracer, lo, len(self.tracer)), rec))
        shutil.rmtree(self.out, ignore_errors=True)
        self.rounds.append(rec)

    def _run_round(self, rec: dict, verify: bool) -> None:
        with SolveProbe() as probe:
            t0 = time.perf_counter()
            try:
                rc = failwave.cli.main(["run", str(self.yaml_path), "--out", str(self.out), "--quiet"])
                raised = None
            except Exception as exc:
                rc, raised = None, exc
            rec["run_to_disk_s"] = time.perf_counter() - t0
        if self.peak_rss_mb is None:
            # ru_maxrss only grows: read it before the checks and the verify
            # stage, whose trajectory copies would otherwise set the peak.
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        res, cfg = probe.result, probe.cfg
        rec["solve_s"] = probe.seconds

        def solve_op():
            if res is None:
                if raised is not None:
                    raise raised
                raise wl.CheckFailed(f"failwave run exited {rc} before the solve finished")
            wl.check_state(res)
            self.w.check(cfg, res)

        def artifacts_op():
            if raised is not None:
                raise raised
            if rc != 0:
                raise wl.CheckFailed(f"failwave run exited {rc}")
            wl.check_artifacts(self.out, len(res.reports))

        self._op("solve", solve_op)
        self._op("artifacts", artifacts_op)
        raised = None  # its traceback holds this frame: free the run's result now, not at a later GC
        rec["bytes_written"] = (
            sum(f.stat().st_size for f in self.out.iterdir()) if self.out.is_dir() else 0
        )
        if res is not None:
            rec.update(
                cells=int(res.state.gamma.size), steps=len(res.reports) - 1,
                t_final=float(res.state.time), t_end=float(cfg.t_end),
                max_iter=int(cfg.numerics["source_max_iter"]),
            )
        del res, probe

        if verify and self.verify_cfg is not None:
            def verify_op():
                t0 = time.perf_counter()
                resid = fw.lagrange_residual(fw.record_trajectory(self.verify_cfg))
                rec["verify_s"] = time.perf_counter() - t0
                wl.check_residual(resid)

            self._op("verify", verify_op)


def layer_metrics(v: SpanView, rec: dict) -> dict:
    """Per-layer figures of one traced round. Solver, ops, constitutive and
    model figures count only spans inside the solve (the `run` call of
    `failwave run`); analysis and cli figures those inside `failwave run`."""
    m = {}
    run_mask = v.within(v.first("cli.main"))
    solve = v.first("solver.run", run_mask)
    s = v.within(solve)
    steps = rec["steps"]
    m["trace.solve_s"] = float(v.dur[solve])
    for layer in SOLVE_LAYERS:
        m[f"{layer}.self_s"] = v.self_s(s & v.layer_mask(layer))
    m["model.build_scenario_s"] = v.dur_s(run_mask & v.named("model.build_scenario"))
    m["model.initialize_state_s"] = v.dur_s(s & v.named("model.initialize_state"))
    for name in ("solver.run", "solver.step_elastic", "solver.step_damage", "solver.run_clifton",
                 "constitutive.total_free_energy", "constitutive.internal_forces"):
        m[f"{name}.self_s"] = v.self_s(s & v.named(name))

    damage = s & v.named("ops.cn_damage_step_1d", "ops.adi_damage_step_2d")
    m["ops.damage_solve.self_s"] = v.self_s(damage)
    step_damage = np.flatnonzero(s & v.named("solver.step_damage"))
    per_call = np.bincount(v.parent[damage], minlength=v.entry.size)[step_damage]
    m["solver.picard_iters_per_step"] = float(per_call.mean()) if per_call.size else 0.0
    m["solver.picard_capped_steps"] = int(np.count_nonzero(per_call >= rec["max_iter"]))
    active = [v.active_counts[i] for i in step_damage]
    m["solver.active_set_changes"] = int(np.count_nonzero(np.diff(active))) if active else 0

    m["ops.banded_solve.self_s"] = v.self_s(s & v.named("ops.solve_tridiag", "ops.solve_cyclic_tridiag"))
    m["ops.banded_solves_per_step"] = v.count(s & v.named("ops.solve_tridiag")) / steps
    strain = v.named("ops.strain_faces", "ops.strain_faces_1d", "ops.strain_faces_2d")
    outermost = strain & ~np.isin(v.parent, np.flatnonzero(strain))
    m["ops.strain_faces_per_step"] = v.count(s & outermost) / steps
    m["ops.face_conductivity_per_step"] = v.count(
        s & v.named("ops.face_conductivity_1d", "ops.face_conductivity_2d")) / steps
    m["constitutive.stress_per_step"] = v.count(s & v.named("constitutive.stress")) / steps

    m["analysis.wave_metrics_s"] = v.dur_s(run_mask & v.named("analysis.wave_metrics"))
    m["analysis.budget_imbalance_s"] = v.dur_s(run_mask & v.named("analysis.budget_imbalance"))
    top = v.parent < 0
    m["variational.record_trajectory_s"] = v.dur_s(top & v.named("variational.record_trajectory"))
    m["variational.lagrange_residual_s"] = v.dur_s(top & v.named("variational.lagrange_residual"))
    return m


def median_of(rounds, key):
    """(median of key over the rounds that have it, how many have it)."""
    vals = [r[key] for r in rounds if r.get(key) is not None]
    return (statistics.median(vals), len(vals)) if vals else (None, 0)


def end_to_end(b: Bench, setup: list, notes: list) -> dict:
    plain = b.rounds
    solve_s, n_solve = median_of(plain, "solve_s")
    rtd, n_rtd = median_of(plain, "run_to_disk_s")
    values = {
        "setup_s": (statistics.median(setup), len(setup)),
        "solve_s": (solve_s, n_solve),
        "run_to_disk_s": (rtd, n_rtd),
        "peak_rss_mb": (b.peak_rss_mb, 1),
    }
    for k, (val, n) in values.items():
        notes.append(f"{k:<14} {val:12.6g} {END_TO_END[k]:<3} (median of {n})")
    verify, n_verify = median_of(plain, "verify_s")
    if verify is not None:
        notes.append(f"{'verify_s':<14} {verify:12.6g} s   (median of {n_verify})")
    steps = next(r["steps"] for r in plain if "steps" in r)
    notes.append(f"{'us_per_step':<14} {solve_s / steps * 1e6:12.6g} us")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, (v, _) in values.items()}


def per_layer(b: Bench, notes: list, problems: list) -> dict:
    plain = [r for r in b.rounds if not r["traced"]]
    traced = [r for r in b.rounds if r["traced"]]
    solve_s, n_solve = median_of(plain, "solve_s")
    values = {k: statistics.median(r[k] for r in traced) for k in PER_LAYER if k in traced[0]}
    for key in EXACT:
        seen = {r[key] for r in traced}
        if len(seen) > 1:
            problems.append(f"{key} differs between traced rounds: {sorted(seen)}")
    sizes = {r["bytes_written"] for r in b.rounds}
    if len(sizes) > 1:
        problems.append(f"cli.bytes_written differs between rounds: {sorted(sizes)}")
    for r in traced:
        parts = sum(r[f"{layer}.self_s"] for layer in SOLVE_LAYERS)
        if abs(parts - r["trace.solve_s"]) > 1e-9 * r["trace.solve_s"]:
            problems.append(f"layer self times sum to {parts!r} s, not the traced solve {r['trace.solve_s']!r} s")
    values["cli.bytes_written"] = b.rounds[0]["bytes_written"]
    values["solver.us_per_step"] = solve_s / traced[0]["steps"] * 1e6
    values["cli.artifacts_s"] = statistics.median(r["run_to_disk_s"] - r["solve_s"] for r in plain)
    values["trace.overhead_frac"] = values["trace.solve_s"] / solve_s - 1.0
    notes.append(f"per layer: medians of {len(traced)} traced rounds; untraced reference "
                 f"solve_s {solve_s:.6g} s (median of {n_solve})")
    for k, unit in PER_LAYER.items():
        notes.append(f"  {k:<40} {values[k]:12.6g} {unit}")
    if b.tracer.absent:
        notes.append(f"absent entry points (reported as layers with no calls): {', '.join(b.tracer.absent)}")
    return {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}


def main(args) -> int:
    w = wl.WORKLOADS.get(args.workload)
    if w is None:
        print(f"unknown workload {args.workload!r}; one of {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    tag = f"{w.name}-s{args.seed}-t{args.trace}"
    work = env.OUT / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    yaml_path = work / "scenario.yaml"
    yaml_path.write_text(wl.scenario_text(w, args.seed, env.ROOT))

    setup = []
    if not args.trace:
        setup_time(yaml_path)  # untimed: fills the byte-code and file caches
    b = Bench(w, yaml_path, work, Tracer() if args.trace else None)
    deadline = time.perf_counter() + args.seconds
    min_rounds = 3 if args.trace else 2
    while True:
        traced = bool(args.trace) and len(b.rounds) % 3 != 0
        t0 = time.perf_counter()
        if not args.trace:
            # one fresh process before each plain round, so that the set-up
            # samples spread over the whole run rather than one moment of it
            setup.append(setup_time(yaml_path))
        b.round(traced)
        took = time.perf_counter() - t0
        if len(b.rounds) >= min_rounds and time.perf_counter() + took > deadline:
            break

    notes = [f"workload {w.name}, seed {args.seed}, trace {args.trace}: {len(b.rounds)} rounds"]
    sized = next((r for r in b.rounds if "steps" in r), None)
    if sized:
        notes.append(
            f"size: {sized['cells']} cells, {sized['steps']} steps, "
            f"final time {sized['t_final']!r} s of t_end {sized['t_end']!r} s"
        )
    problems = []
    metrics = {}
    if any(r["solve_s"] is None for r in b.rounds):
        problems.append("a round's solve did not finish; nothing to report")
    elif args.trace:
        metrics = per_layer(b, notes, problems)
    else:
        metrics = end_to_end(b, setup, notes)
    notes.append(f"ops_failed     {b.failed} of {b.attempted}")
    for msg, n in list(b.wrong.items()) + list(b.errors.items()):
        notes.append(f"  failed {n}x  {msg}")
    notes.extend(f"PROBLEM: {p}" for p in problems)

    results = env.OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": w.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "environment": env.describe(), "setup_samples": setup, "rounds": b.rounds,
        "absent": b.tracer.absent if b.tracer else [], "notes": notes,
        "correct": not b.wrong and not problems, "attempted": b.attempted, "failed": b.failed,
        "metrics": metrics,
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if b.tracer:
        b.tracer.save(results / f"{tag}-spans.npz")
    print("\n".join(notes))
    if not metrics:
        return 1
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0
