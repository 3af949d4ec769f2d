"""Run every workload of the benchmark, each in a fresh process, one at a
time, and print the end-to-end metrics, the failed operations and a µs/step
table side by side.

Usage: python3 perfbench/suite.py [--seed N] [--seconds S] [--trace]

With --trace each workload also gets a traced run, and the per-layer metrics
are printed as one table. Every run's full record stays in
perfbench/out/results/; the suite's summary goes to
perfbench/out/results/suite-s<seed>.json.
"""

import argparse
import json
import subprocess
import sys

import env

# fw.run wall time per step from single unpinned runs on a shared 2-core
# x86_64 sandbox (Python 3.11.7, numpy 2.4.6, scipy 1.17.1), kept for
# comparison with the pinned figures this suite measures.
UNPINNED_US_PER_STEP = {"kpp_front": 1514, "impact_k8": 1701, "clifton_pulse": 64}


def run_one(name, seed, seconds, trace):
    cmd = [sys.executable, str(env.ROOT / "perfbench" / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        print(f"{name} (trace {trace}) exited {proc.returncode}:\n{proc.stdout[-1500:]}{proc.stderr[-1500:]}")
        return None
    return json.loads((env.OUT / "results" / f"{name}-s{seed}-t{trace}.json").read_text())


def main() -> int:
    ap = argparse.ArgumentParser(description="all benchmark workloads, one fresh process each")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", action="store_true", help="also run each workload traced")
    args = ap.parse_args()
    env.prepare()
    from bench import PER_LAYER, median_of
    from workloads import WORKLOADS

    print("environment:", json.dumps(env.describe()))
    plain, traced = {}, {}
    for name in WORKLOADS:
        plain[name] = run_one(name, args.seed, args.seconds, 0)
        if args.trace:
            traced[name] = run_one(name, args.seed, args.seconds, 1)

    head = ("workload", "cells", "steps", "t_final", "t_end", "setup_s", "solve_s",
            "run_to_disk_s", "verify_s", "peak_rss_mb", "ops_failed", "us/step", "unpinned")
    print("\n" + " ".join(f"{h:>13}" for h in head))
    for name, rec in plain.items():
        if rec is None:
            continue
        size = next(r for r in rec["rounds"] if "steps" in r)
        m = {k: v["value"] for k, v in rec["metrics"].items()}
        verify, _ = median_of(rec["rounds"], "verify_s")
        row = (name, size["cells"], size["steps"], f"{size['t_final']:.6g}", f"{size['t_end']:.6g}",
               f"{m['setup_s']:.4f}", f"{m['solve_s']:.4f}", f"{m['run_to_disk_s']:.4f}",
               "-" if verify is None else f"{verify:.4f}", f"{m['peak_rss_mb']:.1f}",
               f"{rec['failed']}/{rec['attempted']}", f"{m['solve_s'] / size['steps'] * 1e6:.1f}",
               UNPINNED_US_PER_STEP.get(name, "-"))
        print(" ".join(f"{c:>13}" for c in row))
    print("times are medians over a run's rounds (set-up over fresh processes); "
          "unpinned = earlier single-run fw.run figure")
    for name, rec in plain.items():
        for line in rec["notes"] if rec else ():
            if line.lstrip().startswith(("failed", "PROBLEM")):
                print(f"{name}: {line.strip()}")

    if traced:
        names = [n for n, r in traced.items() if r is not None]
        print("\n" + f"{'per-layer metric':<40}" + "".join(f"{n:>15}" for n in names))
        for key, unit in PER_LAYER.items():
            vals = "".join(f"{traced[n]['metrics'][key]['value']:>15.6g}" for n in names)
            print(f"{key + ' [' + unit + ']':<40}{vals}")
        for n in names:
            if traced[n]["absent"]:
                print(f"{n}: absent entry points {', '.join(traced[n]['absent'])}")

    summary = {"seed": args.seed, "seconds": args.seconds, "environment": env.describe(),
               "plain": plain, "traced": traced}
    (env.OUT / "results" / f"suite-s{args.seed}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if all(plain.values()) and all(traced.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
