"""Benchmark of `failwave run` on one workload.

Usage:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: kpp_front, impact_k8, lateral_2d, clifton_pulse (see
perfbench/README.md). The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.
"""

import argparse

import env


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="benchmark of `failwave run` on one workload")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


if __name__ == "__main__":
    args = parse_args()
    env.prepare()  # before numpy is imported
    import bench

    raise SystemExit(bench.main(args))
