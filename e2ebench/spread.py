#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each named workload and prints, per
metric, the median and the distance between the first and third
quartiles as a share of the median, next to the metric's bound from
BENCHMARK.json. Run from the repository root after building:

    cargo build --release --manifest-path e2ebench/Cargo.toml
    python3 e2ebench/spread.py --seeds 1-10 serve_steady fleet_churn

`--bin` names the built benchmark (default: the release binary under
CARGO_TARGET_DIR, else e2ebench/target). Exits 1 if any run fails or
any spread other than setup_s's exceeds a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--bin")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    target = os.environ.get("CARGO_TARGET_DIR", "e2ebench/target")
    binary = args.bin or os.path.join(target, "release", "ostro-e2ebench")
    ok = True
    for workload in args.workloads:
        values = {}
        for seed in seeds(args.seeds):
            cmd = [binary, "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            started = time.monotonic()
            run = subprocess.run(cmd, capture_output=True, text=True)
            took = time.monotonic() - started
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if run.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: failed\n{run.stderr}")
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed} ({took:.0f} s): " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            share = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, 0)
            flag = ""
            if name != "setup_s" and share > bound / 3:
                flag = "  ABOVE A THIRD OF THE BOUND"
                ok = False
            print(f"{workload} {name}: median {med:.6g}, IQR/median {share:.4f}, "
                  f"bound {bound}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
