#!/usr/bin/env python3
"""Check that the traced counts repeat exactly: two traced runs with a
random hash seed and one each with PYTHONHASHSEED=0, 1 and 2, per workload.

  python3 perfbench/determinism.py [--seed N] [WORKLOAD ...]

Run from the repository root.  Prints one line per workload and exits
non-zero when any count or result digest differs between the runs.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HASH_SEEDS = [None, None, "0", "1", "2"]  # None: left unset, so random


def traced_run(workload, seed, hash_seed):
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=900,
                          check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next(line.split()[2] for line in lines if line.startswith("# digest"))
    counts = {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}
    return result["correct"], digest, counts


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("workloads", nargs="*",
                    default=["rank_rr", "reduce_big", "limit_series", "cli_docs"])
    args = ap.parse_args()
    ok = True
    for wl in args.workloads:
        runs = [traced_run(wl, args.seed, h) for h in HASH_SEEDS]
        correct, digest, counts = runs[0]
        same = all(r[1:] == (digest, counts) for r in runs[1:])
        ok &= same and all(r[0] for r in runs)
        labels = ", ".join("random" if h is None else h for h in HASH_SEEDS)
        print(f"{wl}: {len(counts)} counts over hash seeds [{labels}]: "
              f"{'identical' if same else 'DIFFER'}; correct={all(r[0] for r in runs)}")
        if not same:
            for key in counts:
                vals = [r[2][key] for r in runs]
                if len(set(vals)) > 1:
                    print(f"  {key}: {vals}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
