#!/usr/bin/env python3
"""Run the benchmark once per seed and print each metric's median and its
quartile spread (distance between the first and third quartiles as a share
of the median), next to the bound BENCHMARK.json fixes for it.

    python3 bench/spread.py --workload NAME --seeds 0-9 [--trace 0|1] [--seconds S]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from measure import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    low, _, high = args.seeds.partition("-")
    values: dict[str, list[float]] = {}
    for seed in range(int(low), int(high or low) + 1):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds or spec["run_seconds"]), "--trace", str(args.trace),
        ]
        out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
        result = json.loads(out.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed} done", file=sys.stderr)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for name, vals in values.items():
        spread = quartile_spread(vals) if statistics.median(vals) else float("nan")
        bound = bounds.get(name)
        print(
            f"{name:30s} median {statistics.median(vals):<14.6g} spread {spread:.4f}"
            + (f"  bound {bound}" if bound is not None else "")
            + "  [" + " ".join(f"{v:.4g}" for v in vals) + "]"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
