"""Steadiness check: run one workload at several seeds and report, for
each end-to-end metric, its median and its quartile spread as a share of
the median, next to the metric's bound.

    python3 perfbench/steady.py --workload trace_sweep --runs 10

A benchmark is steady when every spread except ``setup_s``'s stays below
a third of its bound.  Each run is one ``run.py`` invocation, so this
takes ``runs`` times ``--seconds`` plus set-up.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import median, quartile_spread  # noqa: E402


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    values: Dict[str, List[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            check=True, capture_output=True, text=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect result {result}", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + "  ".join(
            f"{name}={result['metrics'][name]['value']:.4f}" for name in values
        ), flush=True)
    for metric in spec["end_to_end"]:
        name = metric["name"]
        spread = quartile_spread(values[name])
        print(
            f"{args.workload:14s} {name:14s} median {median(values[name]):10.4f} "
            f"spread {spread:7.4f}  bound {metric['bound']:.2f}"
            f"{'  ABOVE a third of the bound' if spread > metric['bound'] / 3 else ''}"
        )
    print(json.dumps({"workload": args.workload, "values": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
