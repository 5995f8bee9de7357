"""Record the payload sha256 of every operation at the pinned seeds.

    python3 perfbench/pin.py    # rewrite perfbench/pins.json

The pins are the benchmark's correctness reference: a run at a pinned
seed fails every operation whose payload differs from its pin, so
``run.py --seed 2024`` and ``run.py --seed 99`` are the check.  Rewrite
the pins only in a change that says which results moved and why.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: the default seed, and one seed not used while the benchmark was written
PINNED_SEEDS = (DEFAULT_SEED, 99)
PINS = HERE / "pins.json"


def measure() -> Dict[str, Dict[str, Dict[str, str]]]:
    pins: Dict[str, Dict[str, Dict[str, str]]] = {}
    try:
        for seed in PINNED_SEEDS:
            for name, workload in WORKLOADS.items():
                result = run.run_pass(name, seed, "plain", workload.jobs, run.RUN_LIMIT_S)
                if "error" in result or result["errors"]:
                    raise SystemExit(f"{name} at seed {seed} failed: {result}")
                pins.setdefault(str(seed), {})[name] = result["shas"]
    finally:
        shutil.rmtree(run.WORK_DIR, ignore_errors=True)
    return pins


def main(argv: List[str]) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    pins = measure()
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
