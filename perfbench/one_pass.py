"""One cold pass of one workload, in a fresh interpreter.

``run.py`` starts this script once per pass and reads the JSON object it
prints.  Set-up is the time from the parent's spawn call, through the
imports and spec construction here, to the first call into the program;
the pass itself runs from that call until every payload is hashed.

    python3 perfbench/one_pass.py --workload trace_sweep --seed 2024 \
        --mode plain --jobs 2 --spawned-at <time.monotonic() of the parent>

Modes: ``plain`` records nothing; ``traced`` wraps every layer (see
spans.py); ``profiled`` runs under cProfile (see pkgprofile.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from typing import Any, Dict, List

import spans
import workloads


def payload_sha256(payload: Dict[str, Any]) -> str:
    """sha256 of the payload's canonical JSON, as ``repro bench`` hashes it."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _metrics_problems(data: Dict[str, Any], where: str) -> List[str]:
    from repro.sim.metrics import RunMetrics

    metrics = RunMetrics.from_dict(data)
    numbers = [
        metrics.offered_gbps,
        metrics.average_power_w,
        metrics.snic_share,
        *metrics.power_breakdown.values(),
        *metrics.extras.values(),
    ]
    problems = []
    if not all(math.isfinite(value) for value in numbers):
        problems.append(f"{where}: non-finite metric")
    if metrics.delivered_packets <= 0 or metrics.average_power_w <= 0:
        problems.append(f"{where}: nothing delivered or no power drawn")
    # flow mode counts fluid packets and rounds each counter on its own,
    # so conservation holds to a few packets in a million
    slack = 2 + metrics.generated_packets * 1e-6
    accounted = metrics.delivered_packets + metrics.dropped_packets
    if accounted > metrics.generated_packets + slack:
        problems.append(f"{where}: more packets delivered and dropped than generated")
    return problems


def payload_problems(payload: Dict[str, Any]) -> List[str]:
    """Invariants any correct payload meets, whatever its seed."""
    if payload.get("kind") == "fabric":
        problems = _metrics_problems(payload["fleet"], "fleet")
        for index, rack in enumerate(payload["racks"]):
            problems += _metrics_problems(rack, f"rack {index}")
        delivered = sum(rack["delivered_packets"] for rack in payload["racks"])
        if delivered != payload["fleet"]["delivered_packets"]:
            problems.append("fleet delivered packets differ from the racks' sum")
        return problems
    return _metrics_problems(payload["data"], "run")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "profiled"), default="plain")
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--calibration-delay-s", type=float, default=0.0)
    args = parser.parse_args(argv)

    batch = workloads.WORKLOADS[args.workload].prepare(args.seed, args.work_dir)
    recorder = spans.Recorder() if args.mode == "traced" else None
    if recorder is not None or args.calibration_delay_s:
        spans.install(recorder, args.calibration_delay_s)
    profiler = None
    if args.mode == "profiled":
        import cProfile

        profiler = cProfile.Profile()

    first_call = time.monotonic()
    if profiler is not None:
        profiler.enable()
    payloads, errors = batch.run(args.jobs)
    if profiler is not None:
        profiler.disable()
    shas: Dict[str, str] = {}
    for label, payload in payloads.items():
        if recorder is not None:
            with recorder.span("runner.serialise"):
                shas[label] = payload_sha256(payload)
        else:
            shas[label] = payload_sha256(payload)
    pass_s = time.monotonic() - first_call

    for label, payload in payloads.items():
        problems = payload_problems(payload)
        if problems:
            errors[label] = "; ".join(problems)
            del shas[label]
    result: Dict[str, Any] = {
        "setup_s": first_call - args.spawned_at,
        "pass_s": pass_s,
        "labels": batch.labels,
        "shas": shas,
        "errors": errors,
    }
    if recorder is not None:
        result["layers"] = recorder.metrics()
        result["unattributed_s"] = pass_s - recorder.top_level_s
    if profiler is not None:
        import pstats

        import pkgprofile

        result["profile"] = pkgprofile.self_shares(pstats.Stats(profiler))
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
