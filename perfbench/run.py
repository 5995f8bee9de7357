"""End-to-end, layer-attributed benchmark of the HAL simulator.

    python3 perfbench/run.py --workload trace_sweep --seed 2024 --seconds 60 --trace 0

Runs cold passes of one workload (see workloads.py), each in a fresh
interpreter with an empty result-cache directory, for as many passes as
end within ``--seconds``, and reports medians over the passes.  Every
operation's payload sha256 is checked against the pins in pins.json at
a pinned seed, and against the run's first pass at any other seed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
``wall_s`` (spawn to exit of one pass), ``setup_s`` (spawn to the first
call into the program) and ``peak_rss_mb`` (peak summed resident memory
of the pass and its worker processes).

``--trace 1`` reports the per-layer metrics instead.  It runs one
untraced pass at the workload's own parallelism, one cProfile pass, and
then pairs of untraced and traced passes at ``jobs=1``, so that every
span lands in one process.  All of them must reproduce the same shas.

``--workload all`` runs every workload at both trace settings.  The
last line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import median  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: scratch space for result caches and temporary files of the passes
WORK_DIR = ROOT / ".perfbench_work"
#: a run must end within this many seconds of starting
RUN_LIMIT_S = 170.0


def pass_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["TMPDIR"] = str(WORK_DIR)
    return env


def _group_members(pgid: int) -> List[Tuple[int, str]]:
    """(pid, state) of every process in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid:
            members.append((int(entry), fields[0]))
    return members


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024
    except (OSError, IndexError, ValueError):
        return 0


class GroupRssSampler(threading.Thread):
    """Peak of the summed resident memory of one process group, sampled
    every ``period_s``; group membership is re-read every ``rescan_s``."""

    def __init__(self, pgid: int, period_s: float = 0.1, rescan_s: float = 0.5) -> None:
        super().__init__(daemon=True)
        self.pgid = pgid
        self.period_s = period_s
        self.rescan_s = rescan_s
        self.peak_kb = 0
        self._stop_event = threading.Event()

    def run(self) -> None:
        pids = [self.pgid]
        rescanned = time.monotonic()
        while not self._stop_event.wait(self.period_s):
            if time.monotonic() - rescanned >= self.rescan_s:
                pids = [pid for pid, _ in _group_members(self.pgid)]
                rescanned = time.monotonic()
            self.peak_kb = max(self.peak_kb, sum(_rss_kb(pid) for pid in pids))

    def stop(self) -> None:
        self._stop_event.set()
        self.join()


def _reap_group(pgid: int, grace_s: float = 2.0) -> None:
    """Wait until no live process of the pass's group is left, killing
    stragglers after ``grace_s``."""
    deadline = time.monotonic() + grace_s
    killed = False
    while True:
        alive = [pid for pid, state in _group_members(pgid) if state not in ("Z", "X")]
        if not alive:
            return
        if not killed and time.monotonic() >= deadline:
            _kill_group(pgid)
            killed = True
        time.sleep(0.05)


def run_pass(
    workload: str,
    seed: int,
    mode: str,
    jobs: int,
    timeout_s: float,
    calibration_delay_s: float = 0.0,
) -> Dict[str, Any]:
    """Run one pass in a fresh interpreter; returns the pass's own report
    plus ``wall_s`` and ``peak_rss_mb``, or ``{"error": ...}``."""
    WORK_DIR.mkdir(exist_ok=True)
    cache_root = tempfile.mkdtemp(prefix="pass-", dir=WORK_DIR)
    stderr_path = os.path.join(cache_root, "stderr.txt")
    try:
        with open(stderr_path, "w") as stderr:
            spawned_at = time.monotonic()
            proc = subprocess.Popen(
                [
                    sys.executable,
                    str(HERE / "one_pass.py"),
                    "--workload", workload,
                    "--seed", str(seed),
                    "--mode", mode,
                    "--jobs", str(jobs),
                    "--spawned-at", repr(spawned_at),
                    "--work-dir", cache_root,
                    "--calibration-delay-s", repr(calibration_delay_s),
                ],
                cwd=ROOT,
                env=pass_env(),
                stdout=subprocess.PIPE,
                stderr=stderr,
                start_new_session=True,
            )
            sampler = GroupRssSampler(proc.pid)
            sampler.start()
            timer = threading.Timer(timeout_s, _kill_group, (proc.pid,))
            timer.start()
            try:
                assert proc.stdout is not None
                out = proc.stdout.read().decode()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                wall_s = time.monotonic() - spawned_at
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                sampler.stop()
                _reap_group(proc.pid)
        if proc.returncode != 0:
            with open(stderr_path) as fh:
                tail = fh.read().strip().splitlines()[-5:]
            return {"error": f"pass exited {proc.returncode}: " + " | ".join(tail)}
        try:
            result: Dict[str, Any] = json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return {"error": f"pass printed no result: {out[-200:]!r}"}
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
    result["wall_s"] = wall_s
    result["peak_rss_mb"] = max(sampler.peak_kb, usage.ru_maxrss) / 1024.0
    result["mode"], result["jobs"] = mode, jobs
    return result


class Budget:
    """The time of one run.  A pass is started only while the longest
    pass so far would still end within ``seconds``, so that a run lasts
    about ``seconds`` rather than up to a pass longer."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.started = time.monotonic()
        self.longest_s = 0.0

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def room_for_another(self) -> bool:
        return self.elapsed() + self.longest_s <= self.seconds

    def timeout(self) -> float:
        return max(5.0, RUN_LIMIT_S - self.elapsed())

    def timed(self, call: Any, *args: Any) -> Any:
        began = time.monotonic()
        try:
            return call(*args)
        finally:
            self.longest_s = max(self.longest_s, time.monotonic() - began)


class Tally:
    """Operations attempted and failed over a run's passes."""

    def __init__(self, workload: str, seed: int, pins: Dict[str, Any]) -> None:
        self.operations = WORKLOADS[workload].operations
        self.reference: Optional[Dict[str, str]] = pins.get(str(seed), {}).get(workload)
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def add(self, result: Dict[str, Any]) -> None:
        self.attempted += self.operations
        if "error" in result:
            self.failed += self.operations
            self.messages.append(result["error"])
            return
        shas, errors = result["shas"], result["errors"]
        if self.reference is None and not errors:
            self.reference = dict(shas)
        for label in result["labels"]:
            if label in errors:
                self.failed += 1
                self.messages.append(f"{label}: {errors[label]}")
            elif self.reference is not None and shas[label] != self.reference.get(label):
                self.failed += 1
                self.messages.append(
                    f"{label}: payload sha {shas[label]} differs from "
                    f"{self.reference.get(label)} ({result['mode']}, jobs={result['jobs']})"
                )


def end_to_end_run(
    workload: str, seed: int, seconds: float, tally: Tally, calibration_delay_s: float
) -> Dict[str, float]:
    jobs = WORKLOADS[workload].jobs
    budget = Budget(seconds)
    results: List[Dict[str, Any]] = []
    while not results or budget.room_for_another():
        result = budget.timed(
            run_pass, workload, seed, "plain", jobs, budget.timeout(), calibration_delay_s
        )
        tally.add(result)
        if "error" in result:
            break
        results.append(result)
    if not results:
        return {}
    return {
        "wall_s": median(r["wall_s"] for r in results),
        "setup_s": median(r["setup_s"] for r in results),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in results),
    }


def per_layer_run(workload: str, seed: int, seconds: float, tally: Tally) -> Dict[str, float]:
    budget = Budget(seconds)

    def one(mode: str, jobs: int) -> Optional[Dict[str, Any]]:
        result = budget.timed(run_pass, workload, seed, mode, jobs, budget.timeout())
        tally.add(result)
        return None if "error" in result else result

    if one("plain", WORKLOADS[workload].jobs) is None:
        return {}
    profiled = one("profiled", 1)
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    # plain and traced passes alternate, so that drift hits both alike
    while not (plain and traced) or budget.room_for_another():
        mode, into = ("traced", traced) if len(plain) > len(traced) else ("plain", plain)
        result = one(mode, 1)
        if result is None:
            return {}
        into.append(result)
    if profiled is None:
        return {}
    metrics = {
        name: median(r["layers"][name] for r in traced) for name in traced[0]["layers"]
    }
    metrics["trace.overhead_share"] = (
        median(r["pass_s"] for r in traced) / median(r["pass_s"] for r in plain) - 1.0
    )
    metrics["trace.unattributed_s"] = median(r["unattributed_s"] for r in traced)
    for package, share in profiled["profile"].items():
        metrics[f"profile.{package}.self_share"] = share
    return metrics


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    calibration_delay_s: float = 0.0,
) -> Tuple[Tally, Dict[str, float]]:
    tally = Tally(workload, seed, load_json(HERE / "pins.json"))
    if trace:
        metrics = per_layer_run(workload, seed, seconds, tally)
    else:
        metrics = end_to_end_run(workload, seed, seconds, tally, calibration_delay_s)
    return tally, metrics


def load_json(path: Path) -> Dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


def report(
    workload: str, trace: bool, tally: Tally, metrics: Dict[str, float], spec: Dict[str, Any]
) -> Dict[str, Dict[str, Any]]:
    """Print one line per metric; return the JSON ``metrics`` object."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    out: Dict[str, Dict[str, Any]] = {}
    print(f"# {workload}: {'per-layer' if trace else 'end-to-end'}, "
          f"{tally.attempted} operations, {tally.failed} failed")
    for message in tally.messages[:10]:
        print(f"#   FAILED {message}")
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        if name not in metrics:
            continue
        value = metrics[name]
        out[name] = {"value": value, "unit": unit}
        print(f"{workload:14s} {name:36s} {value:14.6g} {unit}")
    return out


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end, layer-attributed benchmark of the HAL simulator."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_json(ROOT / "BENCHMARK.json")
    seconds = args.seconds or spec["run_seconds"]

    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    correct, attempted, failed = True, 0, 0
    metrics: Dict[str, Dict[str, Any]] = {}
    for workload, trace in runs:
        tally, measured = run_workload(workload, args.seed, seconds, trace)
        printed = report(workload, trace, tally, measured, spec)
        declared = spec["per_layer"] if trace else spec["end_to_end"]
        correct = correct and tally.failed == 0 and len(printed) == len(declared)
        attempted += tally.attempted
        failed += tally.failed
        if args.workload == "all":
            printed = {f"{workload}.{name}": value for name, value in printed.items()}
        metrics.update(printed)
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
