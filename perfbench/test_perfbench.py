"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The fast tests check the span arithmetic, the package attribution and
the verdict rules.  The slow ones run real passes: the layer-to-workload
map the benchmark documents, the pinned payload shas, and the
sensitivity test, which injects a delay into the benchmark's own
``net.calibration`` wrapper (never into ``src/``) sized to 30% of
``trace_sweep``'s wall and checks that the verdict flags ``trace_sweep``
and leaves ``packet_sweep`` alone.  The whole file takes about eight
minutes on a 2-core box.
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pkgprofile  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def work_dir():
    yield run.WORK_DIR
    shutil.rmtree(run.WORK_DIR, ignore_errors=True)


# -- fast ------------------------------------------------------------------


def test_self_time_excludes_child_spans_and_folds_reentry():
    recorder = spans.Recorder()
    with recorder.span("runner.job"):
        time.sleep(0.02)
        with recorder.span("sim.run"):
            time.sleep(0.03)
            with recorder.span("sim.run"):  # folded into the open span
                time.sleep(0.01)
    metrics = recorder.metrics()
    assert metrics["sim.run.calls"] == 1
    assert metrics["sim.run.total_s"] >= 0.04
    assert metrics["runner.job.self_s"] == pytest.approx(
        metrics["runner.job.total_s"] - metrics["sim.run.total_s"]
    )
    assert recorder.top_level_s == pytest.approx(metrics["runner.job.total_s"])


def test_calibration_key_separates_inputs_and_detects_repeats():
    from repro.net.traffic import META_TRACES, fit_lognormal_scale
    from repro.sim.rng import RngRegistry

    signature = inspect.signature(fit_lognormal_scale)
    web, cache = META_TRACES["web"], META_TRACES["cache"]
    keys = [
        spans.calibration_key(signature, (web, RngRegistry(1)), {}),
        spans.calibration_key(signature, (web, RngRegistry(1)), {"samples": 4096}),
        spans.calibration_key(signature, (web, RngRegistry(2)), {}),
        spans.calibration_key(signature, (cache, RngRegistry(1)), {}),
    ]
    assert keys[0] == keys[1]
    assert len(set(keys)) == 3
    drawn = RngRegistry(1)
    drawn.stream("lognormal-fit-web").random()
    assert spans.calibration_key(signature, (web, drawn), {}) != keys[0]


def test_package_attribution():
    assert pkgprofile.package_of(("/x/src/repro/sim/engine.py", 1, "run")) == "sim"
    assert pkgprofile.package_of(("/x/src/repro/bench.py", 1, "f")) == "other"
    assert pkgprofile.package_of(("/x/src/repro/lint/rules.py", 1, "f")) == "other"
    assert pkgprofile.package_of(("~", 0, "<built-in method math.exp>")) is None


def test_stdlib_time_is_charged_up_the_call_chain():
    fit = ("/x/src/repro/net/traffic.py", 1, "fit_lognormal_scale")
    push = ("/x/src/repro/sim/engine.py", 1, "schedule")
    gauss = ("/lib/random.py", 1, "gauss")
    draw = ("~", 0, "<method 'random' of '_random.Random' objects>")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    # func -> (cc, nc, tottime, cumtime, {caller: (cc, nc, tottime, cumtime)})
    table = {
        fit: (1, 1, 1.0, 4.0, {}),
        push: (1, 1, 1.0, 2.0, {}),
        gauss: (1, 1, 1.0, 3.0, {fit: (1, 1, 1.0, 3.0)}),
        draw: (1, 1, 2.0, 2.0, {gauss: (1, 1, 2.0, 2.0)}),
        heappush: (1, 1, 1.0, 1.0, {push: (1, 1, 1.0, 1.0)}),
    }
    shares = pkgprofile.self_shares(SimpleNamespace(stats=table))
    assert shares["net"] == pytest.approx(4 / 6)
    assert shares["sim"] == pytest.approx(2 / 6)
    assert shares["other"] == 0.0


def test_verdict_uses_medians_and_bounds():
    metrics = [{"name": "wall_s", "better": "lower", "bound": 0.15}]
    base = {"wall_s": [1.0, 1.02, 0.98]}
    assert stats.regressions(base, {"wall_s": [1.1, 1.12, 3.0]}, metrics) == {}
    flagged = stats.regressions(base, {"wall_s": [1.3, 1.2, 1.25]}, metrics)
    assert flagged["wall_s"] == pytest.approx(0.25)
    assert stats.quartile_spread([1.0] * 4) == 0.0


def test_run_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trace_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- slow: real passes -----------------------------------------------------


def traced(workload):
    return run.run_pass(workload, DEFAULT_SEED, "traced", 1, run.RUN_LIMIT_S)


def test_layer_map_at_the_default_seed(work_dir):
    results = {name: traced(name) for name in WORKLOADS}
    for name, result in results.items():
        assert "error" not in result and not result["errors"], result
        assert result["unattributed_s"] < 0.1 * result["pass_s"], name
    packet = results["packet_sweep"]["layers"]
    assert packet["net.calibration.calls"] == 0
    assert packet["flow.advance.calls"] == 0
    trace = results["trace_sweep"]["layers"]
    # 21 fits of the sweep cells with 6 distinct inputs, then the
    # fabric's 3 fits, which repeat neither each other nor the sweep's
    assert trace["net.calibration.calls"] == 24
    assert trace["net.calibration.distinct_inputs"] == 9
    assert trace["net.calibration.repeat_share"] > 0.5
    assert trace["flow.advance.calls"] > 0
    assert trace["fabric.step.calls"] > 0


def test_pins_hold_at_both_pinned_seeds_and_any_parallelism(work_dir):
    import pin

    pins = json.loads(pin.PINS.read_text())
    assert sorted(pins) == sorted(str(seed) for seed in pin.PINNED_SEEDS)
    assert pin.measure() == pins
    # traced passes run at jobs=1 / shard_jobs=1 and must reproduce them
    trace = traced("trace_sweep")
    assert trace["shas"] == pins[str(DEFAULT_SEED)]["trace_sweep"]


def test_sensitivity_to_a_30_percent_calibration_slowdown(work_dir):
    seconds, pairs = 20.0, 5
    wall_s = [m for m in SPEC["end_to_end"] if m["name"] == "wall_s"]

    def wall(workload, delay_s=0.0):
        tally, metrics = run.run_workload(workload, DEFAULT_SEED, seconds, False, delay_s)
        assert tally.failed == 0, tally.messages
        return metrics["wall_s"]

    def verdict(workload, delay_s, base):
        """Alternate slowed and plain runs, as the host drifts; return
        the metrics flagged as worse beyond their bound."""
        slow = []
        while len(slow) < pairs:
            slow.append(wall(workload, delay_s))
            if len(base) < pairs:
                base.append(wall(workload))
        flagged = stats.regressions({"wall_s": base}, {"wall_s": slow}, wall_s)
        print(f"{workload}: plain {base}, slowed {slow}, flagged {flagged}")
        return flagged

    trace_base = [wall("trace_sweep")]
    calls = traced("trace_sweep")["layers"]["net.calibration.calls"]
    # the sweep cells' fits split evenly over the runner's worker
    # processes; the fabric's 3 run one after another before epoch 0
    fabric_fits = 3
    in_series = (calls - fabric_fits) / WORKLOADS["trace_sweep"].jobs + fabric_fits
    delay_s = 0.30 * trace_base[0] / in_series

    assert "wall_s" in verdict("trace_sweep", delay_s, trace_base)
    assert verdict("packet_sweep", delay_s, []) == {}
