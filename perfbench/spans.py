"""Layer spans recorded from the benchmark's own files.

Nothing under ``src/`` knows about these spans: :func:`install` replaces
the public callables at each layer boundary with wrappers that time the
call on the host clock and count it.  Spans nest on one stack, so a
pass that records them must run in one process (``jobs=1``,
``shard_jobs=1``).  A layer's self time is its span time minus the time
of the spans recorded inside it; a call into a layer that is already
open is folded into the open span rather than counted twice.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


#: layer -> the callables it wraps, as (module, attribute) for functions
#: and (module, "Class.method") for methods
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "net.calibration": (("repro.net.traffic", "fit_lognormal_scale"),),
    "net.schedule": (
        ("repro.net.traffic", "LogNormalTraceGenerator.plan_rates"),
        ("repro.net.traffic", "stitch_diurnal_rates"),
    ),
    "core.build": (
        ("repro.exp.server", "build_system"),
        ("repro.flow.system", "build_flow_system"),
        ("repro.fabric.shard", "build_rack_shard"),
    ),
    "sim.run": (("repro.sim.engine", "Simulator.run"),),
    "flow.advance": (("repro.flow.station", "FlowStation.advance"),),
    "fabric.step": (("repro.runner.sharded", "ShardedRunner.step"),),
    "fabric.control": (
        ("repro.fabric.control", "FleetBalancer.split"),
        ("repro.fabric.control", "FleetBalancer.observe"),
    ),
    "runner.job": (("repro.runner.executor", "execute_job"),),
    "runner.cache": (
        ("repro.runner.cache", "ResultCache.get"),
        ("repro.runner.cache", "ResultCache.peek"),
        ("repro.runner.cache", "ResultCache.put"),
    ),
    "runner.serialise": (
        ("repro.sim.metrics", "RunMetrics.to_dict"),
        ("repro.fabric.system", "FabricResult.to_dict"),
    ),
}

#: layers that also report the median and 90th percentile of one call
PERCENTILE_LAYERS = ("fabric.step", "runner.job")

#: modules that bind a wrapped function by name at import time; they are
#: imported before patching so every binding is replaced
_BINDING_MODULES = (
    "repro.exp",
    "repro.runner",
    "repro.fabric",
    "repro.flow.source",
    "repro.cluster",
)


class _Span:
    """The one reusable context manager of a layer.  Entering a layer
    that is already open only deepens it, which folds the inner call
    into the open span."""

    __slots__ = ("recorder", "name", "depth", "started", "child_s")

    def __init__(self, recorder: "Recorder", name: str) -> None:
        self.recorder = recorder
        self.name = name
        self.depth = 0
        self.started = 0.0
        self.child_s = 0.0

    def __enter__(self) -> None:
        self.depth += 1
        if self.depth == 1:
            self.child_s = 0.0
            self.recorder._stack.append(self)
            self.started = time.perf_counter()

    def __exit__(self, *exc: Any) -> None:
        self.depth -= 1
        if self.depth:
            return
        elapsed = time.perf_counter() - self.started
        recorder, name = self.recorder, self.name
        stack = recorder._stack
        stack.pop()
        recorder.total_s[name] += elapsed
        recorder.self_s[name] += elapsed - self.child_s
        recorder.calls[name] += 1
        if name in PERCENTILE_LAYERS:
            recorder.durations[name].append(elapsed)
        if stack:
            stack[-1].child_s += elapsed
        else:
            recorder.top_level_s += elapsed


class Recorder:
    """Per-layer host time and counts for one pass."""

    def __init__(self) -> None:
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        #: host time covered by spans with no enclosing span
        self.top_level_s = 0.0
        self.sim_events = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.calibration_keys: List[Tuple[Any, ...]] = []
        #: open spans, innermost last
        self._stack: List[_Span] = []
        self._spans: Dict[str, _Span] = {}

    def span(self, name: str) -> _Span:
        span = self._spans.get(name)
        if span is None:
            span = self._spans[name] = _Span(self, name)
        return span

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.total_s"] = self.total_s[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = float(self.calls[layer])
        for layer in PERCENTILE_LAYERS:
            durations = self.durations[layer]
            p50 = p90 = durations[0] if durations else 0.0
            if len(durations) > 1:
                p50 = statistics.median(durations)
                p90 = statistics.quantiles(durations, n=10, method="inclusive")[-1]
            out[f"{layer}.p50_s"], out[f"{layer}.p90_s"] = p50, p90
        calls = len(self.calibration_keys)
        distinct = len(set(self.calibration_keys))
        out["net.calibration.distinct_inputs"] = float(distinct)
        out["net.calibration.repeat_share"] = 1.0 - distinct / calls if calls else 0.0
        out["runner.cache.hits"] = float(self.cache_hits)
        out["runner.cache.misses"] = float(self.cache_misses)
        out["sim.events"] = float(self.sim_events)
        sim_s = self.total_s["sim.run"]
        out["sim.ns_per_event"] = sim_s / self.sim_events * 1e9 if self.sim_events else 0.0
        return out


def calibration_key(
    signature: inspect.Signature, args: Tuple[Any, ...], kwargs: Dict[str, Any]
) -> Tuple[Any, ...]:
    """Everything ``fit_lognormal_scale`` reads: the spec's name, μ, σ and
    average, the registry's root seed, the line rate, the sample count,
    and, when the fit's stream was already drawn from, that stream's
    state."""
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    spec, rng = bound.arguments["spec"], bound.arguments["rng"]
    stream = getattr(rng, "_streams", {}).get(f"lognormal-fit-{spec.name}")
    state = None
    if stream is not None:
        state = hashlib.sha256(repr(stream.getstate()).encode()).hexdigest()
    return (
        spec.name,
        spec.mu,
        spec.sigma,
        spec.average_gbps,
        rng.root_seed,
        bound.arguments["line_rate_gbps"],
        bound.arguments["samples"],
        state,
    )


def _wrap(
    recorder: Recorder, layer: str, attr: str, original: Callable[..., Any]
) -> Callable[..., Any]:
    span = recorder.span(layer)
    if layer == "sim.run":

        def wrapper(sim: Any, *args: Any, **kwargs: Any) -> Any:
            before = sim.events_processed
            with span:
                result = original(sim, *args, **kwargs)
            recorder.sim_events += sim.events_processed - before
            return result

    elif attr == "ResultCache.get":

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with span:
                payload = original(*args, **kwargs)
            if payload is None:
                recorder.cache_misses += 1
            else:
                recorder.cache_hits += 1
            return payload

    else:

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with span:
                return original(*args, **kwargs)

    wrapper.__wrapped__ = original  # type: ignore[attr-defined]
    return wrapper


def _calibration_wrapper(
    recorder: Optional[Recorder], original: Callable[..., Any], delay_s: float
) -> Callable[..., Any]:
    signature = inspect.signature(original)

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if delay_s:
            # an injected slowdown for the benchmark's sensitivity test
            time.sleep(delay_s)
        if recorder is None:
            return original(*args, **kwargs)
        recorder.calibration_keys.append(calibration_key(signature, args, kwargs))
        with recorder.span("net.calibration"):
            return original(*args, **kwargs)

    return wrapper


def _replace_function(module_name: str, attr: str, make: Callable[[Any], Any]) -> None:
    """Replace a module-level function in every loaded ``repro`` module
    that binds it, so callers that imported it by name see the wrapper."""
    original = getattr(importlib.import_module(module_name), attr)
    wrapper = make(original)
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def _replace_method(module_name: str, path: str, make: Callable[[Any], Any]) -> None:
    class_name, method = path.split(".")
    owner = getattr(importlib.import_module(module_name), class_name)
    setattr(owner, method, make(vars(owner)[method]))


def install(recorder: Optional[Recorder], calibration_delay_s: float = 0.0) -> None:
    """Wrap every layer into ``recorder``; with no recorder, wrap only
    ``net.calibration``, and only to add ``calibration_delay_s``."""
    for module in _BINDING_MODULES:
        importlib.import_module(module)
    _replace_function(
        "repro.net.traffic",
        "fit_lognormal_scale",
        lambda original: _calibration_wrapper(recorder, original, calibration_delay_s),
    )
    if recorder is None:
        return
    for layer, targets in LAYERS.items():
        if layer == "net.calibration":
            continue
        for module_name, attr in targets:
            make = lambda original, layer=layer, attr=attr: _wrap(
                recorder, layer, attr, original
            )
            if "." in attr:
                _replace_method(module_name, attr, make)
            else:
                _replace_function(module_name, attr, make)
