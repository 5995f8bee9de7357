"""The benchmark's two fixed workloads.

Each workload is a closed batch: one pass runs its whole grid through
the program's public entry points (``repro.runner.Runner`` for the
sweeps, then ``repro.fabric.run_fabric`` for the fabric that ends
``trace_sweep``) and returns one payload per operation.  An operation is
one runner job; the fabric run is one operation.  Simulated durations
are inputs: the sweeps run at the CLI's default ``--duration`` of
0.25 s, and the fabric at ``FabricConfig``'s default of 2 s, so that the
share of host time each layer takes is the share it takes in the runs
people make.

This module imports nothing from ``repro`` at import time, so the pass
process can time its own imports as part of set-up.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

#: the seed the pinned payload shas and NOTES.md figures refer to
DEFAULT_SEED = 2024

#: label -> payload of every operation that returned one, and
#: label -> error text of every operation that raised
Outcome = Tuple[Dict[str, Dict[str, Any]], Dict[str, str]]


class Batch:
    """A prepared workload pass.  ``run(jobs)`` is the first call into
    the program."""

    labels: List[str]

    def run(self, jobs: int) -> Outcome:
        raise NotImplementedError


@dataclass(frozen=True)
class Workload:
    name: str
    #: runner jobs and fabric shard workers of an untraced pass; traced
    #: and profiled passes run at 1 so all spans land in one process
    jobs: int
    operations: int
    #: (seed, work dir) -> a prepared batch; building it is part of set-up
    prepare: Callable[[int, str], Batch]


class SpecBatch(Batch):
    """Runner jobs executed by one ``Runner``, with a fresh result cache
    in a directory that is removed after the pass, or with none."""

    def __init__(self, specs: List[Any], work_dir: str, use_cache: bool) -> None:
        self.specs = specs
        self.labels = [spec.label() for spec in specs]
        self.work_dir = work_dir
        self.use_cache = use_cache

    def run(self, jobs: int) -> Outcome:
        from repro.runner import ResultCache, Runner

        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.work_dir)
        try:
            cache = ResultCache(cache_dir) if self.use_cache else None
            report = Runner(jobs=jobs, cache=cache, retries=0).run(
                self.specs, strict=False
            )
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        payloads: Dict[str, Dict[str, Any]] = {}
        errors: Dict[str, str] = {}
        for label, outcome in zip(self.labels, report.outcomes):
            if outcome.ok:
                payloads[label] = outcome.payload
            else:
                errors[label] = (outcome.error or "failed").strip().splitlines()[-1]
        return payloads, errors


# -- packet_sweep ----------------------------------------------------------

#: the CLI's default ``--duration``
CLI_DURATION_S = 0.25

PACKET_KINDS = ("hal", "slb", "host")
#: ``rem`` is left to ``trace_sweep`` (``count+rem``), so that one pass of
#: this grid stays near 7 s at the CLI's duration
PACKET_FUNCTIONS = ("nat", "kvs")
#: offered load as a multiple of the function's SNIC capacity: one rate
#: the SNIC absorbs alone, one that forces forwarding to the host
PACKET_LOADS = (0.5, 1.5)


def prepare_packet_sweep(seed: int, work_dir: str) -> Batch:
    from repro.exp.server import RunConfig
    from repro.hw.profiles import get_profile
    from repro.runner import JobSpec

    config = RunConfig(duration_s=CLI_DURATION_S, seed=seed)
    specs = [
        JobSpec.at_rate(
            kind, function, load * get_profile(function).snic.capacity_gbps, config
        )
        for kind in PACKET_KINDS
        for function in PACKET_FUNCTIONS
        for load in PACKET_LOADS
    ]
    # the default `repro figN` path: in-process, no result cache
    return SpecBatch(specs, work_dir, use_cache=False)


# -- trace_sweep -----------------------------------------------------------

TRACE_TRACES = ("web", "cache", "hadoop")
TRACE_FUNCTIONS = ("nat", "count+rem")
TRACE_SYSTEMS = ("snic", "host", "hal")
RACK_SERVERS = 4


def prepare_trace_cells(seed: int, work_dir: str) -> Batch:
    from repro.exp.server import RunConfig
    from repro.runner import JobSpec

    config = RunConfig(duration_s=CLI_DURATION_S, seed=seed)
    specs = [
        JobSpec.for_trace(kind, function, trace, config)
        for trace in TRACE_TRACES
        for function in TRACE_FUNCTIONS
        for kind in TRACE_SYSTEMS
    ]
    specs += [
        JobSpec.rack(
            "hal", "nat", trace, config, servers=RACK_SERVERS, policy="packing"
        )
        for trace in TRACE_TRACES
    ]
    return SpecBatch(specs, work_dir, use_cache=True)


FABRIC_DURATION_S = 2.0
FABRIC_LABEL = "fabric:hal/nat@mix racks=4 servers=2"


class FabricBatch(Batch):
    def __init__(self, config: Any) -> None:
        self.config = config
        self.labels = [FABRIC_LABEL]

    def run(self, jobs: int) -> Outcome:
        from repro.fabric import run_fabric

        try:
            result = run_fabric(self.config, shard_jobs=jobs)
        except Exception as error:  # a raising run is a failed operation
            return {}, {FABRIC_LABEL: f"{type(error).__name__}: {error}"}
        return {FABRIC_LABEL: result.to_dict()}, {}


def prepare_fabric(seed: int) -> Batch:
    from repro.fabric import FabricConfig

    return FabricBatch(
        FabricConfig(
            racks=4, servers=2, mix="mix", duration_s=FABRIC_DURATION_S, seed=seed
        )
    )


class ChainBatch(Batch):
    """Batches run one after the other at the same parallelism."""

    def __init__(self, batches: List[Batch]) -> None:
        self.batches = batches
        self.labels = [label for batch in batches for label in batch.labels]

    def run(self, jobs: int) -> Outcome:
        payloads: Dict[str, Dict[str, Any]] = {}
        errors: Dict[str, str] = {}
        for batch in self.batches:
            done, failed = batch.run(jobs)
            payloads.update(done)
            errors.update(failed)
        return payloads, errors


def prepare_trace_sweep(seed: int, work_dir: str) -> Batch:
    """The Table V subset and rack cells at ``Runner(jobs)``, then the
    fabric at ``shard_jobs=jobs``."""
    return ChainBatch([prepare_trace_cells(seed, work_dir), prepare_fabric(seed)])


TRACE_CELLS = len(TRACE_TRACES) * (len(TRACE_FUNCTIONS) * len(TRACE_SYSTEMS) + 1)

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "packet_sweep",
            jobs=1,
            operations=len(PACKET_KINDS) * len(PACKET_FUNCTIONS) * len(PACKET_LOADS),
            prepare=prepare_packet_sweep,
        ),
        Workload(
            "trace_sweep",
            jobs=2,
            operations=TRACE_CELLS + 1,
            prepare=prepare_trace_sweep,
        ),
    )
}
