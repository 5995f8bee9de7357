"""Flow-mode traffic sources: rate schedules instead of packet events.

Packet mode expands a rate schedule into per-train simulator events;
flow mode stops at the schedule itself — one rate per control interval,
turned into :class:`~repro.flow.batch.FlowBatch` arrivals by the flow
system's tick.  Trace sources delegate the schedule to the *same*
:class:`~repro.net.traffic.LogNormalTraceGenerator` (same RNG streams,
same stratified-quantile plan), so a flow run and a packet run of the
same spec see byte-identical offered-rate schedules; only the expansion
granularity differs.
"""

from __future__ import annotations

import math
from typing import List, Union

from repro.net.addressing import AddressPlan
from repro.net.traffic import (
    META_TRACES,
    LogNormalSpec,
    LogNormalTraceGenerator,
    TrafficSpec,
)
from repro.sim.rng import RngRegistry


class ConstantRateSource:
    """Constant offered rate (the Fig. 2/4/5/9 workhorse)."""

    def __init__(self, rate_gbps: float) -> None:
        if rate_gbps < 0:
            raise ValueError(f"rate cannot be negative ({rate_gbps})")
        self.offered_gbps = rate_gbps

    def rates(self, duration_s: float, interval_s: float) -> List[float]:
        n = max(1, math.ceil(duration_s / interval_s))
        return [self.offered_gbps] * n


class TraceRateSource:
    """Log-normal datacenter-trace schedule, resampled onto the flow grid.

    The trace plan is drawn at the generator's native ``interval_s``
    granularity (so the schedule is identical to packet mode's), then
    held piecewise-constant across the finer flow intervals.
    """

    def __init__(
        self,
        trace: Union[str, LogNormalSpec],
        rng: RngRegistry,
        plan: AddressPlan,
        spec: TrafficSpec,
        trace_interval_s: float,
        line_rate_gbps: float = 100.0,
    ) -> None:
        if isinstance(trace, str):
            if trace not in META_TRACES:
                raise ValueError(
                    f"unknown trace {trace!r}; known: {sorted(META_TRACES)}"
                )
            trace = META_TRACES[trace]
        self._generator = LogNormalTraceGenerator(
            plan,
            spec,
            rng,
            trace,
            interval_s=trace_interval_s,
            line_rate_gbps=line_rate_gbps,
        )
        self.trace_interval_s = trace_interval_s
        self.offered_gbps = self._generator.offered_gbps

    def rates(self, duration_s: float, interval_s: float) -> List[float]:
        plan = self._generator.plan_rates(duration_s)
        n = max(1, math.ceil(duration_s / interval_s))
        rates: List[float] = []
        for i in range(n):
            midpoint = (i + 0.5) * interval_s
            index = min(len(plan) - 1, int(midpoint / self.trace_interval_s))
            rates.append(plan[index])
        return rates
