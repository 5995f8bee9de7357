"""Unit tests for the traffic generators."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addressing import AddressPlan
from repro.net.traffic import (
    META_TRACES,
    ConstantRateGenerator,
    LogNormalSpec,
    LogNormalTraceGenerator,
    PoissonGenerator,
    TrafficSpec,
    fit_lognormal_scale,
    synthesize_rate_trace,
)
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

PLAN = AddressPlan.default()


def collect(generator, duration):
    sim = Simulator()
    packets = []
    generator.start(sim, packets.append, duration)
    sim.run(until=duration + 0.01)
    return packets


class TestConstantRate:
    def test_offered_rate_achieved(self):
        spec = TrafficSpec(packet_bytes=1500, batch=8)
        gen = ConstantRateGenerator(PLAN, spec, RngRegistry(1), rate_gbps=10.0)
        packets = collect(gen, 0.01)
        bits = sum(p.size_bytes * 8 * p.multiplicity for p in packets)
        assert bits / 0.01 / 1e9 == pytest.approx(10.0, rel=0.05)

    def test_packets_addressed_to_snic(self):
        gen = ConstantRateGenerator(PLAN, TrafficSpec(batch=2), RngRegistry(1), 5.0)
        packets = collect(gen, 0.005)
        assert packets
        assert all(p.src == PLAN.client and p.dst == PLAN.snic for p in packets)
        assert all(p.checksum_ok() for p in packets)

    def test_roundrobin_flows_cycle(self):
        spec = TrafficSpec(batch=1, flow_count=4, flow_mode="roundrobin")
        gen = ConstantRateGenerator(PLAN, spec, RngRegistry(1), 1.0)
        packets = collect(gen, 0.001)
        flows = [p.flow_id for p in packets[:8]]
        assert flows == [(i + 1) % 4 for i in range(1, 9)] or len(set(flows)) == 4

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            ConstantRateGenerator(PLAN, TrafficSpec(), RngRegistry(1), 0.0)

    def test_generation_stops_at_duration(self):
        gen = ConstantRateGenerator(PLAN, TrafficSpec(batch=4), RngRegistry(1), 10.0)
        sim = Simulator()
        packets = []
        gen.start(sim, packets.append, 0.005)
        sim.run(until=1.0)
        assert all(p.created_at <= 0.005 for p in packets)


class TestPoisson:
    def test_mean_rate(self):
        spec = TrafficSpec(packet_bytes=1500, batch=8)
        gen = PoissonGenerator(PLAN, spec, RngRegistry(7), rate_gbps=20.0)
        packets = collect(gen, 0.05)
        bits = sum(p.size_bytes * 8 * p.multiplicity for p in packets)
        assert bits / 0.05 / 1e9 == pytest.approx(20.0, rel=0.15)

    def test_interarrival_variability(self):
        gen = PoissonGenerator(PLAN, TrafficSpec(batch=1), RngRegistry(7), 1.0)
        packets = collect(gen, 0.01)
        gaps = [
            b.created_at - a.created_at for a, b in zip(packets, packets[1:])
        ]
        assert len(set(round(g, 9) for g in gaps)) > 1


class TestTrafficSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(packet_bytes=0),
            dict(batch=0),
            dict(flow_count=0),
            dict(flow_mode="bogus"),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrafficSpec(**kwargs)


class TestLogNormal:
    def test_fit_scale_hits_target(self):
        rng = RngRegistry(3)
        spec = META_TRACES["web"]
        scale = fit_lognormal_scale(spec, rng, samples=2000)
        stream = rng.stream("verify")
        draws = [
            min(scale * math.exp(spec.mu + spec.sigma * stream.gauss(0, 1)), 100.0)
            for _ in range(20_000)
        ]
        assert sum(draws) / len(draws) == pytest.approx(spec.average_gbps, rel=0.15)

    @pytest.mark.parametrize("name", sorted(META_TRACES))
    def test_stratified_schedule_mean_matches_average(self, name):
        gen = LogNormalTraceGenerator(
            PLAN, TrafficSpec(batch=8), RngRegistry(5), META_TRACES[name],
            interval_s=0.01,
        )
        rates = gen.plan_rates(1.0)
        mean = sum(rates) / len(rates)
        assert mean == pytest.approx(META_TRACES[name].average_gbps, rel=0.05)
        assert max(rates) <= 100.0
        assert min(rates) >= 0.0

    def test_trace_run_generates_near_average(self):
        gen = LogNormalTraceGenerator(
            PLAN, TrafficSpec(batch=8), RngRegistry(5), META_TRACES["web"],
            interval_s=0.01,
        )
        packets = collect(gen, 0.5)
        bits = sum(p.size_bytes * 8 * p.multiplicity for p in packets)
        assert bits / 0.5 / 1e9 == pytest.approx(1.6, rel=0.25)

    def test_rate_series_recorded(self):
        gen = LogNormalTraceGenerator(
            PLAN, TrafficSpec(batch=8), RngRegistry(5), META_TRACES["cache"],
            interval_s=0.01,
        )
        collect(gen, 0.2)
        assert len(gen.rate_series) == 20

    def test_iid_mode_draws_differ_from_stratified(self):
        gen = LogNormalTraceGenerator(
            PLAN, TrafficSpec(batch=8), RngRegistry(5), META_TRACES["cache"],
            interval_s=0.01, stratified=False,
        )
        rates = gen.plan_rates(0.2)
        assert len(rates) == 20

    def test_synthesize_rate_trace(self):
        series = synthesize_rate_trace(
            META_TRACES["hadoop"], 50.0, 0.1, RngRegistry(9)
        )
        assert len(series) == 500
        assert series.maximum <= 100.0

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            LogNormalTraceGenerator(
                PLAN, TrafficSpec(), RngRegistry(1), META_TRACES["web"], interval_s=0
            )


def reference_fit_lognormal_scale(spec, rng, line_rate_gbps=100.0, samples=4096):
    """The fit as first written: always 200 bisection steps, per-element
    ``min``. ``fit_lognormal_scale`` must match it bit for bit."""
    if not 0 < spec.average_gbps < line_rate_gbps:
        raise ValueError("target average must be within (0, line_rate)")
    stream = rng.stream(f"lognormal-fit-{spec.name}")
    draws = [math.exp(spec.mu + spec.sigma * stream.gauss(0.0, 1.0)) for _ in range(samples)]

    def clipped_mean(scale: float) -> float:
        return sum(min(scale * d, line_rate_gbps) for d in draws) / len(draws)

    lo, hi = 1e-12, 1e12
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if clipped_mean(mid) < spec.average_gbps:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def assert_fit_matches_reference(spec, seed, line_rate_gbps, samples):
    fast_rng, ref_rng = RngRegistry(seed), RngRegistry(seed)
    fast = fit_lognormal_scale(spec, fast_rng, line_rate_gbps, samples)
    ref = reference_fit_lognormal_scale(spec, ref_rng, line_rate_gbps, samples)
    assert fast.hex() == ref.hex()
    assert fast_rng.state_dict() == ref_rng.state_dict()


class TestFitIdentity:
    """The early-exit, list-clip fit is the 200-step fit, bit for bit."""

    @pytest.mark.parametrize("seed", [2024, 99])
    @pytest.mark.parametrize("name", sorted(META_TRACES))
    def test_meta_traces_at_pinned_seeds(self, name, seed):
        assert_fit_matches_reference(META_TRACES[name], seed, 100.0, 4096)

    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(sorted(META_TRACES)),
        # (0.2, 1.3] of the largest Meta average stays below both line rates
        weight=st.floats(0.2, 1.3, exclude_min=True),
        seed=st.integers(0, 2**32 - 1),
        line_rate_gbps=st.sampled_from([100.0, 40.0]),
        samples=st.integers(256, 4096),
    )
    def test_generated_inputs(self, name, weight, seed, line_rate_gbps, samples):
        base = META_TRACES[name]
        spec = LogNormalSpec(
            base.name, base.mu, base.sigma, base.average_gbps * weight
        )
        assert_fit_matches_reference(spec, seed, line_rate_gbps, samples)
