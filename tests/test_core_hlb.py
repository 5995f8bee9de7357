"""Unit tests for the hardware load balancer blocks."""

import pytest

from repro.core.hlb import (
    HLB_LATENCY_S,
    HardwareLoadBalancer,
    TrafficDirector,
    TrafficMerger,
    TrafficMonitor,
)
from repro.net.addressing import AddressPlan
from repro.net.packet import Packet
from repro.sim.engine import Simulator

PLAN = AddressPlan.default()


def packet(size=1500, mult=1):
    return Packet(src=PLAN.client, dst=PLAN.snic, size_bytes=size, multiplicity=mult)


class TestTrafficMonitor:
    def test_rate_computation(self):
        sim = Simulator()
        monitor = TrafficMonitor(sim, window_s=10e-6, ewma_alpha=1.0)
        # 12.5 kB in a 10 us window = 10 Gbps
        monitor.observe(packet(size=1250, mult=10))
        sim.run(until=10e-6)
        assert monitor.rate_gbps == pytest.approx(10.0)

    def test_counter_resets_each_window(self):
        sim = Simulator()
        monitor = TrafficMonitor(sim, window_s=10e-6, ewma_alpha=1.0)
        monitor.observe(packet(size=1250, mult=10))
        sim.run(until=25e-6)  # two empty-ish windows after the first
        assert monitor.rate_gbps == pytest.approx(0.0)
        assert monitor.total_bytes == 12_500

    def test_ewma_smoothing(self):
        sim = Simulator()
        monitor = TrafficMonitor(sim, window_s=10e-6, ewma_alpha=0.5)
        monitor.observe(packet(size=1250, mult=10))
        sim.run(until=10e-6)
        assert monitor.rate_gbps == pytest.approx(5.0)  # half-way toward 10

    def test_callback_invoked(self):
        sim = Simulator()
        rates = []
        monitor = TrafficMonitor(sim, window_s=10e-6, on_rate=rates.append)
        monitor.on_rate = rates.append
        sim.run(until=35e-6)
        assert len(rates) == 3

    def test_stop(self):
        sim = Simulator()
        monitor = TrafficMonitor(sim, window_s=10e-6)
        monitor.stop()
        sim.run(until=100e-6)
        assert monitor.rate_gbps == 0.0

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            TrafficMonitor(sim, window_s=0)
        with pytest.raises(ValueError):
            TrafficMonitor(sim, ewma_alpha=0.0)


class TestTrafficDirector:
    def test_below_threshold_passes_to_snic(self):
        sim = Simulator()
        director = TrafficDirector(sim, PLAN, fwd_threshold_gbps=10.0)
        p = director.direct(packet())
        assert p.dst == PLAN.snic
        assert director.stats.to_snic_packets == 1

    def test_excess_redirected_to_host_with_valid_checksum(self):
        sim = Simulator()
        director = TrafficDirector(sim, PLAN, fwd_threshold_gbps=0.001)
        director.direct(packet())  # eat initial tokens
        redirected = None
        for _ in range(50):
            p = director.direct(packet())
            if p.dst == PLAN.host:
                redirected = p
                break
        assert redirected is not None
        assert redirected.checksum_ok()
        assert director.stats.to_host_packets >= 1

    def test_split_ratio_tracks_threshold(self):
        sim = Simulator()
        director = TrafficDirector(sim, PLAN, fwd_threshold_gbps=5.0)
        # offer 10 Gbps: one 1500B packet every 1.2 us
        n = 5000
        for i in range(n):
            director.direct(packet())
            sim.schedule(1.2e-6, lambda: None)
            sim.run()
        assert director.stats.host_fraction == pytest.approx(0.5, abs=0.05)

    def test_zero_threshold_sends_everything_to_host_after_drain(self):
        sim = Simulator()
        director = TrafficDirector(sim, PLAN, fwd_threshold_gbps=0.0)
        # the bucket starts full at its one-burst floor (32 MTU packets);
        # with a zero threshold it never refills
        results = [director.direct(packet()).dst for _ in range(64)]
        assert results.count(PLAN.host) == 32
        assert all(dst == PLAN.host for dst in results[32:])

    def test_set_threshold_updates_register(self):
        sim = Simulator()
        director = TrafficDirector(sim, PLAN, fwd_threshold_gbps=10.0)
        director.set_threshold(20.0)
        assert director.fwd_threshold_gbps == 20.0
        with pytest.raises(ValueError):
            director.set_threshold(-1.0)

    def test_bucket_capacity_cache_follows_threshold(self):
        sim = Simulator()
        director = TrafficDirector(sim, PLAN, fwd_threshold_gbps=50.0)
        assert director._bucket_bits == director._bucket_capacity_bits()
        for gbps in (0.1, 30.0, 0.0):
            director.set_threshold(gbps)
            assert director._bucket_bits == director._bucket_capacity_bits()
            assert director._tokens_bits <= director._bucket_bits

    def test_bucket_refills_over_time(self):
        sim = Simulator()
        director = TrafficDirector(sim, PLAN, fwd_threshold_gbps=1.0, bucket_depth_s=50e-6)
        # drain the bucket
        while director.direct(packet()).dst == PLAN.snic:
            pass
        # wait for refill
        sim.schedule(50e-6, lambda: None)
        sim.run()
        assert director.direct(packet()).dst == PLAN.snic

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            TrafficDirector(sim, PLAN, fwd_threshold_gbps=-1.0)
        with pytest.raises(ValueError):
            TrafficDirector(sim, PLAN, 1.0, bucket_depth_s=0.0)


class TestTrafficMerger:
    def test_host_response_masqueraded_as_snic(self):
        merger = TrafficMerger(PLAN)
        response = Packet(src=PLAN.host, dst=PLAN.client)
        merged = merger.merge(response)
        assert merged.src == PLAN.snic
        assert merged.checksum_ok()
        assert merger.merged_packets == 1

    def test_snic_response_untouched(self):
        merger = TrafficMerger(PLAN)
        response = Packet(src=PLAN.snic, dst=PLAN.client)
        checksum = response.checksum
        merger.merge(response)
        assert response.src == PLAN.snic
        assert response.checksum == checksum
        assert merger.merged_packets == 0


class TestHardwareLoadBalancer:
    def test_ingress_charges_datapath_latency(self):
        sim = Simulator()
        hlb = HardwareLoadBalancer(sim, PLAN, initial_threshold_gbps=100.0)
        p = packet()
        hlb.ingress(p)
        assert p.created_at == pytest.approx(-HLB_LATENCY_S)

    def test_ingress_monitors_bytes(self):
        sim = Simulator()
        hlb = HardwareLoadBalancer(sim, PLAN, initial_threshold_gbps=100.0)
        hlb.ingress(packet(size=1000, mult=2))
        assert hlb.monitor.total_bytes == 2000

    def test_egress_merges(self):
        sim = Simulator()
        hlb = HardwareLoadBalancer(sim, PLAN, initial_threshold_gbps=100.0)
        response = Packet(src=PLAN.host, dst=PLAN.client)
        assert hlb.egress(response).src == PLAN.snic

    def test_end_to_end_invariant_client_never_sees_host(self):
        """Clients only ever see the SNIC identity (§V-A)."""
        sim = Simulator()
        hlb = HardwareLoadBalancer(sim, PLAN, initial_threshold_gbps=0.001)
        for _ in range(50):
            directed = hlb.ingress(packet())
            response = directed.make_response()
            out = hlb.egress(response)
            assert out.src == PLAN.snic
            assert out.checksum_ok()
