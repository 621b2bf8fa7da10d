"""Tests for the fabric / NIC transfer machinery."""

import pytest

from repro.net.fabric import Fabric
from repro.net.params import FDR_RDMA, LinkParams
from repro.obs.api import Observability
from repro.sim import Simulator
from repro.units import KB, MB, US


def make_pair(params=FDR_RDMA):
    sim = Simulator()
    fabric = Fabric(sim)
    a = fabric.node("a").nic(params)
    b = fabric.node("b").nic(params)
    return sim, a, b


def test_nodes_are_cached_by_name():
    sim = Simulator()
    fabric = Fabric(sim)
    assert fabric.node("x") is fabric.node("x")
    assert fabric.node("x") is not fabric.node("y")
    assert set(fabric.nodes) == {"x", "y"}


def test_nic_cached_per_transport():
    sim = Simulator()
    fabric = Fabric(sim)
    node = fabric.node("n")
    from repro.net.params import FDR_IPOIB

    assert node.nic(FDR_RDMA) is node.nic(FDR_RDMA)
    assert node.nic(FDR_RDMA) is not node.nic(FDR_IPOIB)


def test_transfer_time_matches_model():
    sim, a, b = make_pair()
    msg = a.transmit(b, 32 * KB)
    sim.run(until=msg.delivered)
    expected = (FDR_RDMA.cpu_send + FDR_RDMA.serialize_time(32 * KB)
                + FDR_RDMA.latency)
    assert sim.now == pytest.approx(expected, rel=1e-9)


def test_on_wire_precedes_delivery_by_latency():
    sim, a, b = make_pair()
    msg = a.transmit(b, 1 * MB)
    sim.run(until=msg.on_wire)
    t_wire = sim.now
    sim.run(until=msg.delivered)
    assert sim.now - t_wire == pytest.approx(FDR_RDMA.latency, rel=1e-9)


def test_tx_serializes_concurrent_messages():
    sim, a, b = make_pair()
    m1 = a.transmit(b, 1 * MB)
    m2 = a.transmit(b, 1 * MB)
    sim.run(until=m1.on_wire)
    t1 = sim.now
    sim.run(until=m2.on_wire)
    t2 = sim.now
    one = FDR_RDMA.cpu_send + FDR_RDMA.serialize_time(1 * MB)
    assert t1 == pytest.approx(one, rel=1e-9)
    assert t2 == pytest.approx(2 * one, rel=1e-9)


def test_different_nics_do_not_contend():
    sim = Simulator()
    fabric = Fabric(sim)
    a = fabric.node("a").nic(FDR_RDMA)
    b = fabric.node("b").nic(FDR_RDMA)
    c = fabric.node("c").nic(FDR_RDMA)
    m1 = a.transmit(c, 1 * MB)
    m2 = b.transmit(c, 1 * MB)
    sim.run()
    assert m1.delivered.value.nbytes == 1 * MB
    # Both finish at the same time: no shared resource between a and b.
    one = FDR_RDMA.cpu_send + FDR_RDMA.serialize_time(1 * MB) + FDR_RDMA.latency
    assert sim.now == pytest.approx(one, rel=1e-9)


def test_traffic_accounting():
    sim, a, b = make_pair()
    a.transmit(b, 10 * KB)
    a.transmit(b, 20 * KB)
    sim.run()
    assert a.bytes_sent == 30 * KB
    assert a.messages_sent == 2
    assert b.bytes_sent == 0


def test_zero_byte_message_costs_cpu_and_latency_only():
    sim, a, b = make_pair()
    msg = a.transmit(b, 0)
    sim.run(until=msg.delivered)
    assert sim.now == pytest.approx(FDR_RDMA.cpu_send + FDR_RDMA.latency, rel=1e-9)


def test_payload_rides_along():
    sim, a, b = make_pair()
    marker = {"op": "set"}
    msg = a.transmit(b, 128, payload=marker)
    sim.run()
    assert msg.payload is marker
    assert msg.delivered.value is msg


def test_unobserved_points_schedule_no_event():
    # Grant hop + serialization timeout + wire-latency timeout.
    sim, a, b = make_pair()
    msg = a.transmit(b, 4 * KB)
    sim.run()
    assert sim.events_processed == 3
    # Asked for after the fact: already processed, carrying the message.
    for ev in (msg.on_wire, msg.delivered):
        assert ev.processed and ev.value is msg
    # A subscriber that asks at send time gets its event scheduled.
    sim, a, b = make_pair()
    msg = a.transmit(b, 4 * KB)
    seen = []
    msg.on_wire.callbacks.append(lambda ev: seen.append(sim.now))
    sim.run()
    assert sim.events_processed == 4
    assert seen == [pytest.approx(FDR_RDMA.cpu_send
                                  + FDR_RDMA.serialize_time(4 * KB))]


def test_tx_backlog_gauge_counts_holder_and_queue():
    sim = Simulator()
    fabric = Fabric(sim, obs=Observability(sim))
    a = fabric.node("a").nic(FDR_RDMA)
    b = fabric.node("b").nic(FDR_RDMA)
    (gauge,) = fabric.obs.registry.gauges(
        lambda m: m.name == "nic_tx_backlog" and m.labels["node"] == "a")
    for _ in range(3):
        a.transmit(b, 64 * KB)
    assert gauge.value() == 3
    sim.run()
    assert gauge.value() == 0


class TestLinkParams:
    def test_serialize_time_zero_for_empty(self):
        assert FDR_RDMA.serialize_time(0) == 0.0

    def test_segmentation_overhead(self):
        p = LinkParams(name="t", latency=0, bandwidth=1e9, cpu_send=0,
                       cpu_recv=0, mtu=1024, per_segment_overhead=1 * US)
        # 2.5 KB -> 3 segments
        assert p.serialize_time(2560) == pytest.approx(2560 / 1e9 + 3 * US)

    def test_bandwidth_dominates_large_messages(self):
        t_small = FDR_RDMA.serialize_time(1 * KB)
        t_large = FDR_RDMA.serialize_time(1 * MB)
        assert t_large > 100 * t_small
