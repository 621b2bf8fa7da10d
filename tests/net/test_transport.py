"""Tests for the uniform Endpoint API over RDMA and IPoIB."""

import pytest

from repro.net.fabric import Fabric
from repro.net.params import FDR_IPOIB, FDR_RDMA
from repro.net.transport import connect_ipoib, connect_rdma
from repro.sim import Simulator
from repro.units import KB, MB


@pytest.fixture()
def sim_fabric():
    sim = Simulator()
    return sim, Fabric(sim)


def test_rdma_endpoint_roundtrip(sim_fabric):
    sim, fabric = sim_fabric
    cli, srv = connect_rdma(sim, fabric.node("c"), fabric.node("s"))
    got = []

    def server(sim):
        d = yield srv.recv()
        got.append(d)

    msg = cli.send({"op": "get"}, 128)
    sim.spawn(server(sim))
    sim.run()
    assert got[0] is msg  # the message itself is the delivery
    assert got[0].payload == {"op": "get"}
    assert got[0].nbytes == 128
    assert not got[0].one_sided
    assert got[0].recv_cpu == FDR_RDMA.cpu_recv


def test_rdma_one_sided_has_zero_recv_cpu(sim_fabric):
    sim, fabric = sim_fabric
    cli, srv = connect_rdma(sim, fabric.node("c"), fabric.node("s"))
    got = []

    def server(sim):
        d = yield srv.recv()
        got.append(d)

    cli.send("bulk-value", 32 * KB, one_sided=True)
    sim.spawn(server(sim))
    sim.run()
    assert got[0].one_sided
    assert got[0].recv_cpu == 0.0


def test_ipoib_endpoint_roundtrip(sim_fabric):
    sim, fabric = sim_fabric
    cli, srv = connect_ipoib(sim, fabric.node("c"), fabric.node("s"))
    got = []

    def server(sim):
        d = yield srv.recv()
        got.append(d)

    cli.send("req", 128)
    sim.spawn(server(sim))
    sim.run()
    assert got[0].payload == "req"
    assert got[0].recv_cpu == FDR_IPOIB.cpu_recv


def test_ipoib_one_sided_degrades_to_stream(sim_fabric):
    sim, fabric = sim_fabric
    cli, srv = connect_ipoib(sim, fabric.node("c"), fabric.node("s"))
    got = []

    def server(sim):
        d = yield srv.recv()
        got.append(d)

    cli.send("v", 1 * KB, one_sided=True)
    sim.spawn(server(sim))
    sim.run()
    assert not got[0].one_sided
    assert got[0].recv_cpu > 0
    assert not cli.supports_one_sided
    assert connect_rdma(sim, fabric.node("c"), fabric.node("s"))[0].supports_one_sided


def test_rdma_faster_than_ipoib_for_same_payload(sim_fabric):
    sim, fabric = sim_fabric
    r_cli, r_srv = connect_rdma(sim, fabric.node("rc"), fabric.node("rs"))
    i_cli, i_srv = connect_ipoib(sim, fabric.node("ic"), fabric.node("is"))
    times = {}

    def receiver(sim, ep, tag):
        d = yield ep.recv()
        yield sim.timeout(d.recv_cpu)
        times[tag] = sim.now

    r_cli.send("x", 32 * KB)
    i_cli.send("x", 32 * KB)
    sim.spawn(receiver(sim, r_srv, "rdma"))
    sim.spawn(receiver(sim, i_srv, "ipoib"))
    sim.run()
    assert times["rdma"] < times["ipoib"] / 2


def test_on_wire_event_marks_buffer_reuse_point(sim_fabric):
    sim, fabric = sim_fabric
    cli, _srv = connect_rdma(sim, fabric.node("c"), fabric.node("s"))
    msg = cli.send("v", 1 * MB, one_sided=True)
    sim.run(until=msg.on_wire)
    wire_t = sim.now
    sim.run(until=msg.delivered)
    assert sim.now > wire_t


def test_same_node_endpoints_share_nic(sim_fabric):
    sim, fabric = sim_fabric
    # Two clients on one node contend on the shared NIC.
    c1, _s1 = connect_rdma(sim, fabric.node("shared"), fabric.node("s1"))
    c2, _s2 = connect_rdma(sim, fabric.node("shared"), fabric.node("s2"))
    assert c1.nic is c2.nic
    m1 = c1.send("a", 1 * MB)
    m2 = c2.send("b", 1 * MB)
    sim.run(until=m1.on_wire)
    t1 = sim.now
    sim.run(until=m2.on_wire)
    assert sim.now >= 2 * t1 * 0.99
