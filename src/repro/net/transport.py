"""Uniform endpoint API over RDMA and IPoIB for the Memcached protocol.

The client and server code talk to :class:`Endpoint` objects only; the
two concrete transports differ in:

* whether bulk value transfers can be one-sided (RDMA write: no remote
  CPU, no remote event-loop occupancy) — the enabler of the non-blocking
  runtime design;
* per-message CPU and effective bandwidth (kernel stack vs verbs).

``Endpoint.send`` returns the in-flight :class:`~repro.net.fabric.Message`
whose ``on_wire`` event is the *buffer-reuse* point the paper's
``bset``/``bget`` APIs wait on, and whose ``delivered`` event marks
arrival at the peer.

The verbs-level :class:`~repro.net.rdma.QueuePair` API remains available
for applications that want raw RDMA; these endpoints charge exactly the
same wire and CPU costs but deliver each message straight into the
peer inbox, which is how the Memcached runtime consumes them.
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.net.fabric import Message, Node
from repro.net.ipoib import IPoIBConnection
from repro.net.params import FDR_IPOIB, FDR_RDMA, LinkParams
from repro.sim import Mailbox, Simulator


class Endpoint:
    """Abstract one side of a connection. Concrete: RDMA or IPoIB."""

    sim: Simulator
    inbox: Mailbox
    params: LinkParams

    def send(self, payload: Any, nbytes: int, one_sided: bool = False) -> Message:
        """Transfer ``nbytes`` to the peer; ``payload`` rides along."""
        raise NotImplementedError

    def recv(self):
        """Event producing the next delivery from the inbox: anything
        with ``payload``/``nbytes``/``recv_cpu``/``one_sided``."""
        return self.inbox.get()

    @property
    def supports_one_sided(self) -> bool:
        raise NotImplementedError


class RdmaEndpoint(Endpoint):
    """Endpoint carried over RC verbs.

    The delivered :class:`~repro.net.fabric.Message` itself lands in the
    peer inbox. Two-sided sends carry the (small) verbs receive CPU;
    one-sided sends (RDMA writes) carry zero receive CPU — the peer
    discovers them by polling memory, as RDMA-Memcached's communication
    engine does.
    """

    def __init__(self, sim: Simulator, nic):
        self.sim = sim
        self.nic = nic
        # Mailbox, not Store: delivery never blocks and never filters,
        # so the put-side event a Store would allocate is dead weight.
        self.inbox = Mailbox(sim)
        self.params = nic.params
        self.peer: "RdmaEndpoint" = None  # type: ignore[assignment]

    def send(self, payload: Any, nbytes: int, one_sided: bool = False) -> Message:
        peer = self.peer
        return self.nic.transmit(peer.nic, nbytes, payload, one_sided,
                                 0.0 if one_sided else peer.params.cpu_recv,
                                 peer.inbox)

    @property
    def supports_one_sided(self) -> bool:
        return True


class IPoIBWrapEndpoint(Endpoint):
    """Endpoint backed by an IPoIB socket endpoint."""

    def __init__(self, sim: Simulator, raw):
        self.sim = sim
        self._raw = raw
        self.inbox = raw.inbox
        self.params = raw.params

    def send(self, payload: Any, nbytes: int, one_sided: bool = False) -> Message:
        # one_sided silently degrades to a stream send: IPoIB cannot
        # bypass the remote CPU, which is exactly the cost the paper's
        # IPoIB-Mem baseline pays.
        return self._raw.send(payload, nbytes)

    @property
    def supports_one_sided(self) -> bool:
        return False


def connect_rdma(sim: Simulator, node_a: Node, node_b: Node,
                 params: LinkParams = FDR_RDMA) -> Tuple[RdmaEndpoint, RdmaEndpoint]:
    """Create a connected pair of RDMA endpoints between two nodes."""
    ep_a = RdmaEndpoint(sim, node_a.nic(params))
    ep_b = RdmaEndpoint(sim, node_b.nic(params))
    ep_a.peer, ep_b.peer = ep_b, ep_a
    return ep_a, ep_b


def connect_ipoib(sim: Simulator, node_a: Node, node_b: Node,
                  params: LinkParams = FDR_IPOIB) -> Tuple[Endpoint, Endpoint]:
    """Create a connected IPoIB socket between two nodes."""
    conn = IPoIBConnection(sim, node_a.nic(params), node_b.nic(params))
    return IPoIBWrapEndpoint(sim, conn.a), IPoIBWrapEndpoint(sim, conn.b)
