"""Fabric, nodes, NICs, and the raw message-transfer machinery.

A :class:`Message` moves through three observable points:

1. ``on_wire`` — the sender's NIC finished serializing it; the sender's
   buffers are free for reuse (this is what ``bset``/``bget`` wait for).
2. ``delivered`` — the last byte arrived at the destination NIC.
3. consumption — a higher layer (endpoint inbox, QP recv queue, IPoIB
   inbox) hands it to the application.

Each NIC transmits from a private FIFO: one message holds the pipe at a
time, so concurrent messages from one node serialize — this is what
creates client-side NIC contention in the 100-client throughput
experiment (Fig 7c).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.net.params import LinkParams
from repro.obs.api import NULL_OBS, Observability
from repro.obs.tracer import NULL_SPAN
from repro.sim import Event, Mailbox, Simulator, Timeout

#: Slot marker: the message passed this point while nobody had asked
#: for its event, so none was created or scheduled.
_FIRED = object()


class Message:
    """One transfer over the fabric.

    ``payload`` is an arbitrary Python object (protocol header, value
    descriptor, ...). ``nbytes`` is the size that occupies the wire.

    The ``on_wire`` and ``delivered`` events are created on first
    access. The NIC schedules one only if it exists when the message
    reaches that point; a point nobody asked for costs no event at all,
    and asking for it afterwards returns an already-processed event.
    This is sound because every subscriber (``Client._arm``,
    ``QueuePair._complete_on``) asks at send time, before the event can
    fire. A subscriber that asked later would see the event processed
    instead of pending. Pure observers use :meth:`watch`, which
    schedules nothing.
    """

    __slots__ = ("src", "dst", "nbytes", "payload", "one_sided", "recv_cpu",
                 "inbox", "_on_wire", "_delivered", "_watchers")

    def __init__(self, src: "NIC", dst: "NIC", nbytes: int, payload: Any = None,
                 one_sided: bool = False, recv_cpu: float = 0.0,
                 inbox: Optional[Mailbox] = None):
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.payload = payload
        #: True for one-sided RDMA ops: the destination CPU is not involved.
        self.one_sided = one_sided
        #: CPU time the receiver's event loop must spend before handing
        #: the message to the application (zero for one-sided ops).
        self.recv_cpu = recv_cpu
        #: Endpoint inbox the message itself is put into on delivery
        #: (None: the payload routes itself).
        self.inbox = inbox
        # None (not asked for), an Event, or _FIRED.
        self._on_wire: Any = None
        self._delivered: Any = None
        #: ``(on_wire, delivered)`` callables from :meth:`watch`.
        self._watchers: Optional[List[tuple]] = None

    @property
    def on_wire(self) -> Event:
        ev = self._on_wire
        if ev is None or ev is _FIRED:
            ev = self._on_wire = self._event(ev is _FIRED)
        return ev

    @property
    def delivered(self) -> Event:
        ev = self._delivered
        if ev is None or ev is _FIRED:
            ev = self._delivered = self._event(ev is _FIRED)
        return ev

    def _event(self, fired: bool) -> Event:
        ev = Event(self.src.sim)
        if fired:
            ev._ok = True
            ev._value = self
            ev.callbacks = None
        return ev

    def watch(self, on_wire: Callable[[], None],
              delivered: Callable[[], None]) -> None:
        """Call ``on_wire()`` and ``delivered()`` as the message reaches
        each point, or at once for a point already passed.

        The NIC calls watchers inline, so watching creates and schedules
        no event: an observer cannot change the run's event count.
        """
        if _passed(self._on_wire):
            # Calls it now; the NIC will not pass this point again.
            on_wire()
            if _passed(self._delivered):
                delivered()
                return
        if self._watchers is None:
            self._watchers = []
        self._watchers.append((on_wire, delivered))

    def _mark_on_wire(self) -> None:
        ev = self._on_wire
        if ev is None:
            self._on_wire = _FIRED
        else:
            # Inlined ev.succeed(self): only the NIC triggers it.
            ev._ok = True
            ev._value = self
            self.src.sim._schedule_now(ev)
        watchers = self._watchers
        if watchers is not None:
            for on_wire, _ in watchers:
                on_wire()

    def _mark_delivered(self) -> None:
        ev = self._delivered
        if ev is None:
            self._delivered = _FIRED
        else:
            ev._ok = True
            ev._value = self
            self.src.sim._schedule_now(ev)
        watchers = self._watchers
        if watchers is not None:
            for _, delivered in watchers:
                delivered()


def _passed(slot: Any) -> bool:
    return slot is _FIRED or (slot is not None and slot.triggered)


class NIC:
    """One host channel adapter attached to the fabric."""

    def __init__(self, sim: Simulator, node: "Node", params: LinkParams,
                 obs: Optional[Observability] = None):
        self.sim = sim
        self.node = node
        self.params = params  # property: also derives the hot constants
        #: Transmit FIFO (the DMA/wire is one pipe): ``_tx_busy`` while a
        #: message holds it; later ones wait as ``(msg, t_queued)``.
        self._tx_busy = False
        self._tx_queue: Deque[Tuple[Message, float]] = deque()
        # traffic accounting
        self.bytes_sent = 0
        self.messages_sent = 0
        # live metrics (no-ops when observability is disabled)
        self.obs = obs or NULL_OBS
        self._metrics_on = self.obs.registry.enabled
        self._tracer = self.obs.tracer
        reg = self.obs.registry
        labels = dict(node=node.name, link=params.name)
        self._m_bytes = reg.counter("nic_bytes_sent", **labels)
        self._m_msgs = reg.counter("nic_messages_sent", **labels)
        self._m_tx_wait = reg.histogram("nic_tx_wait_seconds", **labels)
        reg.gauge("nic_tx_backlog",
                  fn=lambda: self._tx_busy + len(self._tx_queue), **labels)

    @property
    def params(self) -> LinkParams:
        return self._params

    @params.setter
    def params(self, params: LinkParams) -> None:
        # The transmit pipeline reads per-message constants from flat
        # attributes instead of walking ``self.params.*`` per call; the
        # setter keeps them coherent when a fault injector swaps the
        # LinkParams mid-run (link_degrade and its restoration).
        self._params = params
        self._latency = params.latency
        self._cpu_send = params.cpu_send
        self._serialize = params.serialize_time

    def transmit(self, dst: "NIC", nbytes: int, payload: Any = None,
                 one_sided: bool = False, recv_cpu: float = 0.0,
                 inbox: Optional[Mailbox] = None) -> Message:
        """Start an asynchronous transfer; returns the in-flight Message.

        The transfer is a callback chain rather than a spawned process:
        tx grant -> serialize busy-time -> on_wire -> wire latency ->
        delivered. With ``inbox`` set, delivery puts the message itself
        into it; otherwise a payload with a ``deliver`` method routes it.
        """
        sim = self.sim
        msg = Message(self, dst, nbytes, payload, one_sided, recv_cpu, inbox)
        if self._tx_busy:
            self._tx_queue.append((msg, sim._now))
        else:
            self._tx_busy = True
            self._grant(msg, sim._now)
        return msg

    def _grant(self, msg: Message, t_queued: float) -> None:
        # One same-instant event between winning the pipe and starting to
        # serialize. It is not needed for timing, but it keeps every
        # busy timer posted in the same order relative to other timers
        # created at this instant, so equal-time ties resolve as before.
        # partial, not a lambda: callbacks receive the event argument,
        # which the trailing _ev parameter absorbs without the extra
        # Python frame a lambda would add to every hop of the chain.
        Timeout(self.sim, 0.0).callbacks.append(
            partial(self._tx_granted, msg, t_queued))

    def _tx_granted(self, msg: Message, t_queued: float, _ev=None) -> None:
        sim = self.sim
        if self._metrics_on:
            self._m_tx_wait.observe(sim._now - t_queued)
        tracer = self._tracer
        if tracer.enabled:
            span = tracer.begin(
                "tx", tid=f"{self.node.name}/{self.params.name}", pid="net",
                cat="net", bytes=msg.nbytes)
        else:
            span = NULL_SPAN
        busy = self._cpu_send + self._serialize(msg.nbytes)
        if busy > 0:
            Timeout(sim, busy).callbacks.append(
                partial(self._tx_done, msg, span))
        else:
            self._tx_done(msg, span)

    def _tx_done(self, msg: Message, span, _ev=None) -> None:
        queue = self._tx_queue
        if queue:
            self._grant(*queue.popleft())
        else:
            self._tx_busy = False
        nbytes = msg.nbytes
        self.bytes_sent += nbytes
        self.messages_sent += 1
        if span is not NULL_SPAN:
            span.end()
        if self._metrics_on:
            self._m_bytes.inc(nbytes)
            self._m_msgs.inc()
        msg._mark_on_wire()
        Timeout(self.sim, self._latency).callbacks.append(
            partial(self._delivered, msg))

    @staticmethod
    def _delivered(msg: Message, _ev=None) -> None:
        msg._mark_delivered()
        inbox = msg.inbox
        if inbox is not None:
            inbox.put(msg)
        else:
            payload = msg.payload
            if payload is not None:
                # Self-routing frames (QP verbs, IPoIB) dispatch themselves.
                route = getattr(payload, "deliver", None)
                if route is not None:
                    route(msg)


class Node:
    """A compute node: a name plus one NIC per transport in use."""

    def __init__(self, sim: Simulator, name: str, fabric: "Fabric"):
        self.sim = sim
        self.name = name
        self.fabric = fabric
        self._nics: Dict[str, NIC] = {}

    def nic(self, params: LinkParams) -> NIC:
        """The node's NIC for a given transport (created on first use).

        All endpoints on the node using the same transport share the NIC
        (and therefore contend for its transmit side).
        """
        if params.name not in self._nics:
            self._nics[params.name] = NIC(self.sim, self, params,
                                          obs=self.fabric.obs)
        return self._nics[params.name]


class Fabric:
    """Star-topology interconnect; owns the nodes."""

    def __init__(self, sim: Simulator, obs: Optional[Observability] = None):
        self.sim = sim
        self.obs = obs or NULL_OBS
        self._nodes: Dict[str, Node] = {}

    def node(self, name: str) -> Node:
        if name not in self._nodes:
            self._nodes[name] = Node(self.sim, name, self)
        return self._nodes[name]

    @property
    def nodes(self) -> Dict[str, Node]:
        return dict(self._nodes)
