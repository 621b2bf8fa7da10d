"""The Memcached server runtime.

Worker processes (memcached's worker threads) pull assembled requests
from a queue and drive the slab manager. Two runtime designs exist,
selected by :class:`ServerConfig`:

* **default** (H-RDMA-Def lineage): a SET's receive-buffer credit is
  held until the request is fully processed — slab allocation and any
  synchronous SSD flush included — so a busy server backpressures the
  clients' communication engines;
* **optimized** (Section V-B1, ``early_ack=True``): the server copies
  the value into internal staging and releases the credit immediately,
  then performs the expensive hybrid memory/SSD work, and only then
  communicates the operation's completion — the non-blocking client can
  meanwhile reuse its buffers and issue further requests.

Stage times are measured here and shipped back in each
:class:`~repro.server.protocol.Response` so the client side can assemble
the six-stage breakdown of Section III-A.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.net.transport import Endpoint
from repro.obs.api import NULL_OBS, Observability
from repro.obs.profile import profile_message
from repro.obs.tracer import NULL_SPAN
from repro.server.hybrid import HybridSlabManager
from repro.server.protocol import (
    DELETED,
    HIT,
    MISS,
    NOT_FOUND,
    OK,
    RESPONSE_HEADER_BYTES,
    STORED,
    TOUCHED,
    BufferAck,
    CounterRequest,
    DeleteRequest,
    FlushRequest,
    GatRequest,
    GetRequest,
    MultiGetRequest,
    Request,
    Response,
    SetRequest,
    StatsRequest,
    TouchRequest,
    ValueArrival,
)
from repro.sim import Mailbox, PriorityStore, Resource, Simulator
from repro.sim.errors import SimulationError
from repro.storage.device import BlockDevice
from repro.storage.params import DeviceParams, PageCacheParams
from repro.units import GB, KB, MB, US

#: Queue sentinel that makes a worker re-check liveness (crash teardown).
_POISON = object()
#: Rendezvous sentinel: the awaited SET value was dropped by a fault.
_DROPPED = object()


class _Forwarded:
    """Delivery shim for a request relayed server-to-server during a
    migration handoff window: enters the receiving worker queue exactly
    like an rx frame (``payload`` + ``recv_cpu``)."""

    __slots__ = ("payload", "recv_cpu")

    def __init__(self, payload, recv_cpu: float = 0.0):
        self.payload = payload
        self.recv_cpu = recv_cpu


@dataclass(frozen=True)
class ServerCosts:
    """CPU service times of the server's fast-path operations."""

    parse: float = 0.5 * US
    hash_lookup: float = 0.4 * US
    lru_update: float = 0.25 * US
    slab_alloc_cpu: float = 0.5 * US
    response_prep: float = 0.4 * US
    #: memcpy bandwidth for staging/chunk copies (bytes/s).
    memcpy_bandwidth: float = 8e9


@dataclass(frozen=True)
class ServerConfig:
    """Everything that distinguishes one server design from another."""

    mem_limit: int = 1 * GB
    page_size: int = 1 * MB
    #: SSD backing; None gives a pure in-memory server.
    ssd: Optional[DeviceParams] = None
    ssd_limit: int = 4 * GB
    #: "direct" (existing design) or "adaptive" (mmap/cached by class).
    io_policy: str = "direct"
    adaptive_cutoff: int = 32 * KB
    promote_policy: str = "always"
    victim_policy: str = "coldest"
    worker_threads: int = 8
    #: RDMA receive-buffer credits for in-flight SET values.
    recv_credits: int = 16
    #: Optimized runtime: release the credit after staging the value.
    early_ack: bool = False
    #: Asynchronous SSD I/O (the paper's Sec-VII future work): slab
    #: flushes stage in bounded buffers and write back in the background.
    async_flush: bool = False
    flush_buffers: int = 4
    #: Slab automover (memcached's rebalancer) for shifting workloads.
    automove: bool = False
    automove_interval: float = 0.05
    #: Schedule GETs ahead of SETs in the worker queue (an extension
    #: beyond the paper: read requests skip ahead of writes whose slab
    #: flushes would otherwise head-of-line-block them).
    get_priority: bool = False
    #: Active TTL reclaim (memcached's LRU crawler): a background
    #: sweeper scans ``expiry_budget`` items per tick and frees expired
    #: chunks without waiting for the next lookup.
    active_expiry: bool = True
    expiry_interval: float = 0.005
    expiry_budget: int = 128
    pagecache: PageCacheParams = field(default_factory=PageCacheParams)
    costs: ServerCosts = field(default_factory=ServerCosts)
    min_chunk: int = 96
    growth_factor: float = 1.25

    @property
    def hybrid(self) -> bool:
        return self.ssd is not None


@dataclass
class ServerStats:
    """Operation counters and per-stage time accumulators."""

    sets: int = 0
    gets: int = 0
    deletes: int = 0
    get_hits: int = 0
    get_misses: int = 0
    #: incr/decr arithmetic commands served (user-visible).
    counters: int = 0
    gats: int = 0
    flushes: int = 0
    #: Replica-propagation writes applied (not user-visible SETs).
    replica_applies: int = 0
    stage_time: Dict[str, float] = field(default_factory=dict)
    busy_time: float = 0.0

    def add_stage(self, name: str, dt: float) -> None:
        self.stage_time[name] = self.stage_time.get(name, 0.0) + dt

    def add_stages(self, stages: Dict[str, float]) -> None:
        """Accumulate a whole per-op stage dict in one call (the per-op
        handlers sit on the hot path; one frame beats one per stage)."""
        stage_time = self.stage_time
        get = stage_time.get
        for name, dt in stages.items():
            stage_time[name] = get(name, 0.0) + dt


class MemcachedServer:
    """One Memcached server instance bound to a fabric node."""

    def __init__(self, sim: Simulator, config: ServerConfig,
                 name: str = "server0",
                 obs: Optional[Observability] = None):
        self.sim = sim
        self.config = config
        self.name = name
        self.obs = obs or NULL_OBS
        self.device = (BlockDevice(sim, config.ssd, name=f"{name}-ssd",
                                   obs=self.obs)
                       if config.ssd is not None else None)
        self.manager = HybridSlabManager(
            sim,
            mem_limit=config.mem_limit,
            device=self.device,
            ssd_limit=config.ssd_limit,
            page_size=config.page_size,
            io_policy=config.io_policy,
            adaptive_cutoff=config.adaptive_cutoff,
            promote_policy=config.promote_policy,
            victim_policy=config.victim_policy,
            pagecache_params=config.pagecache,
            min_chunk=config.min_chunk,
            growth_factor=config.growth_factor,
            async_flush=config.async_flush,
            flush_buffers=config.flush_buffers,
            flush_memcpy_bandwidth=config.costs.memcpy_bandwidth,
            automove=config.automove,
            automove_interval=config.automove_interval,
            active_expiry=config.active_expiry,
            expiry_interval=config.expiry_interval,
            expiry_budget=config.expiry_budget,
            obs=self.obs,
            owner=name,
        )
        self.stats = ServerStats()
        #: Ring index of this server in its cluster (set by the cluster
        #: wiring); -1 when the server runs standalone.
        self.index = -1
        #: Migration-window state (:class:`repro.core.migration
        #: .HandoffState`) while this server donates or receives a shard
        #: handoff; None outside any window — the request hot path pays
        #: exactly one attribute test for elasticity.
        self.handoff = None
        # Mailbox unless reads jump the queue: puts never block and
        # nobody waits on them, so a Store's per-put event is dead weight.
        self._queue = PriorityStore(sim) if config.get_priority else Mailbox(sim)
        self.credits = Resource(sim, capacity=config.recv_credits)
        self._value_events: Dict[int, object] = {}
        self._started = False
        self._busy_workers = 0
        #: Fail-stop state: a crashed server drops everything until
        #: :meth:`restart`.
        self.alive = True
        #: Network partition state: an unreachable server neither
        #: receives nor delivers messages until :meth:`heal`.
        self.reachable = True
        self.crashes = 0
        self.restarts = 0
        #: Bumped on every crash; workers from older generations exit.
        self._generation = 0
        # live metrics (no-ops when observability is disabled)
        reg = self.obs.registry
        labels = dict(server=name)
        self._m_sets = reg.counter("cmd_set", **labels)
        self._m_gets = reg.counter("cmd_get", **labels)
        self._m_hits = reg.counter("get_hits", **labels)
        self._m_misses = reg.counter("get_misses", **labels)
        self._m_deletes = reg.counter("cmd_delete", **labels)
        self._m_credit_hold = reg.histogram("credit_hold_seconds", **labels)
        reg.gauge("server_queue_depth", fn=lambda: len(self._queue), **labels)
        reg.gauge("workers_busy", fn=lambda: self._busy_workers, **labels)
        reg.gauge("server_credits_in_use",
                  fn=lambda: self.credits.in_use, **labels)
        reg.gauge("server_alive",
                  fn=lambda: 1.0 if (self.alive and self.reachable) else 0.0,
                  **labels)
        self._m_crashes = reg.counter("server_crashes", **labels)
        self._m_dropped_rx = reg.counter("server_rx_dropped", **labels)
        self._m_replica_applies = reg.counter("replica_propagations",
                                              **labels)
        #: Cached registry-enabled flag: the NULL counters' .inc() calls
        #: are real method calls, measurable on the per-request path.
        self._metrics_on = reg.enabled

    # -- wiring -----------------------------------------------------------

    def attach(self, endpoint: Endpoint) -> None:
        """Serve one client connection."""
        self.sim.spawn(self._rx_pump(endpoint), name=f"{self.name}-rx")

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        gen = self._generation
        for i in range(self.config.worker_threads):
            self.sim.spawn(self._worker(i, gen),
                           name=f"{self.name}-worker{i}.g{gen}")

    def queue_depth(self) -> int:
        """Requests waiting for a worker (the autoscaler's load signal,
        same series the ``server_queue_depth`` gauge samples)."""
        return len(self._queue)

    # -- migration handoff (elastic scaling) ----------------------------------

    def enqueue_forwarded(self, request, endpoint: Endpoint) -> None:
        """Accept a request another server relayed during a migration
        handoff window. It enters the worker queue exactly like an rx
        frame and is answered over the *original* client endpoint, with
        :attr:`Response.origin` naming this server."""
        if not (self.alive and self.reachable):
            # Dropped like any frame at a dead server; the client's
            # completion timeout and retry path take over.
            self._m_dropped_rx.inc()
            return
        entry = (_Forwarded(request), endpoint)
        if self.config.get_priority:
            rank = 0 if request.op in ("get", "mget", "gat") else 1
            self._queue.put(entry, priority=rank)
        else:
            self._queue.put(entry)

    def _forward(self, request, endpoint: Endpoint, owner: int) -> None:
        """Relay ``request`` to the key's new owner (one modeled hop);
        the owner responds over the original client endpoint."""
        migration = self.handoff.migration
        target = migration.cluster.servers[owner]
        request.forwarded = True
        migration.count_forward(self)
        hop = migration.cfg.forward_hop
        if hop <= 0:
            target.enqueue_forwarded(request, endpoint)
            return
        sim = self.sim

        def _relay():
            yield sim.timeout(hop)
            target.enqueue_forwarded(request, endpoint)

        sim.spawn(_relay(), name=f"{self.name}-forward")

    def _handoff_route(self, request, endpoint: Endpoint) -> bool:
        """Migration-window routing for a single-key request: relay it
        to its new owner (forward mode, sealed donor) or pull the item
        in from the old owner before serving (double-read window).
        Returns True when the request was relayed and needs no local
        handling. SETs are never relayed here — their value may still
        be in flight; :meth:`_handle_set` forwards once it has it."""
        state = self.handoff
        if getattr(request, "replica", False):
            return False
        if isinstance(request, MultiGetRequest):
            return False  # split per entry inside _handle_mget
        key = request.key
        if not key:
            return False  # flush/stats broadcasts stay local
        migration = state.migration
        if state.forwarding and not request.forwarded:
            owner = migration.owner_of(key)
            if owner != self.index:
                if isinstance(request, SetRequest):
                    return False
                self._forward(request, endpoint, owner)
                return True
        if state.pulling and key not in state.written:
            migration.maybe_pull(self, key)
        return False

    def _handoff_mget_entry(self, req_id: int, key: bytes, ptid,
                            endpoint: Endpoint) -> bool:
        """Per-entry handoff routing for a batched mget: misrouted
        entries are split out and relayed individually."""
        state = self.handoff
        migration = state.migration
        if state.forwarding:
            owner = migration.owner_of(key)
            if owner != self.index:
                sub = GetRequest(req_id=req_id, op="get", key=key,
                                 trace_id=ptid)
                self._forward(sub, endpoint, owner)
                return True
        if state.pulling and key not in state.written:
            migration.maybe_pull(self, key)
        return False

    def _note_write(self, key: bytes) -> None:
        """Hook run after every local mutation applies: keeps a
        migration window coherent (dirty tracking before the seal,
        immediate re-push after it). Callers guard on ``handoff``."""
        self.handoff.note_write(self, key)

    # -- fault injection (fail-stop crash / network partition) ----------------

    def crash(self) -> None:
        """Fail-stop: drop queued and in-flight work, stop the worker
        pool, and make sure nothing can block on this server's resources.

        The NIC keeps draining deliveries (the rx pumps stay up) but
        every message is discarded, so clients observe silence — their
        completion timeouts, not errors, detect the failure.
        """
        if not self.alive:
            return
        self.alive = False
        self.crashes += 1
        self._m_crashes.inc()
        self._generation += 1
        self._queue.clear()
        self._purge_value_waits()
        # Wake parked workers so they exit and the pool tears down.
        for _ in range(self.config.worker_threads):
            self._queue.put(_POISON)
        self._open_credits()
        self._started = False

    def restart(self, wipe: bool = False) -> None:
        """Bring a crashed server back with a fresh worker pool.

        With ``wipe`` the cache restarts cold (stock memcached loses
        DRAM contents); without it the contents survive, modeling a
        persistent-memory-backed store (cf. Choi et al., PAPERS.md).
        """
        if self.alive:
            return
        self.alive = True
        self.restarts += 1
        self._generation += 1
        self.credits = Resource(self.sim, capacity=self.config.recv_credits)
        self._value_events.clear()
        if wipe:
            self.manager.wipe()
        self.start()

    def partition(self) -> None:
        """Enter a full network partition (link blackhole): requests,
        values, and responses are all dropped until :meth:`heal`."""
        if not self.reachable:
            return
        self.reachable = False
        self._purge_value_waits()
        self._open_credits()

    def heal(self) -> None:
        """Leave the partition; dropped SET values are purged so workers
        parked on their rendezvous abort and return to the queue."""
        if self.reachable:
            return
        self.reachable = True
        self._purge_value_waits()
        self.credits = Resource(self.sim, capacity=self.config.recv_credits)

    def _purge_value_waits(self) -> None:
        """Abort every pending SET-value rendezvous with a sentinel."""
        for ev in list(self._value_events.values()):
            if not ev.triggered:
                ev.succeed(_DROPPED)
        self._value_events.clear()

    def _open_credits(self) -> None:
        """Replace the credit pool with an effectively unbounded one and
        grant everything queued: no client communication engine may sit
        parked forever on a dead/unreachable server's flow control (its
        values are dropped on arrival anyway)."""
        old = self.credits
        self.credits = Resource(self.sim, capacity=1 << 30)
        old.grant_all_waiting()

    def _release_credit(self, credit) -> None:
        if credit is None:
            return
        try:
            credit.resource.release(credit)
        except SimulationError:  # pragma: no cover - defensive
            # The pool was torn down by a crash while this worker held
            # the credit; there is nothing left to release into.
            pass

    # -- receive path ---------------------------------------------------------

    def _rx_pump(self, endpoint: Endpoint):
        # One iteration per frame this connection ever receives; the
        # per-frame lookups below are hoisted once.
        recv = endpoint.recv
        prof = self.obs.profiler
        prof_on = prof.enabled
        get_priority = self.config.get_priority
        queue_put = self._queue.put
        ep_key = id(endpoint)
        while True:
            delivery = yield recv()
            if not (self.alive and self.reachable):
                # Crashed or partitioned: the frame vanishes. No CPU is
                # charged — nobody is listening.
                self._m_dropped_rx.inc()
                continue
            payload = delivery.payload
            if isinstance(payload, ValueArrival):
                # req_ids are unique per client connection only; key the
                # rendezvous by (connection, req_id).
                key = (ep_key, payload.req_id)
                ev = self._value_events.get(key)
                if ev is None:
                    ev = self._value_events[key] = self.sim.event()
                ev.succeed(payload)
            elif isinstance(payload, Request):
                if prof_on:
                    for tid, px in self._trace_targets(payload):
                        prof.open_stage(tid, px + "server_queue")
                if get_priority:
                    # Reads skip ahead of writes (0 beats 1); gat rides
                    # the read lane — its TTL refresh never flushes.
                    rank = 0 if payload.op in ("get", "mget", "gat") else 1
                    queue_put((delivery, endpoint), priority=rank)
                else:
                    queue_put((delivery, endpoint))
            else:  # pragma: no cover - defensive
                raise TypeError(f"unexpected payload {payload!r}")

    @staticmethod
    def _trace_targets(request: Request):
        """``(trace_id, stage_prefix)`` pairs of a request's sampled
        traces — one per entry for a batched mget, the ``replica.``
        prefix for replica-propagation applies."""
        if isinstance(request, MultiGetRequest):
            return [(tid, "") for tid in request.traces if tid is not None]
        if request.trace_id is None:
            return []
        px = "replica." if getattr(request, "replica", False) else ""
        return [(request.trace_id, px)]

    def _await_value(self, endpoint: Endpoint, req_id: int):
        key = (id(endpoint), req_id)
        ev = self._value_events.get(key)
        if ev is None:
            ev = self._value_events[key] = self.sim.event()
        arrival = yield ev
        # pop, not del: a fault purge may have already dropped the key.
        self._value_events.pop(key, None)
        return arrival

    # -- worker threads ---------------------------------------------------------

    def _worker(self, wid: int = 0, gen: int = 0):
        m_busy = self.obs.registry.counter(
            "worker_busy_seconds", server=self.name, worker=str(wid))
        self.obs.registry.gauge(
            "worker_busy_fraction",
            fn=lambda: m_busy.value / self.sim.now if self.sim.now > 0 else 0.0,
            server=self.name, worker=str(wid))
        tid = f"{self.name}-w{wid}"
        # Loop-invariant bindings: tracer and parse cost are fixed for a
        # worker generation, and this loop runs once per request.
        tracer = self.obs.tracer
        parse_cost = self.config.costs.parse
        metrics_on = self._metrics_on
        sim = self.sim
        timeout = sim.timeout
        queue_get = self._queue.get
        prof = self.obs.profiler
        prof_on = prof.enabled
        tracer_on = tracer.enabled
        while True:
            got = yield queue_get()
            if got is _POISON:
                if gen != self._generation or not self.alive:
                    return  # crash teardown: this worker's pool is gone
                continue
            if gen != self._generation:
                # Superseded by a restart: hand the work to the new pool.
                self._queue.put(got)
                return
            delivery, endpoint = got
            start = sim._now
            self._busy_workers += 1
            request = delivery.payload
            targets = ()
            if prof_on:
                targets = self._trace_targets(request)
                for ptid, px in targets:
                    prof.close_stage(ptid, px + "server_queue")
            if tracer_on:
                if getattr(request, "trace_id", None) is not None:
                    span = tracer.begin(request.op, tid=tid, pid="server",
                                        cat="request",
                                        req_id=request.req_id,
                                        trace_id=request.trace_id)
                else:
                    span = tracer.begin(request.op, tid=tid, pid="server",
                                        cat="request",
                                        req_id=request.req_id)
            else:
                span = NULL_SPAN
            if delivery.recv_cpu:
                yield timeout(delivery.recv_cpu)
            yield timeout(parse_cost)
            for ptid, px in targets:
                prof.record(ptid, px + "server_cpu", start, sim._now)
            # Dispatch ordered by hot-path frequency: SETs (including
            # replica applies) and GETs dominate every workload mix.
            if self.handoff is not None \
                    and self._handoff_route(request, endpoint):
                # Relayed to the key's new owner during a migration
                # window; that server answers the client directly.
                pass
            elif isinstance(request, SetRequest):
                yield from self._handle_set(request, endpoint)
            elif isinstance(request, GetRequest):
                yield from self._handle_get(request, endpoint)
            elif isinstance(request, MultiGetRequest):
                yield from self._handle_mget(request, endpoint)
            elif isinstance(request, DeleteRequest):
                yield from self._handle_delete(request, endpoint)
            elif isinstance(request, TouchRequest):
                yield from self._handle_touch(request, endpoint)
            elif isinstance(request, CounterRequest):
                yield from self._handle_counter(request, endpoint)
            elif isinstance(request, GatRequest):
                yield from self._handle_gat(request, endpoint)
            elif isinstance(request, FlushRequest):
                yield from self._handle_flush(request, endpoint)
            elif isinstance(request, StatsRequest):
                yield from self._handle_stats(request, endpoint)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown request {request!r}")
            if span is not NULL_SPAN:
                span.end()
            self._busy_workers -= 1
            busy = sim._now - start
            self.stats.busy_time += busy
            if metrics_on:
                m_busy.inc(busy)

    # -- SET -----------------------------------------------------------------

    def _handle_set(self, request: SetRequest, endpoint: Endpoint):
        sim = self.sim
        timeout = sim.timeout
        costs = self.config.costs
        stages: Dict[str, float] = {}
        prof = self.obs.profiler
        ptid = request.trace_id if prof.enabled else None
        px = "replica." if request.replica else ""
        credit = None
        if not request.inline_value:
            arrival = yield from self._await_value(endpoint, request.req_id)
            if arrival is _DROPPED or not self.alive:
                # The value was lost to a crash/partition while we waited
                # (or the server died under us): abandon the SET. The
                # client's completion timeout handles the rest.
                return
            credit = arrival.credit
        # Copy the value out of the receive buffer (staging on the
        # optimized server, directly toward the chunk otherwise).
        t_copy = sim._now
        yield timeout(request.value_length / costs.memcpy_bandwidth)
        if ptid is not None:
            prof.record(ptid, px + "ram", t_copy, sim._now)
        if credit is not None and self.config.early_ack:
            # Optimized runtime: the receive buffer is free *now*; the
            # client engine's next value transfer can proceed while we do
            # the expensive slab work below. Notify the client that its
            # buffers are reusable (what bset blocks on — Section V-B1).
            if credit.granted_at is not None and self._metrics_on:
                self._m_credit_hold.observe(sim._now - credit.granted_at)
            self._release_credit(credit)
            credit = None
            if self.reachable:
                ack = BufferAck(req_id=request.req_id)
                endpoint.send(ack, ack.header_bytes, one_sided=True)

        if self.handoff is not None and self.handoff.forwarding \
                and not request.replica and not request.forwarded \
                and self.handoff.migration.owner_of(request.key) != self.index:
            # Misrouted SET from a client that has not observed the new
            # view yet: the value is fully staged here now, so relay the
            # whole operation inline to the key's new owner.
            if credit is not None:
                if credit.granted_at is not None and self._metrics_on:
                    self._m_credit_hold.observe(sim._now - credit.granted_at)
                self._release_credit(credit)
            request.inline_value = True
            self._forward(request, endpoint,
                          self.handoff.migration.owner_of(request.key))
            return

        t0 = sim._now
        yield timeout(costs.slab_alloc_cpu)
        if ptid is not None:
            prof.record(ptid, px + "index", t0, sim._now)
        t_store = sim._now
        item, info = yield from self.manager.store(
            request.key, request.value_length, request.flags,
            request.expiration, mode=request.mode,
            cas_token=request.cas_token, hlc=request.hlc)
        stages["slab_alloc"] = sim._now - t0
        if ptid is not None:
            # Store time beyond the alloc CPU is flush/eviction I/O wait.
            prof.record(ptid, px + "ssd", t_store, sim._now)
        if self.handoff is not None and info.status == STORED:
            self._note_write(request.key)

        t0 = sim._now
        yield timeout(costs.lru_update)
        stages["cache_update"] = sim._now - t0
        if ptid is not None:
            prof.record(ptid, px + "index", t0, sim._now)

        if credit is not None:
            if credit.granted_at is not None and self._metrics_on:
                self._m_credit_hold.observe(sim._now - credit.granted_at)
            self._release_credit(credit)
        if request.replica:
            # Replica-apply path: same slab work, separate accounting —
            # user-visible SET counters stay comparable across R values.
            self.stats.replica_applies += 1
            if self._metrics_on:
                self._m_replica_applies.inc()
        else:
            self.stats.sets += 1
            if self._metrics_on:
                self._m_sets.inc()
        self.stats.add_stages(stages)
        yield from self._respond(endpoint, request, info.status, 0, stages,
                                 cas_token=item.cas if item else 0)

    # -- GET ------------------------------------------------------------------

    def _handle_get(self, request: GetRequest, endpoint: Endpoint):
        sim = self.sim
        timeout = sim.timeout
        costs = self.config.costs
        stages: Dict[str, float] = {}
        prof = self.obs.profiler
        ptid = request.trace_id if prof.enabled else None
        t0 = sim._now
        yield timeout(costs.hash_lookup)
        if ptid is not None:
            prof.record(ptid, "index", t0, sim._now)
        item = self.manager.lookup(request.key)
        if item is not None:
            t_load = sim._now
            was_ssd = item.on_ssd
            yield from self.manager.load_value(item, trace=ptid)
            if ptid is not None:
                # A RAM hit serves at memcpy speed; the SSD path's device
                # time is nested under this span as ``ssd.io``.
                prof.record(ptid, "ssd" if was_ssd else "ram",
                            t_load, sim._now)
        stages["cache_check_load"] = sim._now - t0

        self.stats.gets += 1
        if self._metrics_on:
            self._m_gets.inc()
        if item is None:
            self.stats.get_misses += 1
            if self._metrics_on:
                self._m_misses.inc()
            self.stats.add_stages(stages)
            yield from self._respond(endpoint, request, MISS, 0, stages)
            return

        t0 = sim._now
        yield timeout(costs.lru_update)
        self.manager.touch(item)
        stages["cache_update"] = sim._now - t0
        if ptid is not None:
            prof.record(ptid, "index", t0, sim._now)

        self.stats.get_hits += 1
        if self._metrics_on:
            self._m_hits.inc()
        self.stats.add_stages(stages)
        yield from self._respond(endpoint, request, HIT, item.value_length,
                                 stages, cas_token=item.cas)

    # -- MGET -----------------------------------------------------------------

    def _handle_mget(self, request: MultiGetRequest, endpoint: Endpoint):
        """memcached_mget: stream one response per requested key."""
        sim = self.sim
        timeout = sim.timeout
        costs = self.config.costs
        prof = self.obs.profiler
        traces = request.traces if prof.enabled else ()
        for i, (req_id, key) in enumerate(request.entries):
            stages: Dict[str, float] = {}
            ptid = traces[i] if i < len(traces) else None
            if self.handoff is not None and not request.forwarded \
                    and self._handoff_mget_entry(req_id, key, ptid,
                                                 endpoint):
                continue  # relayed to the key's new owner
            t0 = sim._now
            yield timeout(costs.hash_lookup)
            if ptid is not None:
                prof.record(ptid, "index", t0, sim._now)
            item = self.manager.lookup(key)
            if item is not None:
                t_load = sim._now
                was_ssd = item.on_ssd
                yield from self.manager.load_value(item, trace=ptid)
                if ptid is not None:
                    prof.record(ptid, "ssd" if was_ssd else "ram",
                                t_load, sim._now)
            stages["cache_check_load"] = sim._now - t0
            self.stats.gets += 1
            if self._metrics_on:
                self._m_gets.inc()
            sub = GetRequest(req_id=req_id, op="get", key=key, trace_id=ptid)
            if item is None:
                self.stats.get_misses += 1
                if self._metrics_on:
                    self._m_misses.inc()
                yield from self._respond(endpoint, sub, MISS, 0, stages)
                continue
            t0 = sim._now
            yield timeout(costs.lru_update)
            self.manager.touch(item)
            stages["cache_update"] = sim._now - t0
            if ptid is not None:
                prof.record(ptid, "index", t0, sim._now)
            self.stats.get_hits += 1
            if self._metrics_on:
                self._m_hits.inc()
            self.stats.add_stages(stages)
            yield from self._respond(endpoint, sub, HIT, item.value_length,
                                     stages, cas_token=item.cas)

    # -- DELETE --------------------------------------------------------------

    def _handle_delete(self, request: DeleteRequest, endpoint: Endpoint):
        t0 = self.sim.now
        yield self.sim.timeout(self.config.costs.hash_lookup)
        if request.trace_id is not None and self.obs.profiler.enabled:
            px = "replica." if request.replica else ""
            self.obs.profiler.record(request.trace_id, px + "index",
                                     t0, self.sim.now)
        found = self.manager.delete(request.key, hlc=request.hlc)
        if found and self.handoff is not None:
            self._note_write(request.key)
        if request.replica:
            self.stats.replica_applies += 1
            self._m_replica_applies.inc()
        else:
            self.stats.deletes += 1
            self._m_deletes.inc()
        yield from self._respond(endpoint, request,
                                 DELETED if found else NOT_FOUND, 0, {})

    # -- TOUCH ---------------------------------------------------------------

    def _handle_touch(self, request: TouchRequest, endpoint: Endpoint):
        """memcached's ``touch``: bump expiration + LRU, no data moved."""
        costs = self.config.costs
        yield self.sim.timeout(costs.hash_lookup)
        item = self.manager.lookup(request.key)
        if item is None:
            yield from self._respond(endpoint, request, NOT_FOUND, 0, {})
            return
        # A past deadline removes the item *now* (memcached semantics);
        # blindly assigning it would leave a dead item holding its slab
        # chunk and MRU slot until the next lookup happened to find it.
        if self.manager.set_expiration(item, request.expiration):
            yield self.sim.timeout(costs.lru_update)
            self.manager.touch(item)
        if self.handoff is not None:
            # Deadline changed (or a past deadline removed the item):
            # either way the migrated copy must reflect it.
            self._note_write(request.key)
        yield from self._respond(endpoint, request, TOUCHED, 0, {})

    # -- INCR / DECR ---------------------------------------------------------

    def _handle_counter(self, request: CounterRequest, endpoint: Endpoint):
        """incr/decr: in-place arithmetic, optional auto-create."""
        costs = self.config.costs
        stages: Dict[str, float] = {}
        t0 = self.sim.now
        yield self.sim.timeout(costs.hash_lookup)
        status, value, item = yield from self.manager.counter_op(
            request.key, request.delta, request.direction,
            initial=request.initial, expiration=request.expiration)
        stages["slab_alloc"] = self.sim.now - t0
        if self.handoff is not None and status == STORED:
            self._note_write(request.key)
        cas_token = 0
        value_length = 0
        if status == STORED and item is not None:
            cas_token = item.cas
            value_length = item.value_length
            t0 = self.sim.now
            yield self.sim.timeout(costs.lru_update)
            self.manager.touch(item)
            stages["cache_update"] = self.sim.now - t0
        if request.replica:
            self.stats.replica_applies += 1
            self._m_replica_applies.inc()
        else:
            self.stats.counters += 1
        for k, v in stages.items():
            self.stats.add_stage(k, v)
        yield from self._respond(endpoint, request, status, value_length,
                                 stages, cas_token=cas_token,
                                 counter_value=value)

    # -- GAT -----------------------------------------------------------------

    def _handle_gat(self, request: GatRequest, endpoint: Endpoint):
        """gat: a GET that also refreshes the item's deadline. A past
        deadline serves the value one last time, then removes the item."""
        costs = self.config.costs
        stages: Dict[str, float] = {}
        t0 = self.sim.now
        yield self.sim.timeout(costs.hash_lookup)
        item = self.manager.lookup(request.key)
        if item is not None:
            yield from self.manager.load_value(item)
        stages["cache_check_load"] = self.sim.now - t0
        self.stats.gats += 1
        if item is None:
            for k, v in stages.items():
                self.stats.add_stage(k, v)
            yield from self._respond(endpoint, request, MISS, 0, stages)
            return
        value_length, cas_token = item.value_length, item.cas
        if self.manager.set_expiration(item, request.expiration):
            t0 = self.sim.now
            yield self.sim.timeout(costs.lru_update)
            self.manager.touch(item)
            stages["cache_update"] = self.sim.now - t0
        if self.handoff is not None:
            self._note_write(request.key)
        for k, v in stages.items():
            self.stats.add_stage(k, v)
        yield from self._respond(endpoint, request, HIT, value_length,
                                 stages, cas_token=cas_token)

    # -- FLUSH ---------------------------------------------------------------

    def _handle_flush(self, request: FlushRequest, endpoint: Endpoint):
        """flush_all: stamp the invalidation epoch; reclaim stays lazy."""
        yield self.sim.timeout(self.config.costs.hash_lookup)
        self.manager.flush_all(request.delay)
        self.stats.flushes += 1
        yield from self._respond(endpoint, request, OK, 0, {})

    # -- STATS ---------------------------------------------------------------

    def _handle_stats(self, request: StatsRequest, endpoint: Endpoint):
        """memcached's ``stats``: ship a counter snapshot to the client."""
        yield self.sim.timeout(self.config.costs.response_prep)
        if not (self.alive and self.reachable):
            return
        snapshot = self.stats_snapshot()
        response = Response(req_id=request.req_id, op="stats", status="OK",
                            stats_payload=snapshot, sent_at=self.sim.now,
                            server_name=self.name)
        # ~100 bytes per counter line, like the text protocol.
        endpoint.send(response, response.header_bytes + 100 * len(snapshot),
                      one_sided=True)

    def stats_snapshot(self) -> Dict[str, float]:
        """The counters the ``stats`` command reports."""
        m = self.manager.stats
        snap: Dict[str, float] = {
            "cmd_set": self.stats.sets,
            "cmd_get": self.stats.gets,
            "get_hits": self.stats.get_hits,
            "get_misses": self.stats.get_misses,
            "cmd_delete": self.stats.deletes,
            "cmd_counter": self.stats.counters,
            "cmd_gat": self.stats.gats,
            "cmd_flush": self.stats.flushes,
            "expired_active": m.expired_active,
            "expired_passive": m.expired_passive,
            "replica_applies": self.stats.replica_applies,
            "curr_items": len(self.manager.table),
            "items_ram": self.manager.items_in_ram,
            "items_ssd": self.manager.items_on_ssd,
            "slab_flushes": m.flushes,
            "ssd_reads": m.ssd_reads,
            "promotions": m.promotions,
            "evictions": m.ram_evictions + m.dropped_items,
            "bytes_flushed": m.flushed_bytes,
        }
        if self.device is not None:
            snap["device_reads"] = self.device.stats.reads
            snap["device_writes"] = self.device.stats.writes
            snap["device_busy_time"] = self.device.stats.busy_time
        if self.obs.registry.enabled:
            # The live registry rides along under its fully-labelled keys
            # (``cmd_set{server="server0"}`` ...), so a ``stats`` client
            # sees the same data the observability exporters do.
            mine = []
            if self.device is not None:
                mine.append(f'device="{self.device.name}"')
            mine.append(f'server="{self.name}"')
            for key, value in self.obs.registry.flatten().items():
                if any(label in key for label in mine):
                    snap[key] = value
        return snap

    # -- response ----------------------------------------------------------------

    def _respond(self, endpoint: Endpoint, request: Request, status: str,
                 value_length: int, stages: Dict[str, float],
                 cas_token: int = 0, counter_value: int = 0):
        if not self.alive:
            return  # crashed mid-request: the response never forms
        sim = self.sim
        prof = self.obs.profiler
        ptid = request.trace_id if prof.enabled else None
        px = ("replica." if getattr(request, "replica", False) else "")
        t_prep = sim._now
        response_prep = self.config.costs.response_prep
        yield sim.timeout(response_prep)
        if ptid is not None:
            prof.record(ptid, px + "server_cpu", t_prep, sim._now)
        if not (self.alive and self.reachable):
            return  # died or partitioned during prep: response dropped
        # The handler's ``stages`` dict is handed over as-is: every
        # caller is done mutating it by this point, and it dies with the
        # response on the client side (no copy on the per-op path).
        response = Response(req_id=request.req_id, op=request.op,
                            status=status, value_length=value_length,
                            stages=stages, sent_at=sim._now,
                            server_name=self.name, cas_token=cas_token,
                            counter_value=counter_value,
                            origin=self.index if request.forwarded else -1)
        nbytes = RESPONSE_HEADER_BYTES + value_length
        # GET responses carry the value via an RDMA write into the
        # client's buffer (one-sided); on IPoIB this degrades to a stream
        # send, both exactly as in the respective real designs.
        msg = endpoint.send(response, nbytes, one_sided=True)
        if ptid is not None:
            profile_message(prof, ptid, prof.clock, msg, px)
        self.stats.add_stage("server_response", response_prep)

    # -- experiment setup ------------------------------------------------------

    def reset_metrics(self) -> None:
        """Zero the run-scoped counters (cache contents are untouched),
        so back-to-back runs on one cluster don't bleed into each other."""
        self.stats = ServerStats()
        self.manager.reset_metrics()
        if self.device is not None:
            self.device.reset_metrics()

    def preload(self, pairs) -> int:
        """Insert ``(key, value_length[, expiration, numeric])`` tuples
        in zero simulated time."""
        n = 0
        for entry in pairs:
            self.manager.preload(*entry)
            n += 1
        return n
