"""The benchmark's workloads and one measured round of each.

A round builds a fresh cluster through the public API, preloads it,
generates the op streams from the seed, runs the warm-up streams (if
any) and then the measured streams. Every phase is a span on the
round's :class:`~ledger.Spans`, so host time per phase comes from the
same record whether or not the round is traced. The cluster under test
receives only the generated streams.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.client.request import ReqResult
from repro.core import metrics
from repro.core.cluster import Cluster, ClusterSpec, build_cluster
from repro.core.profiles import H_RDMA_OPT_BLOCK, H_RDMA_OPT_NONB_I, DesignProfile
from repro.core.topology import TopologyConfig
from repro.harness.runner import DEFAULT_WINDOW, RunConfig
from repro.storage.params import NVME_SSD, PageCacheParams
from repro.units import KB, MB
from repro.workloads.generator import WorkloadSpec, generate_ops, make_dataset
from repro.workloads.ycsb import CORE_WORKLOADS, generate_ycsb_ops

from ledger import HostSpeed, Spans

#: Statuses that count as a served operation: the client API's own
#: success set plus a plain cache miss.
SERVED = ReqResult._OK | {"MISS"}

#: Warm-up streams use the same offset as ``RunConfig.run`` so their
#: draws are decorrelated from the measured draws of the same seed.
WARMUP_OFFSET = 0xABCD

#: Stream offset per run seed; larger than any client's stream offset
#: (``7919 * client_index``) plus ``WARMUP_OFFSET``, so no two
#: (seed, client, phase) triples share a draw sequence.
SEED_STRIDE = 1_000_003

#: The round's phases before the measured streams.
SETUP_PHASES = ("core.build", "core.preload", "workloads.gen", "harness.warmup")


def _cluster(servers: int, clients: int, server_mem: int, ssd_limit: int,
             **kw) -> ClusterSpec:
    """One server per node, one client per node, no replication."""
    return ClusterSpec(topology=TopologyConfig(initial_servers=servers),
                       num_clients=clients, client_nodes=clients,
                       server_mem=server_mem, ssd_limit=ssd_limit, **kw)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a cluster shape plus a traffic mix."""

    name: str
    why: str
    profile: DesignProfile
    cluster: ClusterSpec
    #: Traffic mix. Its ``seed`` fixes the dataset (each key's value
    #: size and the hot-key ranking); the run's seed picks the streams.
    spec: WorkloadSpec
    #: YCSB core workload letter for the measured streams, or None for
    #: the generic generator.
    ycsb: Optional[str] = None
    #: Per-client warm-up ops run (and discarded) before measuring.
    warmup_ops: int = 0
    #: Consecutive timed slices the measured streams run in.
    segments: int = 1

    def scaled(self, scale: int = 1) -> WorkloadSpec:
        """The traffic mix with ``1/scale`` of the ops per client."""
        return dataclasses.replace(self.spec,
                                   num_ops=max(1, self.spec.num_ops // scale))


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="paper-ycsb-a",
        why="paper scale, 32 servers x 100 iset/iget clients, YCSB-A 4 KB in RAM: "
            "sim/net/client/server request handling at scale, storage idle",
        profile=H_RDMA_OPT_NONB_I,
        cluster=_cluster(32, 100, server_mem=4 * MB, ssd_limit=16 * MB),
        spec=WorkloadSpec(num_ops=100, num_keys=8192, value_length=4 * KB),
        ycsb="A", segments=2),
    Workload(
        name="ssd-spill",
        why="dataset 2.4x RAM, 95% zipf GETs of 4/16/64 KB: ~30% served from SSD "
            "via mmap and cached I/O, promotions, overlapped by iget",
        profile=H_RDMA_OPT_NONB_I,
        cluster=_cluster(4, 2, server_mem=8 * MB, ssd_limit=256 * MB,
                         device=NVME_SSD),
        spec=WorkloadSpec(num_ops=16000, num_keys=4096, value_length=16 * KB,
                          read_fraction=0.95, theta=0.9,
                          value_sizes=((4 * KB, 0.5), (16 * KB, 0.3),
                                       (64 * KB, 0.2))),
        warmup_ops=4000, segments=4),
    Workload(
        name="write-flush",
        why="dataset 4x RAM, 90% uniform 32 KB SETs from 32 blocking clients: "
            "slab allocation, RAM eviction and SSD slab flushes",
        profile=H_RDMA_OPT_BLOCK,
        cluster=_cluster(4, 32, server_mem=8 * MB, ssd_limit=512 * MB,
                         device=NVME_SSD,
                         pagecache=PageCacheParams(size_bytes=16 * MB)),
        spec=WorkloadSpec(num_ops=1000, num_keys=4096, value_length=32 * KB,
                          read_fraction=0.1, distribution="uniform"),
        warmup_ops=64, segments=4),
)}


def fingerprint(records, events: int) -> str:
    """Simulated-behaviour fingerprint: events per run plus a hash of
    every record's ``(op, status, t_issue, t_complete)``."""
    h = hashlib.sha256()
    for r in records:
        h.update(f"{r.op},{r.status},{r.t_issue!r},{r.t_complete!r};".encode())
    return f"{events}:{h.hexdigest()[:16]}"


def _nics(cluster: Cluster):
    params = (cluster.spec.rdma_params if cluster.profile.rdma
              else cluster.spec.ipoib_params)
    return [node.nic(params) for node in cluster.fabric.nodes.values()]


def _lifetime_counters(cluster: Cluster) -> Dict[str, float]:
    """NIC and page-cache counters, which count from cluster build (the
    round takes their deltas over the measured streams)."""
    nics = _nics(cluster)
    caches = [s.manager.pagecache for s in cluster.servers
              if s.manager.pagecache is not None]
    return {
        "msgs": sum(n.messages_sent for n in nics),
        "bytes": sum(n.bytes_sent for n in nics),
        "pc_hit": sum(c.stats.hit_bytes for c in caches),
        "pc_miss": sum(c.stats.miss_bytes for c in caches),
    }


def _run_counters(cluster: Cluster) -> Dict[str, float]:
    """Server, slab-manager and device counters, which every
    ``run_streams`` call zeroes (the round sums them per segment)."""
    mgr = [s.manager.stats for s in cluster.servers]
    dev = [s.device.stats for s in cluster.servers if s.device is not None]
    return {
        "lookups": sum(m.lookups for m in mgr),
        "hits": sum(m.hits for m in mgr),
        "ssd_reads": sum(m.ssd_reads for m in mgr),
        "flushes": sum(m.flushes for m in mgr),
        "promotions": sum(m.promotions for m in mgr),
        "server_busy_s": sum(s.stats.busy_time for s in cluster.servers),
        "device_reads": sum(d.reads for d in dev),
        "device_writes": sum(d.writes for d in dev),
        "device_bytes_written": sum(d.bytes_written for d in dev),
        "device_busy_s": sum(d.busy_time for d in dev),
    }


@dataclass
class Round:
    """What one round measured."""

    attempted: int
    failed: int
    fingerprint: str
    #: Deterministic simulated metrics and counts.
    sim: Dict[str, float]
    #: Host seconds per phase (span name -> seconds).
    phases: Dict[str, float]
    #: ``(ops, host seconds)`` of each measured segment.
    segments: List[Tuple[int, float]]
    #: Simulator events processed by the measured streams.
    measured_events: int
    #: ``(host seconds less reference slices, host speed)`` of set-up,
    #: then of each segment (see :class:`ledger.HostSpeed`); the raw
    #: seconds at speed 1.0 when the round was not calibrated.
    calibration: List[Tuple[float, float]]

    @property
    def setup_s(self) -> float:
        return sum(self.phases[name] for name in SETUP_PHASES)

    @property
    def measure_s(self) -> float:
        return sum(wall for _, wall in self.segments)

    @property
    def calibrated_setup_s(self) -> float:
        """``setup_s`` at host speed 1.0."""
        work, speed = self.calibration[0]
        return work * speed

    @property
    def calibrated_ops_per_s(self) -> List[float]:
        """Ops per host second of each segment at host speed 1.0."""
        return [ops / (work * speed) for (ops, _), (work, speed)
                in zip(self.segments, self.calibration[1:])]


def run_round(wl: Workload, seed: int, scale: int = 1,
              spans: Optional[Spans] = None, calibrate: bool = False) -> Round:
    """Build, preload, generate, warm up and measure one fresh cluster.

    The measured streams run as ``wl.segments`` consecutive
    ``run_streams`` calls (every client finishes one slice of its
    stream before any starts the next), each timed on its own: one
    round gives several host-time samples. ``spans`` may carry
    client-API wrapping (see :meth:`ledger.Spans.wrap_client_api`).
    With ``calibrate``, reference slices interleave with set-up and
    the segments and give their host speed (:class:`ledger.HostSpeed`).
    """
    spans = spans if spans is not None else Spans()
    spec = wl.scaled(scale)
    offset = seed * SEED_STRIDE
    warmup = wl.warmup_ops // scale
    host = HostSpeed()
    gc.collect()
    with host if calibrate else contextlib.nullcontext(), spans.span("round"):
        with spans.span("core.build"):
            cluster = build_cluster(wl.profile, spec=dataclasses.replace(wl.cluster),
                                    value_length_for=spec.value_length_for)
        with spans.span("core.preload"):
            cluster.preload(make_dataset(spec))
        with spans.span("workloads.gen"):
            n = len(cluster.clients)
            warm_spec = dataclasses.replace(spec, num_ops=max(1, warmup))
            warm = ([generate_ops(warm_spec, client_index=i,
                                  stream_offset=offset + WARMUP_OFFSET)
                     for i in range(n)] if warmup else [])
            if wl.ycsb:
                streams = [generate_ycsb_ops(CORE_WORKLOADS[wl.ycsb], spec.num_ops,
                                             spec.num_keys, spec.value_length,
                                             seed=seed, client_index=i)
                           for i in range(n)]
            else:
                streams = [generate_ops(spec, client_index=i, stream_offset=offset)
                           for i in range(n)]
        cfg = RunConfig(profile=wl.profile, workload=spec, window=DEFAULT_WINDOW)
        with spans.span("harness.warmup"):
            if warm:
                cfg.run_streams(warm, cluster=cluster)
        k = wl.segments
        slices = [[s[len(s) * j // k:len(s) * (j + 1) // k] for s in streams]
                  for j in range(k)]
        before = _lifetime_counters(cluster)
        events0 = cluster.sim.events_processed
        records, totals, segments = [], {}, []
        calibration = []
        gc.collect()
        with spans.span("harness.measure"):
            for part in slices:
                t0 = time.perf_counter()
                result = cfg.run_streams(part, cluster=cluster)
                t1 = time.perf_counter()
                segments.append((sum(len(s) for s in part), t1 - t0))
                calibration.append(host.window(t0, t1))
                records.extend(result.records)
                for name, v in _run_counters(cluster).items():
                    totals[name] = totals.get(name, 0) + v
        measured_events = cluster.sim.events_processed - events0
        after = _lifetime_counters(cluster)
    attempted = sum(len(s) for s in streams)
    failed = (attempted - len(records)
              + sum(1 for r in records if r.status not in SERVED))
    totals.update({name: after[name] - before[name] for name in after})
    totals["devices"] = sum(1 for s in cluster.servers if s.device is not None)
    sim = _simulated(records, measured_events, totals)
    sim["set_frac"] = sum(1 for s in streams for op in s
                          if op.kind == "set") / attempted
    timed = {s.name: s for s in spans.records
             if s.parent is not None and spans.records[s.parent].name == "round"}
    phases = {name: s.end - s.start for name, s in timed.items()}
    calibration.insert(0, host.window(timed[SETUP_PHASES[0]].start,
                                      timed[SETUP_PHASES[-1]].end))
    return Round(attempted=attempted, failed=failed,
                 fingerprint=fingerprint(records, result.events_processed),
                 sim=sim, phases=phases, segments=segments,
                 measured_events=measured_events, calibration=calibration)


def _simulated(records, events: int, c: Dict[str, float]) -> Dict[str, float]:
    """Every simulated metric and count of the measured streams, from
    their records and the summed counters ``c``."""
    ops = len(records)
    out: Dict[str, float] = {"ops": ops, "events": events}
    for op in ("get", "set"):
        recs = metrics.filter_records(records, op=op)
        out[f"{op}_n"] = len(recs)
        if recs:
            out[f"{op}_p50_us"] = metrics.percentile_latency(recs, 50) * 1e6
            p99 = metrics.percentile_latency(recs, 99)
            out[f"{op}_p99_us"] = p99 * 1e6
            out[f"{op}_p99_beyond"] = sum(1 for r in recs if r.latency > p99)
    out["get_miss_frac"] = (sum(1 for r in records if r.status == "MISS") / out["get_n"]
                            if out["get_n"] else 0.0)
    out["ops_per_s"] = metrics.throughput(records)
    out["overlap_pct"] = metrics.overlap_percent(records)
    out["blocked_us_per_op"] = metrics.mean_blocked(records) * 1e6
    stages = metrics.stage_breakdown(records)
    for stage, name in (("slab_alloc", "slab_alloc_us"),
                        ("cache_check_load", "cache_check_load_us"),
                        ("cache_update", "cache_update_us"),
                        ("server_response", "response_us")):
        out[name] = stages[stage] * 1e6
    for name in ("flushes", "promotions", "ssd_reads", "server_busy_s",
                 "device_reads", "device_writes", "msgs", "bytes"):
        out[name] = c[name]
    span = max(r.t_complete for r in records) - min(r.t_issue for r in records)
    out["device_util"] = c["device_busy_s"] / (c["devices"] * span) if c["devices"] else 0.0
    out["ram_hit_ratio"] = ((c["hits"] - c["ssd_reads"]) / c["lookups"]
                            if c["lookups"] else 0.0)
    user_set_bytes = sum(r.value_length for r in records if r.op == "set")
    out["write_amp"] = (c["device_bytes_written"] / user_set_bytes
                        if user_set_bytes else 0.0)
    pc = c["pc_hit"] + c["pc_miss"]
    out["pagecache_hit_ratio"] = c["pc_hit"] / pc if pc else 0.0
    return out
