"""Behaviour fingerprint gate: a small fixed config matrix, each run
pinned to a golden ``events_per_run`` and a SHA-256 of its per-op
records (and of its consistency history, on rows that record one).

The record hash covers every record's ``(op, status, t_issue,
t_complete)`` (the benchmark's own fingerprint, ``perfbench/suite.py``),
so any change to simulated timing, ordering or outcome fails here. The
event count is pinned too, so an engine change that adds or drops
events is a deliberate, reviewed edit of :data:`GOLDEN`.

Regenerate the table after an intended change with::

    PYTHONPATH=src python tests/test_fingerprint.py

and say in CHANGES.md which numbers moved and why. Record hashes
should not move for performance work.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.core.cluster import ClusterSpec, ReplicationConfig
from repro.core.profiles import FATCACHE, H_RDMA_OPT_NONB_I, IPOIB_MEM
from repro.core.topology import TopologyConfig
from repro.faults import FaultPlan
from repro.harness.runner import RunConfig
from repro.sim import Simulator
from repro.units import KB, MB, MS, US
from repro.workloads.generator import WorkloadSpec


def _cluster(servers: int, clients: int, **kw) -> ClusterSpec:
    kw.setdefault("server_mem", 16 * MB)
    kw.setdefault("ssd_limit", 64 * MB)
    return ClusterSpec(topology=TopologyConfig(initial_servers=servers),
                       num_clients=clients, **kw)


def _ycsb_a() -> RunConfig:
    return RunConfig(
        profile=H_RDMA_OPT_NONB_I, ycsb="A",
        workload=WorkloadSpec(num_ops=300, num_keys=1024, value_length=4 * KB,
                              seed=7),
        cluster=_cluster(4, 4))


def _ycsb_a_legacy_heap() -> RunConfig:
    # Same run on the heap-only scheduler: every same-instant event
    # takes a heap tie-break counter there instead of the FIFO lane.
    return dataclasses.replace(_ycsb_a(), sim=Simulator(fast_lane=False))


def _ipoib_blocking() -> RunConfig:
    return RunConfig(
        profile=IPOIB_MEM,
        workload=WorkloadSpec(num_ops=200, num_keys=512, value_length=8 * KB,
                              read_fraction=0.5, distribution="zipf", seed=5),
        cluster=_cluster(2, 2))


def _ssd_spill() -> RunConfig:
    # Dataset ~4x the RAM budget: GETs split between RAM and SSD.
    return RunConfig(
        profile=H_RDMA_OPT_NONB_I,
        workload=WorkloadSpec(num_ops=300, num_keys=1024, value_length=16 * KB,
                              read_fraction=0.9, theta=0.9, seed=3),
        cluster=_cluster(2, 2, server_mem=4 * MB))


def _replicated_sync() -> RunConfig:
    return RunConfig(
        profile=H_RDMA_OPT_NONB_I,
        workload=WorkloadSpec(num_ops=200, num_keys=512, value_length=4 * KB,
                              read_fraction=0.5, seed=9),
        cluster=_cluster(3, 2),
        replication=ReplicationConfig(factor=2, write_mode="sync",
                                      router="ketama"))


def _get_priority() -> RunConfig:
    return RunConfig(
        profile=H_RDMA_OPT_NONB_I,
        workload=WorkloadSpec(num_ops=200, num_keys=512, value_length=8 * KB,
                              read_fraction=0.5, seed=4),
        cluster=_cluster(2, 2, get_priority=True))


def _crash() -> RunConfig:
    return RunConfig(
        profile=H_RDMA_OPT_NONB_I,
        workload=WorkloadSpec(num_ops=200, num_keys=512, value_length=8 * KB,
                              read_fraction=0.5, distribution="zipf", seed=5),
        cluster=_cluster(4, 2, request_timeout=2 * MS,
                         retry_backoff=200 * US, failure_threshold=2,
                         replication=ReplicationConfig(router="ketama")),
        fault_plan=FaultPlan.parse(["crash:server=1,at=200us"]))


def _fatcache_crash_history() -> RunConfig:
    # IPoIB hybrid design, warm-up, a crash that restarts, history checked.
    return RunConfig(
        profile=FATCACHE,
        workload=WorkloadSpec(num_ops=80, num_keys=64, value_length=256,
                              read_fraction=0.5, seed=9),
        cluster=_cluster(3, 4, server_mem=1 * MB, ssd_limit=4 * MB, request_timeout=2 * MS),
        warmup_ops=20, check_consistency=True,
        fault_plan=FaultPlan.parse(["crash:server=1,at=200us,duration=1ms"]))


MATRIX = {
    "ycsb-a-4x4-nonb-i": _ycsb_a,
    "ycsb-a-4x4-legacy-heap": _ycsb_a_legacy_heap,
    "ipoib-blocking": _ipoib_blocking,
    "ssd-spill": _ssd_spill,
    "r2-sync": _replicated_sync,
    "get-priority": _get_priority,
    "crash-1-of-4": _crash,
    "fatcache-warmup-crash-history": _fatcache_crash_history,
}

#: name -> (events_per_run, records SHA-256 prefix[, history SHA-256 prefix]).
GOLDEN = {
    'crash-1-of-4': (11177, 'ffa210edd534384d'),
    'fatcache-warmup-crash-history': (9756, '9a6f8e4dc2835941', '90b40bca2d10e653'),
    'get-priority': (9923, 'cc181aa66af88ffb'),
    'ipoib-blocking': (8612, 'e007d55cd0a20e16'),
    'r2-sync': (14046, 'ecd441abfd3a2edb'),
    'ssd-spill': (14095, '5fe3b2e6df1a2d6e'),
    'ycsb-a-4x4-legacy-heap': (30301, '75e0252679c53f34'),
    'ycsb-a-4x4-nonb-i': (30301, '75e0252679c53f34'),
}


def fingerprint(cfg: RunConfig) -> tuple:
    cluster = cfg.build()
    result = cfg.run(cluster=cluster)
    h = hashlib.sha256()
    for r in result.records:
        h.update(f"{r.op},{r.status},{r.t_issue!r},{r.t_complete!r};".encode())
    fp = (cluster.sim.events_processed, h.hexdigest()[:16])
    if result.history is None:
        return fp
    assert result.consistency.ok, result.consistency
    history = "".join(f"{e!r};" for e in result.history)
    return fp + (hashlib.sha256(history.encode()).hexdigest()[:16],)


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_fingerprint_matches_golden(name):
    assert fingerprint(MATRIX[name]()) == GOLDEN[name]


if __name__ == "__main__":
    for name in sorted(MATRIX):
        print(f"    {name!r}: {fingerprint(MATRIX[name]())!r},")
