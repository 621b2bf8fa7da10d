"""Macro benchmark: a full 4-server cluster running a YCSB workload.

Where ``bench_engine.py`` times the substrate's primitives in isolation,
this times the whole stack — RDMA verbs, hybrid slab manager, SSD model,
non-blocking client windowing — under a realistic key-value workload,
and reports the engine's *events per wall-clock second* alongside wall
time. Events/sec is the number that caps how large a cluster and
workload the paper's figures can be reproduced at; track it across PRs.

Each row also records the run's *simulated* p99 latency in
``extra_info`` — the simulator is deterministic, so unlike wall time it
must match the committed baseline exactly on any machine. The profiled
variant additionally writes the per-class stage-breakdown JSON
(``$MACRO_PROFILE_JSON``, default ``macro-profile.json``) for the CI
artifact, and quantifies the profiling overhead against the unprofiled
row.
"""

import json
import os
from pathlib import Path

from repro.core.cluster import ClusterSpec
from repro.core.profiles import H_RDMA_OPT_NONB_I
from repro.harness.runner import RunConfig
from repro.units import KB, MB
from repro.workloads.generator import WorkloadSpec
from repro.workloads.ycsb import CORE_WORKLOADS, generate_ycsb_ops

NUM_SERVERS = 4
NUM_CLIENTS = 4
OPS_PER_CLIENT = 500
NUM_KEYS = 2048
VALUE_LEN = 8 * KB

# The paper's full-scale testbed: 32 servers, 100 concurrent clients
# (SC'16 §V). Fewer ops per client than the 4x4 row keeps the wall
# time CI-sized while the topology (3200 connections, 32-way key
# distribution) is the real thing.
PAPER_SERVERS = 32
PAPER_CLIENTS = 100
PAPER_OPS = 40
PAPER_KEYS = 8192
PAPER_VALUE = 4 * KB


def _ycsb_cluster_run(profile: bool = False):
    spec = WorkloadSpec(num_ops=OPS_PER_CLIENT, num_keys=NUM_KEYS,
                        value_length=VALUE_LEN, seed=42)
    cluster_spec = ClusterSpec(num_servers=NUM_SERVERS,
                               num_clients=NUM_CLIENTS,
                               server_mem=16 * MB, ssd_limit=64 * MB,
                               profile=profile)
    cfg = RunConfig(profile=H_RDMA_OPT_NONB_I, workload=spec,
                    cluster=cluster_spec)
    cluster = cfg.build()
    workload = CORE_WORKLOADS["A"]
    streams = [generate_ycsb_ops(workload, OPS_PER_CLIENT, NUM_KEYS,
                                 VALUE_LEN, seed=42, client_index=i)
               for i in range(NUM_CLIENTS)]
    result = cfg.run_streams(streams, cluster=cluster)
    return result, cluster


def test_macro_ycsb_cluster(benchmark):
    """4 servers x 4 clients, YCSB-A, hybrid non-blocking profile."""
    last = {}

    def run():
        result, cluster = _ycsb_cluster_run()
        last["result"] = result
        return len(result.records), cluster.sim.events_processed

    records, events = benchmark(run)
    assert records == NUM_CLIENTS * OPS_PER_CLIENT
    assert events > 0
    stats = benchmark.stats.stats
    benchmark.extra_info["events_per_run"] = events
    benchmark.extra_info["events_per_sec_mean"] = events / stats.mean
    benchmark.extra_info["events_per_sec_best"] = events / stats.min
    benchmark.extra_info["p99_latency_s"] = (
        last["result"].summary["p99_latency"])
    print(f"\n  {events} events/run; "
          f"{events / stats.min:,.0f} events/sec (best), "
          f"{events / stats.mean:,.0f} events/sec (mean); "
          f"sim p99 {last['result'].summary['p99_latency'] * 1e6:.1f} us")


def test_macro_ycsb_profiled(benchmark):
    """The same macro run with causal profiling on (sample every
    request) — its events/sec delta against the row above is the
    profiling overhead, and its report is the CI profile artifact."""
    last = {}

    def run():
        result, cluster = _ycsb_cluster_run(profile=True)
        last["result"] = result
        return len(result.records), cluster.sim.events_processed

    records, events = benchmark(run)
    assert records == NUM_CLIENTS * OPS_PER_CLIENT
    result = last["result"]
    report = result.profile
    assert report is not None and report.finished > 0
    # Shape checks (deterministic): RAM-hit requests are network-bound,
    # SSD-path requests are device-bound.
    ram = report.classes["get:ram"].mean_breakdown()
    assert ram.get("nic", 0.0) + ram.get("wire", 0.0) > ram.get("ssd", 0.0)
    for cls, sk in report.classes.items():
        if cls.endswith(":ssd") and cls.startswith("get"):
            bd = sk.mean_breakdown()
            assert max(bd, key=bd.get) == "ssd"
    stats = benchmark.stats.stats
    benchmark.extra_info["events_per_run"] = events
    benchmark.extra_info["events_per_sec_mean"] = events / stats.mean
    benchmark.extra_info["events_per_sec_best"] = events / stats.min
    benchmark.extra_info["p99_latency_s"] = result.summary["p99_latency"]
    out = Path(os.environ.get("MACRO_PROFILE_JSON", "macro-profile.json"))
    out.write_text(json.dumps({
        "config": {"servers": NUM_SERVERS, "clients": NUM_CLIENTS,
                   "ops_per_client": OPS_PER_CLIENT, "workload": "YCSB-A"},
        "p99_latency_s": result.summary["p99_latency"],
        "p50_latency_s": result.summary["p50_latency"],
        "profile": report.to_dict(),
    }, indent=2))
    print(f"\n  wrote {out}; "
          f"{events / stats.min:,.0f} events/sec (best, profiled)")


def _paper_scale_cfg(profile, num_clients=PAPER_CLIENTS, **kw):
    return RunConfig(
        profile=profile,
        workload=WorkloadSpec(num_ops=PAPER_OPS, num_keys=PAPER_KEYS,
                              value_length=PAPER_VALUE, seed=42),
        cluster=ClusterSpec(num_servers=PAPER_SERVERS,
                            num_clients=num_clients,
                            server_mem=4 * MB, ssd_limit=16 * MB),
        ycsb="A", **kw)


def _record_throughput(benchmark, events, result):
    stats = benchmark.stats.stats
    benchmark.extra_info["events_per_run"] = events
    benchmark.extra_info["events_per_sec_mean"] = events / stats.mean
    benchmark.extra_info["events_per_sec_best"] = events / stats.min
    benchmark.extra_info["p99_latency_s"] = result.summary["p99_latency"]
    print(f"\n  {events} events/run; "
          f"{events / stats.min:,.0f} events/sec (best); "
          f"sim p99 {result.summary['p99_latency'] * 1e6:.1f} us")


def test_macro_paper_scale(benchmark):
    """The paper's 32-server x 100-client YCSB-A testbed, single
    simulator, hybrid non-blocking profile — the scale the figures
    were measured at."""
    last = {}

    def run():
        result = _paper_scale_cfg(H_RDMA_OPT_NONB_I).run()
        last["result"] = result
        return len(result.records), result.events_processed

    records, events = benchmark(run)
    assert records == PAPER_CLIENTS * PAPER_OPS
    _record_throughput(benchmark, events, last["result"])


def test_macro_stretch_1k_clients(benchmark):
    """Stretch row: 1024 simulated clients against 32 servers (32k
    connections). Tracks whether client-count scaling stays linear in
    events/sec as the hot-path work grows."""
    last = {}

    def run():
        cfg = _paper_scale_cfg(H_RDMA_OPT_NONB_I, num_clients=1024)
        cfg.workload = WorkloadSpec(num_ops=4, num_keys=PAPER_KEYS,
                                    value_length=1 * KB, seed=42)
        result = cfg.run()
        last["result"] = result
        return len(result.records), result.events_processed

    records, events = benchmark(run)
    assert records == 1024 * 4
    _record_throughput(benchmark, events, last["result"])
