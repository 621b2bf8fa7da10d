#!/usr/bin/env python
"""Bursty I/O scenario: a Memcached-based burst buffer (paper Sec IV-B).

HPC applications (e.g. checkpointing through a burst-buffer layer, the
BurstMem / HDFS-burst-buffer systems the paper cites) write and read
data in blocks; each block is split into chunks scattered over several
Memcached servers, and completion is guaranteed block-by-block — the
exact pattern of the paper's Listing 2.

With the blocking API every chunk round-trips before the next is sent.
With the non-blocking extensions the client issues all chunks of a
block back-to-back, overlaps them against server-side slab/SSD work,
and waits once per block.

Run:  python examples/bursty_io.py
"""

from repro import profiles
from repro.core.cluster import ClusterSpec
from repro.core.topology import TopologyConfig
from repro.harness.report import ascii_table, fmt_us
from repro.harness.runner import RunConfig
from repro.storage.params import NVME_SSD, PageCacheParams, SATA_SSD
from repro.units import KB, MB
from repro.workloads.bursty import BurstyWorkload

BLOCK = 8 * MB
CHUNK = 256 * KB
TOTAL = 128 * MB  # 4x the cluster's aggregate memory: forces SSD spill
NUM_SERVERS = 4
SERVER_MEM = 8 * MB


def run_case(profile, device, nonblocking):
    workload = BurstyWorkload(block_size=BLOCK, chunk_size=CHUNK,
                              total_bytes=TOTAL)
    cluster = RunConfig(profile=profile, cluster=ClusterSpec(
        topology=TopologyConfig(initial_servers=NUM_SERVERS),
        server_mem=SERVER_MEM, ssd_limit=128 * MB, device=device,
        pagecache=PageCacheParams(size_bytes=8 * MB))).build()
    client = cluster.clients[0]
    sim = cluster.sim
    write_times, read_times = [], []

    def app(sim):
        for b in range(workload.num_blocks):
            t0 = sim.now
            if nonblocking:
                yield from workload.write_block_nonblocking(client, b)
            else:
                yield from workload.write_block_blocking(client, b)
            write_times.append(sim.now - t0)
        for b in range(workload.num_blocks):
            t0 = sim.now
            if nonblocking:
                yield from workload.read_block_nonblocking(client, b)
            else:
                yield from workload.read_block_blocking(client, b)
            read_times.append(sim.now - t0)

    sim.run(until=sim.spawn(app(sim)))
    n = len(write_times)
    return {
        "device": device.name,
        "api": "non-blocking (iset/iget)" if nonblocking else "blocking",
        "avg block write": fmt_us(sum(write_times) / n),
        "avg block read": fmt_us(sum(read_times) / n),
        "write bandwidth": f"{TOTAL / sum(write_times) / 1e6:,.0f} MB/s",
    }


def main() -> None:
    rows = []
    for device in (SATA_SSD, NVME_SSD):
        rows.append(run_case(profiles.H_RDMA_OPT_BLOCK, device, False))
        rows.append(run_case(profiles.H_RDMA_OPT_NONB_I, device, True))
    print(ascii_table(
        rows,
        title=f"Burst buffer: {TOTAL // MB} MB in {BLOCK // MB} MB blocks "
              f"({CHUNK // KB} KB chunks over {NUM_SERVERS} servers)"))
    print(
        "\nThe non-blocking client issues a whole block's chunks at once "
        "(Listing 2),\nso chunk transfers, slab allocation, and SSD "
        "eviction on all servers overlap\ninstead of serializing behind "
        "one round trip per chunk."
    )


if __name__ == "__main__":
    main()
