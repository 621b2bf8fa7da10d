#!/usr/bin/env python
"""Quickstart: a hybrid RDMA Memcached cluster in ~40 lines.

Builds one server with the paper's proposed design (adaptive I/O +
non-blocking API extensions), stores and fetches data with both the
blocking and the non-blocking APIs, and prints what each call cost.

Run:  python examples/quickstart.py
"""

from repro import profiles
from repro.core.cluster import ClusterSpec
from repro.core.topology import TopologyConfig
from repro.harness.runner import RunConfig
from repro.units import KB, MB, US


def main() -> None:
    cluster = RunConfig(
        profile=profiles.H_RDMA_OPT_NONB_I,  # the paper's proposed design
        cluster=ClusterSpec(
            topology=TopologyConfig(initial_servers=1),
            server_mem=64 * MB,
            ssd_limit=256 * MB,
        ),
    ).build()
    client = cluster.clients[0]
    sim = cluster.sim

    def app(sim):
        # --- blocking API (classic libmemcached) -----------------------
        # Outcomes are read via the uniform ReqResult snapshot.
        req = yield from client.set(b"greeting", 4 * KB)
        res = req.result()
        print(f"memcached_set       -> {res.status:8} "
              f"{res.latency / US:8.1f} us")
        res = (yield from client.get(b"greeting")).result()
        print(f"memcached_get       -> {res.status:8} "
              f"{res.latency / US:8.1f} us ({res.value_length} bytes, "
              f"hit={res.hit})")

        # --- non-blocking extensions (Section IV) ----------------------
        # iset returns immediately; buffers must not be reused until a
        # successful wait/test.
        reqs = []
        for i in range(32):
            r = yield from client.iset(f"chunk:{i}".encode(), 32 * KB)
            reqs.append(r)
        print(f"issued {len(reqs)} isets, client blocked only "
              f"{sum(r.blocked_time for r in reqs) / US:.1f} us so far")

        # ... the application could compute here while transfers and
        # slab management proceed on the server ...

        yield from client.wait_all(reqs)
        done = sum(1 for r in reqs if r.result().ok)
        print(f"memcached_wait x{len(reqs)}  -> {done} stored")

        # bget guarantees the key buffer is reusable at return.
        req = yield from client.bget(b"chunk:7")
        print(f"memcached_bget      -> returned with buffer_safe="
              f"{req.buffer_safe.triggered}, done={req.done}")
        yield from client.wait(req)
        res = req.result()
        print(f"after wait          -> {res.status}, "
              f"{res.value_length // KB} KB in {res.latency / US:.1f} us "
              f"(client blocked {res.blocked_time / US:.1f} us, "
              f"overlap {req.overlap_fraction:.0%})")

    sim.spawn(app(sim))
    cluster.run()

    server = cluster.servers[0]
    print(f"\nserver state: {len(server.manager.table)} items, "
          f"{server.manager.items_in_ram} in RAM, "
          f"{server.manager.items_on_ssd} on SSD, "
          f"{server.manager.stats.flushes} slab flushes")


if __name__ == "__main__":
    main()
