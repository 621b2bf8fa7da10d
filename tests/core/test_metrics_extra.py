"""Tests for histogram/CDF metrics and wait timeouts."""

import pytest

from repro.client.request import OpRecord
from repro.core import metrics


def rec(latency):
    return OpRecord(op="get", api="get", key_length=8, value_length=10,
                    status="HIT", t_issue=0.0, t_complete=latency,
                    blocked_time=latency)


class TestHistogram:
    def test_counts_sum_to_records(self):
        recs = [rec(10 ** -i) for i in range(1, 6)] * 3
        hist = metrics.latency_histogram(recs, buckets=8)
        assert sum(c for _, c in hist) == len(recs)

    def test_bounds_monotone(self):
        recs = [rec(x * 1e-6) for x in (1, 5, 20, 100, 900)]
        hist = metrics.latency_histogram(recs)
        bounds = [b for b, _ in hist]
        assert bounds == sorted(bounds)
        assert bounds[-1] == pytest.approx(900e-6)

    def test_single_value(self):
        hist = metrics.latency_histogram([rec(1e-3)] * 5)
        assert hist == [(1e-3, 5)]

    def test_empty_and_validation(self):
        assert metrics.latency_histogram([]) == []
        with pytest.raises(ValueError):
            metrics.latency_histogram([rec(1)], buckets=0)


class TestCdf:
    def test_percentile_points(self):
        recs = [rec((i + 1) * 1e-6) for i in range(1000)]
        cdf = metrics.latency_cdf(recs)
        assert cdf[50] == pytest.approx(500e-6, rel=0.01)
        assert cdf[99] == pytest.approx(990e-6, rel=0.01)
        assert cdf[99.9] <= 1000e-6

    def test_summary_percentiles_equal_single_percentiles(self):
        # summarize() sorts once for all three points; the values must
        # be exactly the per-point nearest-rank percentiles.
        recs = [rec(((i * 7919) % 1013 + 1) * 1e-6) for i in range(1013)]
        summary = metrics.summarize(recs)
        for q in (50, 95, 99):
            assert summary[f"p{q}_latency"] == metrics.percentile_latency(recs, q)
        assert metrics.summarize([])["p99_latency"] == 0.0


class TestWaitTimeout:
    def test_wait_times_out_then_completes_later(self):
        from repro import build_cluster, profiles
        from repro.units import KB, MB, US

        cluster = build_cluster(profiles.H_RDMA_OPT_NONB_I,
                                server_mem=16 * MB, ssd_limit=64 * MB)
        client = cluster.clients[0]
        out = {}

        def app(sim):
            req = yield from client.iset(b"key", 256 * KB)
            # 1 µs is far too short for a 256 KB transfer.
            r = yield from client.wait(req, timeout=1 * US)
            out["after_timeout"] = r.done
            yield from client.wait(req)  # no timeout: completes
            out["final"] = req.status

        cluster.sim.run(until=cluster.sim.spawn(app(cluster.sim)))
        assert out["after_timeout"] is False
        assert out["final"] == "STORED"

    def test_wait_with_ample_timeout_behaves_normally(self):
        from repro import build_cluster, profiles
        from repro.units import KB, MB

        cluster = build_cluster(profiles.H_RDMA_OPT_NONB_I,
                                server_mem=16 * MB, ssd_limit=64 * MB)
        client = cluster.clients[0]

        def app(sim):
            req = yield from client.iset(b"key", 4 * KB)
            r = yield from client.wait(req, timeout=1.0)
            assert r.done and r.status == "STORED"

        cluster.sim.run(until=cluster.sim.spawn(app(cluster.sim)))
        assert len(client.records) == 1
