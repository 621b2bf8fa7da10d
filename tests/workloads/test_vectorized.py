"""Vectorized generation must reproduce the per-op-loop streams exactly.

The vectorized ``generate_ops`` / ``generate_ycsb_ops`` draw from the
same RNG streams in the same order as the original loops (kept as
``_generate_ops_ref`` / ``_generate_ycsb_ops_ref``), so every generated
stream must match op-for-op, field-for-field.
"""

import pickle

import numpy as np
import pytest

from repro.units import KB
from repro.workloads.generator import (
    Op,
    WorkloadSpec,
    _generate_ops_ref,
    generate_ops,
    make_dataset,
)
from repro.workloads.keyspace import Keyspace
from repro.workloads.ycsb import (
    CORE_WORKLOADS,
    YCSBWorkload,
    _generate_ycsb_ops_ref,
    generate_ycsb_ops,
)


class TestGenerateOpsEquivalence:
    @pytest.mark.parametrize("pattern", ["basic", "counter", "ttl-churn",
                                         "hot-storm"])
    @pytest.mark.parametrize("distribution", ["zipf", "uniform"])
    def test_patterns_match_reference(self, pattern, distribution):
        spec = WorkloadSpec(num_ops=400, num_keys=128, value_length=256,
                            read_fraction=0.6, distribution=distribution,
                            seed=7, pattern=pattern, ttl=0.02)
        for ci in (0, 1, 3):
            assert generate_ops(spec, client_index=ci) == \
                _generate_ops_ref(spec, client_index=ci)

    def test_stream_offset_and_size_mixture(self):
        spec = WorkloadSpec(num_ops=300, num_keys=64, value_length=1 * KB,
                            seed=3, value_sizes=((512, 0.8), (4 * KB, 0.2)))
        assert generate_ops(spec, client_index=2, stream_offset=13) == \
            _generate_ops_ref(spec, client_index=2, stream_offset=13)

    def test_read_fraction_extremes(self):
        for rf in (0.0, 1.0):
            spec = WorkloadSpec(num_ops=100, num_keys=32, value_length=64,
                                read_fraction=rf, seed=11)
            assert generate_ops(spec) == _generate_ops_ref(spec)


class TestGenerateYcsbEquivalence:
    @pytest.mark.parametrize("name", sorted(CORE_WORKLOADS))
    def test_core_workloads_match_reference(self, name):
        wl = CORE_WORKLOADS[name]
        for ci in (0, 2):
            assert generate_ycsb_ops(wl, 400, 128, 512, seed=42,
                                     client_index=ci) == \
                _generate_ycsb_ops_ref(wl, 400, 128, 512, seed=42,
                                       client_index=ci)

    def test_latest_without_inserts_hits_fast_path(self):
        # A custom latest-skewed mix with no inserts exercises the
        # vectorized newest-first indexing.
        wl = YCSBWorkload("DL", read_fraction=0.9, update_fraction=0.1,
                          distribution="latest")
        assert generate_ycsb_ops(wl, 300, 64, 256, seed=5) == \
            _generate_ycsb_ops_ref(wl, 300, 64, 256, seed=5)


class TestHotStorm:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(num_ops=10, num_keys=8, value_length=8,
                         pattern="hot-storm", storm_fraction=1.5)
        with pytest.raises(ValueError):
            WorkloadSpec(num_ops=10, num_keys=8, value_length=8,
                         pattern="hot-storm", storm_phase_ops=0)

    def test_storm_concentrates_on_shared_key_per_phase(self):
        spec = WorkloadSpec(num_ops=400, num_keys=512, value_length=64,
                            seed=9, pattern="hot-storm",
                            storm_fraction=0.5, storm_phase_ops=100)
        streams = [generate_ops(spec, client_index=i) for i in range(3)]
        # Within each phase there is one storm key, identical across
        # clients, and it absorbs roughly storm_fraction of the ops.
        for phase in range(4):
            sl = slice(phase * 100, (phase + 1) * 100)
            top = []
            for ops in streams:
                keys = [op.key for op in ops[sl]]
                hot, count = max(((k, keys.count(k)) for k in set(keys)),
                                 key=lambda kv: kv[1])
                assert count >= 30  # ~50 expected of 100
                top.append(hot)
            assert len(set(top)) == 1, "clients must mob the same key"

    def test_storm_key_rotates_between_phases(self):
        spec = WorkloadSpec(num_ops=600, num_keys=4096, value_length=64,
                            seed=21, pattern="hot-storm",
                            storm_fraction=0.6, storm_phase_ops=200)
        ops = generate_ops(spec)
        hot_keys = []
        for phase in range(3):
            keys = [op.key for op in ops[phase * 200:(phase + 1) * 200]]
            hot_keys.append(max(set(keys), key=keys.count))
        assert len(set(hot_keys)) > 1, "storm key should rotate"

    def test_zero_storm_fraction_is_basic(self):
        base = WorkloadSpec(num_ops=200, num_keys=64, value_length=64,
                            seed=4)
        storm = WorkloadSpec(num_ops=200, num_keys=64, value_length=64,
                             seed=4, pattern="hot-storm",
                             storm_fraction=0.0)
        assert generate_ops(storm) == generate_ops(base)


class TestBulkKeyMaterialization:
    def test_keys_for_matches_scalar_key(self):
        ks = Keyspace(100)
        idx = np.array([3, 97, 3, 0, 42, 97])
        assert ks.keys_for(idx) == [ks.key(int(i)) for i in idx]

    def test_keys_for_bounds(self):
        ks = Keyspace(10)
        with pytest.raises(IndexError):
            ks.keys_for(np.array([0, 10]))
        with pytest.raises(IndexError):
            ks.keys_for(np.array([-1, 3]))
        assert ks.keys_for(np.array([], dtype=np.int64)) == []

    def test_make_dataset_unchanged(self):
        spec = WorkloadSpec(num_ops=10, num_keys=16, value_length=128,
                            seed=2, value_sizes=((64, 0.5), (256, 0.5)))
        ks = Keyspace(16)
        data = make_dataset(spec)
        assert [k for k, _ in data] == [ks.key(i) for i in range(16)]
        assert all(v in (64, 256) for _, v in data)


class TestSlots:
    def test_hot_dataclasses_have_no_dict(self):
        op = Op("get", b"k", 8)
        assert not hasattr(op, "__dict__")
        from repro.client.request import OpRecord, ReqResult
        rr = ReqResult(op="get", api="get", status="HIT", value_length=8,
                       latency=1e-6, blocked_time=0.0)
        assert not hasattr(rr, "__dict__")
        assert rr.ok and rr.hit
        rec = OpRecord(op="get", api="get", key_length=1, value_length=8,
                       status="HIT", t_issue=0.0, t_complete=1e-6,
                       blocked_time=0.0)
        assert not hasattr(rec, "__dict__")
        from repro.consistency.history import HistoryEvent
        ev = HistoryEvent(client="c0", req_id=1, op="get", api="get",
                          key="k", status="HIT", cas_token=0,
                          value_length=8, t_issue=0.0, t_complete=1.0,
                          server=0, user=True)
        assert not hasattr(ev, "__dict__")

    def test_op_still_pickles(self):
        # Slots must not cost picklability: op streams are plain data
        # a caller may save or hand to another process.
        op = Op("scan", b"key:0", 64, keys=(b"key:0", b"key:1"))
        assert pickle.loads(pickle.dumps(op)) == op
