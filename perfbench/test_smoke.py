"""Smoke tests of the benchmark itself, at a tiny size.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import ledger
import run

sys.path.insert(0, str(run.SRC))

import suite  # noqa: E402

#: Ops per client are divided by this: every workload runs in seconds.
SCALE = 20

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(suite.WORKLOADS))
def traced(request):
    """One tiny traced run per workload: ``(name, result, report)``."""
    result, report, spans = run.run(request.param, seed=1, seconds=0, trace=True,
                                    scale=SCALE)
    return request.param, result, report, spans


def test_benchmark_json_names_the_suite():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: wl.why for name, wl in suite.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        k: u for k, (u, _) in run.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("name", sorted(suite.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    result, report, spans = run.run(name, seed=1, seconds=0, trace=False, scale=SCALE)
    assert spans is None
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert report["rounds"] == run.MIN_ROUNDS
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0, m["name"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert report["provenance"]["nproc"] >= 1


def test_traced_run_emits_every_per_layer_metric(traced):
    name, result, report, spans = traced
    assert result["correct"], report["problems"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["sim.host_self_s"] > 0 and metrics["sim.calls"] > 0
    assert metrics["trace.overhead_frac"] > 0
    steps = [s for s in spans.records if s.name.startswith("client.")]
    assert steps and all(s.req_id is not None and s.end >= s.start for s in steps)


def test_workloads_stress_separate_layers(traced):
    name, result, report, _ = traced
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if name == "paper-ycsb-a":
        assert m["storage.device_reads_per_op"] == 0
        assert m["server.flushes_per_kop"] == 0
    elif name == "ssd-spill":
        assert m["server.ssd_get_frac"] > 0
        assert m["client.overlap_pct"] > 50
    else:
        assert m["server.flushes_per_kop"] > 0
        assert report["set_frac"] >= 0.8
        assert m["client.overlap_pct"] == 0


def test_host_speed_window_takes_out_the_slices_inside_it():
    host = ledger.HostSpeed()
    ref = ledger.REFERENCE_S
    host.slices = [(1.0, 1.0 + ref), (2.0, 2.0 + 2 * ref), (9.0, 9.0 + 4 * ref)]
    work, speed = host.window(0.5, 3.0)
    assert work == pytest.approx(2.5 - 3 * ref)
    assert speed == pytest.approx((1 + 1 / 2) / 2)
    work, speed = host.window(3.0, 3.01)  # no slice inside: every slice's speed
    assert work == pytest.approx(0.01) and speed == pytest.approx((1 + 1 / 2 + 1 / 4) / 3)
    assert ledger.HostSpeed().window(0.0, 1.0) == (1.0, 1.0)


def test_calibrated_round_times_every_span_and_keeps_its_behaviour():
    wl = suite.WORKLOADS["paper-ycsb-a"]
    plain = suite.run_round(wl, seed=3, scale=SCALE)
    calibrated = suite.run_round(wl, seed=3, scale=SCALE, calibrate=True)
    assert calibrated.fingerprint == plain.fingerprint
    assert len(calibrated.calibration) == wl.segments + 1
    assert all(work > 0 and speed > 0 for work, speed in calibrated.calibration)
    assert plain.calibration == [(work, 1.0) for work, _ in plain.calibration]


def test_same_seed_repeats_and_another_seed_differs():
    wl = suite.WORKLOADS["write-flush"]
    a, b = (suite.run_round(wl, seed=3, scale=SCALE) for _ in range(2))
    c = suite.run_round(wl, seed=4, scale=SCALE)
    assert a.fingerprint == b.fingerprint and a.sim == b.sim
    assert c.fingerprint != a.fingerprint


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ssd-spill", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert out.stdout == ""
