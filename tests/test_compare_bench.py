"""``compare_bench.py`` exits 1 when a macro row's ``events_per_run``
or simulated p99 differs from the baseline; wall clock is informational."""

import importlib.util
import json
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parent.parent / "benchmarks/compare_bench.py"
_spec = importlib.util.spec_from_file_location("compare_bench", _path)
compare_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_bench)

ROW = "test_macro_paper_scale"
BASELINE = {"macro": {ROW: {"after": {"min_s": 1.0}, "events_per_run": 1000,
                            "p99_latency_s": 0.000136}}}


@pytest.mark.parametrize("extra, rc", [
    ({}, 0),  # matches; the 3x wall-clock slowdown is only flagged
    ({"events_per_run": 1001}, 1),
    ({"p99_latency_s": 0.000137}, 1),
])
def test_exit_code_follows_deterministic_fields(tmp_path, capsys, extra, rc):
    info = {"events_per_run": 1000, "p99_latency_s": 0.000136, **extra}
    results = {"benchmarks": [{"name": ROW, "stats": {"min": 3.0}, "extra_info": info}]}
    paths = [tmp_path / "r.json", tmp_path / "b.json"]
    for path, data in zip(paths, (results, BASELINE)):
        path.write_text(json.dumps(data))
    assert compare_bench.main([str(p) for p in paths]) == rc
    out = capsys.readouterr().out
    assert "⚠" in out and all(f"`{ROW}`: {k}" in out for k in extra)
