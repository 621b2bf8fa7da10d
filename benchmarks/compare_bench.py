"""Diff a pytest-benchmark JSON run against the committed baselines.

Usage::

    python benchmarks/compare_bench.py bench-results.json [BENCH_engine.json]

Prints a GitHub-flavoured markdown table comparing each benchmark's
wall-clock (and, for the macro cluster benchmark, events/sec) against
the ``after`` figures recorded in ``BENCH_engine.json``. Meant for the
CI bench job's ``$GITHUB_STEP_SUMMARY``.

Wall-clock numbers vary with runner hardware, so their deltas are
informational. A macro row's ``events_per_run`` and simulated
``p99_latency_s`` are deterministic, so they must equal the committed
baseline exactly on any machine: on a mismatch the script lists it
and exits 1. It exits 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Relative slowdown beyond which a row gets flagged (informational).
FLAG_THRESHOLD = 0.05


def _baseline_entries(baseline: dict) -> dict:
    """Flatten the committed baseline: name -> {min_s, mean_s, ...}."""
    out = {}
    for section in ("benchmarks", "macro"):
        for name, entry in baseline.get(section, {}).items():
            after = entry.get("after", entry)
            out[name] = dict(after)
            for k in ("events_per_run", "events_per_sec_best",
                      "events_per_sec_mean", "p99_latency_s"):
                if k in entry:
                    out[name][k] = entry[k]
    return out


def _fmt_delta(ratio: float) -> str:
    """+4.2% means slower than baseline; -4.2% faster."""
    pct = (ratio - 1.0) * 100.0
    flag = " ⚠" if pct > FLAG_THRESHOLD * 100.0 else ""
    return f"{pct:+.1f}%{flag}"


def compare(results: dict, baseline: dict) -> str:
    """Render the comparison as a markdown table."""
    base = _baseline_entries(baseline)
    lines = [
        "### Benchmark comparison vs committed baseline",
        "",
        "| benchmark | min (s) | baseline min (s) | Δ min | events/sec "
        "(best) | baseline | Δ | sim p99 (µs) | baseline | Δ |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for bench in results.get("benchmarks", []):
        name = bench["name"].split("[")[0]
        stats = bench["stats"]
        ref = base.get(name)
        if ref is None:
            lines.append(f"| `{name}` | {stats['min']:.4f} | — (new) "
                         "| — | — | — | — | — | — | — |")
            continue
        d_min = _fmt_delta(stats["min"] / ref["min_s"])
        extra = bench.get("extra_info", {})
        eps = extra.get("events_per_sec_best")
        ref_eps = ref.get("events_per_sec_best")
        if eps and ref_eps:
            # Throughput: below-baseline is the slowdown direction.
            d_eps = _fmt_delta(ref_eps / eps)
            eps_cells = f"{eps:,.0f} | {ref_eps:,.0f} | {d_eps}"
        else:
            eps_cells = "— | — | —"
        p99 = extra.get("p99_latency_s")
        ref_p99 = ref.get("p99_latency_s")
        if p99 and ref_p99:
            # Simulated time: deterministic, so any delta is a real
            # behaviour change, not runner noise.
            p99_cells = (f"{p99 * 1e6:.1f} | {ref_p99 * 1e6:.1f} | "
                         f"{_fmt_delta(p99 / ref_p99)}")
        else:
            p99_cells = "— | — | —"
        lines.append(f"| `{name}` | {stats['min']:.4f} | "
                     f"{ref['min_s']:.4f} | {d_min} | {eps_cells} | "
                     f"{p99_cells} |")
    lines += [
        "",
        "Positive Δ = slower than the committed baseline (⚠ beyond "
        f"{FLAG_THRESHOLD:.0%}). Baselines were recorded on a different "
        "machine; treat cross-runner wall-clock deltas as trends, not "
        "regressions. *Sim p99* is simulated time — deterministic on "
        "any machine, so a nonzero Δ there is a model change.",
    ]
    return "\n".join(lines)


def mismatches(results: dict, baseline: dict) -> list[str]:
    """Deterministic fields of macro rows that differ from the baseline."""
    macro = baseline.get("macro", {})
    out = []
    for bench in results.get("benchmarks", []):
        name = bench["name"].split("[")[0]
        ref = macro.get(name)
        if ref is None:
            continue
        extra = bench.get("extra_info", {})
        for key in ("events_per_run", "p99_latency_s"):
            if key in ref and extra.get(key) != ref[key]:
                out.append(f"`{name}`: {key} {extra.get(key)!r} != "
                           f"baseline {ref[key]!r}")
    return out


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    results_path = Path(argv[0])
    baseline_path = Path(argv[1]) if len(argv) == 2 else (
        Path(__file__).resolve().parent.parent / "BENCH_engine.json")
    results = json.loads(results_path.read_text())
    baseline = json.loads(baseline_path.read_text())
    print(compare(results, baseline))
    bad = mismatches(results, baseline)
    if bad:
        print("\n**Deterministic mismatch** (a model or engine change; "
              "update BENCH_engine.json and say why):\n")
        print("\n".join(f"* {line}" for line in bad))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
