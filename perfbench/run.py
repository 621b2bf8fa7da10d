#!/usr/bin/env python3
"""The repository benchmark: one command, every metric, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ssd-spill --seed 1 --seconds 20 --trace 0

The run repeats fresh rounds of one workload (build, preload, generate,
warm up, measure; see ``suite.py``) until ``--seconds`` are used, at
least ``MIN_ROUNDS`` times. Host-time metrics are calibrated to host
speed 1.0 by reference slices interleaved with the timed work (see
``ledger.HostSpeed``) and are medians over the rounds' samples;
simulated metrics are deterministic, and every round must reproduce
the first round's fingerprint exactly. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced rounds with
traced ones (cProfile over the whole round plus client-API spans) and
reports the per-layer metrics. The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it are the human-readable report. A JSON copy of the
report with its provenance, and on traced runs the spans of the first
traced round, go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from ledger import LAYERS, Spans, layer_split, provenance, write_json

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Fewest rounds a run makes, whatever ``--seconds`` says: the host
#: metrics are medians and need an odd count of at least three.
MIN_ROUNDS = 3

#: Fewest samples a reported p99 must have beyond it.
MIN_TAIL = 10

METHOD = ("closed loop, single host process; fresh cluster per round; host "
          "times (perf_counter) less interleaved reference slices, scaled to host "
          "speed 1.0 by those slices, medians over segments/rounds; ru_maxrss; "
          "simulated metrics from the measured streams of one round, identical in all")

#: name -> (unit, what it is); the end-to-end metrics, --trace 0.
END_TO_END = {
    "ops_per_wall_s": ("ops/s", "measured simulated ops per host second, "
                                "at host speed 1.0"),
    "setup_s": ("s", "host time of build + preload + generation + warm-up, "
                     "at host speed 1.0"),
    "peak_rss_mb": ("MB", "peak resident memory of this process"),
    "sim_get_p50_us": ("us", "simulated GET latency, median"),
    "sim_get_p99_us": ("us", "simulated GET latency, 99th percentile"),
    "sim_set_p50_us": ("us", "simulated SET latency, median"),
    "sim_set_p99_us": ("us", "simulated SET latency, 99th percentile"),
    "sim_ops_per_s": ("ops/s", "completed ops per simulated second"),
}


def per_layer_units():
    """name -> unit of every per-layer metric, --trace 1."""
    units = {
        "sim.events_per_op": "count", "sim.host_ns_per_event": "ns",
        "net.msgs_per_op": "count", "net.bytes_per_op": "B",
        "client.overlap_pct": "%", "client.blocked_us_per_op": "us",
        "server.slab_alloc_us": "us", "server.cache_check_load_us": "us",
        "server.cache_update_us": "us", "server.response_us": "us",
        "server.flushes_per_kop": "count", "server.promotions_per_kop": "count",
        "server.ram_hit_ratio": "ratio", "server.ssd_get_frac": "ratio",
        "server.busy_s": "s",
        "storage.device_reads_per_op": "count",
        "storage.device_writes_per_op": "count",
        "storage.write_amp": "ratio", "storage.pagecache_hit_ratio": "ratio",
        "storage.device_util": "ratio",
        "workloads.gen_s": "s",
        "core.build_s": "s", "core.preload_s": "s", "harness.warmup_s": "s",
        "trace.overhead_frac": "ratio",
    }
    for layer in LAYERS:
        units[f"{layer}.host_self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1,
                   help="workload seed (default 1; held-out seed 1009)")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="host seconds of rounds to run (at least %d rounds)"
                        % MIN_ROUNDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def end_to_end(rounds):
    first = rounds[0].sim
    return {
        "ops_per_wall_s": statistics.median(v for r in rounds
                                            for v in r.calibrated_ops_per_s),
        "setup_s": statistics.median(r.calibrated_setup_s for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_get_p50_us": first["get_p50_us"],
        "sim_get_p99_us": first["get_p99_us"],
        "sim_set_p50_us": first["set_p50_us"],
        "sim_set_p99_us": first["set_p99_us"],
        "sim_ops_per_s": first["ops_per_s"],
    }


def per_layer(rounds, traced, layers):
    s = rounds[0].sim
    ops = s["ops"]
    med = statistics.median
    untraced_wall = med(r.measure_s for r in rounds)
    out = {
        "sim.events_per_op": s["events"] / ops,
        "sim.host_ns_per_event": untraced_wall / s["events"] * 1e9,
        "net.msgs_per_op": s["msgs"] / ops,
        "net.bytes_per_op": s["bytes"] / ops,
        "client.overlap_pct": s["overlap_pct"],
        "client.blocked_us_per_op": s["blocked_us_per_op"],
        "server.slab_alloc_us": s["slab_alloc_us"],
        "server.cache_check_load_us": s["cache_check_load_us"],
        "server.cache_update_us": s["cache_update_us"],
        "server.response_us": s["response_us"],
        "server.flushes_per_kop": s["flushes"] / ops * 1000,
        "server.promotions_per_kop": s["promotions"] / ops * 1000,
        "server.ram_hit_ratio": s["ram_hit_ratio"],
        "server.ssd_get_frac": s["ssd_reads"] / s["get_n"] if s["get_n"] else 0.0,
        "server.busy_s": s["server_busy_s"],
        "storage.device_reads_per_op": s["device_reads"] / ops,
        "storage.device_writes_per_op": s["device_writes"] / ops,
        "storage.write_amp": s["write_amp"],
        "storage.pagecache_hit_ratio": s["pagecache_hit_ratio"],
        "storage.device_util": s["device_util"],
        "workloads.gen_s": med(r.phases["workloads.gen"] for r in rounds),
        "core.build_s": med(r.phases["core.build"] for r in rounds),
        "core.preload_s": med(r.phases["core.preload"] for r in rounds),
        "harness.warmup_s": med(r.phases["harness.warmup"] for r in rounds),
        "trace.overhead_frac": med(r.measure_s for r in traced) / untraced_wall - 1,
    }
    for layer in LAYERS:
        out[f"{layer}.host_self_s"] = med(split[layer]["self_s"] for split in layers)
        out[f"{layer}.calls"] = layers[0][layer]["calls"]
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, scale: int = 1):
    """Run one benchmark invocation; returns ``(result, report, spans)``:
    the final JSON object, the full report with provenance, and the
    spans of the first traced round (None untraced)."""
    import suite
    from repro.client.client import MemcachedClient

    wl = suite.WORKLOADS[workload]
    deadline = time.perf_counter() + seconds
    # A traced round costs several untraced ones; one pair is enough
    # for the per-layer ledger, whose host times carry no bound.
    min_rounds = 1 if trace else MIN_ROUNDS
    rounds, traced, layers = [], [], []
    first_spans = None
    while True:
        t0 = time.perf_counter()
        rounds.append(suite.run_round(wl, seed, scale, calibrate=not trace))
        if trace:
            spans, prof = Spans(), cProfile.Profile()
            with spans.wrap_client_api(MemcachedClient):
                traced.append(prof.runcall(suite.run_round, wl, seed, scale,
                                           spans=spans))
            prof.create_stats()
            layers.append(layer_split(prof.stats))
            first_spans = first_spans or spans
        step = time.perf_counter() - t0
        if len(rounds) >= min_rounds and time.perf_counter() + step > deadline:
            break

    problems = []
    prints = {r.fingerprint for r in rounds + traced}
    if len(prints) != 1:
        problems.append(f"simulated behaviour differs between rounds of one seed: "
                        f"{sorted(prints)}")
    failed = sum(r.failed for r in rounds + traced)
    if failed:
        problems.append(f"{failed} ops failed or have no record")
    sim = rounds[0].sim
    if scale == 1:
        for op in ("get", "set"):
            if sim.get(f"{op}_p99_beyond", 0) < MIN_TAIL:
                problems.append(f"{op} p99 has {sim.get(f'{op}_p99_beyond', 0)} "
                                f"samples beyond it, fewer than {MIN_TAIL}")
    if trace:
        units = per_layer_units()
        values = per_layer(rounds, traced, layers)
    else:
        units = {k: u for k, (u, _) in END_TO_END.items()}
        values = end_to_end(rounds)
    attempted = sum(r.attempted for r in rounds + traced)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "scale": scale, "rounds": len(rounds), "traced_rounds": len(traced),
        "method": METHOD, "provenance": provenance(ROOT),
        "fingerprint": rounds[0].fingerprint, "problems": problems,
        "samples": {"get": sim.get("get_n", 0), "set": sim.get("set_n", 0),
                    "get_beyond_p99": sim.get("get_p99_beyond", 0),
                    "set_beyond_p99": sim.get("set_p99_beyond", 0)},
        "host_samples": {
            "segment_ops_per_s": [v for r in rounds for v in r.calibrated_ops_per_s],
            "round_setup_s": [r.calibrated_setup_s for r in rounds],
            # per round: (ops, wall seconds) of each segment, and (seconds
            # less reference slices, host speed) of set-up then each segment
            "segments": [r.segments for r in rounds],
            "calibration": [r.calibration for r in rounds],
            "traced_measure_s": [r.measure_s for r in traced],
        },
        "host_speed": None if trace else statistics.median(
            speed for r in rounds for _, speed in r.calibration),
        "failed_frac": failed / attempted,
        "set_frac": sim["set_frac"],
        "get_miss_frac": sim["get_miss_frac"],
        "result": result,
    }
    return result, report, first_spans


def print_report(report) -> None:
    prov = report["provenance"]
    print(f"perfbench {report['workload']} seed={report['seed']} "
          f"trace={report['trace']} rounds={report['rounds']}"
          f"+{report['traced_rounds']} traced")
    print(f"machine: nproc={prov['nproc']} cpu={prov['cpu']!r} "
          f"python={prov['python']} commit={prov['commit']} date={prov['date']}")
    print(f"method: {report['method']}")
    if report["host_speed"] is not None:
        print(f"host speed: {report['host_speed']:.3f} (median over timed spans; "
              f"1.0 = reference host)")
    print(f"fingerprint: {report['fingerprint']} (events_per_run:records_sha256)")
    smp = report["samples"]
    print(f"samples: get n={smp['get']} ({smp['get_beyond_p99']} beyond p99), "
          f"set n={smp['set']} ({smp['set_beyond_p99']} beyond p99)")
    print(f"mix: set_frac={report['set_frac']:.4f} "
          f"get_miss_frac={report['get_miss_frac']:.4f}")
    res = report["result"]
    print(f"failed_frac: {report['failed_frac']:.6g} "
          f"({res['failed']} failed / {res['attempted']} attempted)")
    for name, m in res["metrics"].items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    for problem in report["problems"]:
        print(f"perfbench: INCORRECT: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from the root of a "
              f"full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import suite
    if args.workload not in suite.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(suite.WORKLOADS)}", file=sys.stderr)
        return 2
    result, report, spans = run(args.workload, args.seed, args.seconds,
                                bool(args.trace))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    write_json(OUT / f"{stem}.json", report)
    if spans is not None:
        write_json(OUT / f"{stem}-spans.json",
                   {"provenance": report["provenance"], "spans": spans.to_json()})
    print_report(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
