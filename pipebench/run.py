"""Pipeline benchmark of ctclink: FER sweeps, capture decoding, X2 proximity.

Usage::

    python3 pipebench/run.py --workload fer-sweep --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it times the workload's rounds and prints the end-to-end
metrics; with ``--trace 1`` it runs the traced passes of every workload,
single-threaded, and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import checks  # noqa: E402
import common  # noqa: E402

WORKLOADS = ("fer-sweep", "capture-decode", "proximity")


def load_workloads():
    import capture
    import fer
    import proximity

    return {"fer-sweep": fer.Workload, "capture-decode": capture.Workload,
            "proximity": proximity.Workload}


def timed_run(workload_cls, seed: int, seconds: float):
    """Set up, warm up, time rounds; return (correct, ops, metrics, table)."""
    import_s = time.perf_counter() - _T0
    workload, setup_s = common.repeated_setup(lambda: workload_cls(seed), lambda w: w.close())
    ops = common.OpCount()
    try:
        warm, rounds = common.timed_rounds(lambda: workload.run_round(ops), seconds)
    finally:
        workload.close()
    correct = True
    try:
        workload.check(warm, rounds)
    except checks.CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        correct = False
    for err in ops.errors[:10]:
        print(f"FAILED OPERATION: {err}", file=sys.stderr)
    metrics = {
        "setup_s": (import_s + setup_s, "s"),
        "peak_rss_mb": (common.peak_rss_mb(), "MB"),
    }
    table = []
    for key, label in workload.parts.items():
        rates = [parts[key].rate for parts, _ in rounds if parts[key].units]
        value = common.median(rates) if rates else 0.0
        metrics[f"part_{key}_per_s"] = (value, "1/s")
        table.append((f"part_{key}_per_s", label, value, len(rates)))
    return correct, ops, metrics, table


def traced_run(classes, seed: int, seconds: float):
    """A warm-up pass, then traced passes of every workload until ``seconds`` pass."""
    workloads = [cls(seed) for cls in classes.values()]
    tracers, passes = [], []
    try:
        for w in workloads:  # warm-up pass, as in the timed runs
            w.trace(common.Tracer())
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            tracer = common.Tracer()
            one = {}
            for w in workloads:
                one.update(w.trace(tracer))
            tracers.append(tracer)
            passes.append(one)
    finally:
        for w in workloads:
            w.close()
    metrics = {name: (common.median([p[name] for p in passes]), unit)
               for name, unit in LAYER_UNITS.items()}
    return tracers, metrics


LAYER_UNITS = {
    "fer.frame_build_ms": "ms/frame", "fer.waveform_ms": "ms/frame",
    "fer.traffic_ms": "ms/frame", "fer.sampler_ms": "ms/frame",
    "fer.rx_config_ms": "ms/frame", "fer.clean_ms": "ms/frame",
    "fer.correlation_ms": "ms/frame", "fer.scan_ms": "ms/frame",
    "fer.align_ms": "ms/frame", "fer.ticks": "count/frame",
    "fer.wifi_frames": "count/frame", "fer.frames_ok_ratio": "ratio",
    "fer.unaccounted_ratio": "ratio",
    "cap.clean_ns": "ns/window", "cap.correlation_ns": "ns/window",
    "cap.stream_scan_ns": "ns/window", "cap.offline_scan_ns": "ns/window",
    "cap.segment_scan_ns": "ns/window",
    "cap.parse_us": "us/frame", "cap.correlated_windows": "count/window",
    "cap.frames_ok_ratio": "ratio", "cap.unaccounted_ratio": "ratio",
    "prox.clustering_ms": "ms/grid", "prox.shadowing_ms": "ms/grid",
    "prox.powers_ms": "ms/grid", "prox.decodable_us": "us/point",
    "prox.estimate_us": "us/point", "prox.observation_us": "us/AP",
    "prox.connect_us": "us/AP", "prox.roundtrip_us": "us/fetch",
    "prox.decode_us": "us/fetch", "prox.report_us": "us/AP",
    "prox.codebook_bytes": "bytes", "prox.unaccounted_ratio": "ratio",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.import_ctclink()
    except (common.BenchError, ImportError) as exc:
        print(f"cannot run: {exc}", file=sys.stderr)
        return 2
    classes = load_workloads()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracers, metrics = traced_run(classes, args.seed, args.seconds)
        common.write_traces(os.path.join(common.OUT_DIR, f"trace-{tag}.json"), tracers)
        correct, attempted, failed = True, len(tracers), 0
        print(f"traced passes: {len(tracers)} (median reported)")
    else:
        correct, ops, metrics, table = timed_run(classes[args.workload], args.seed, args.seconds)
        attempted, failed = ops.attempted, ops.failed
        for key, label, value, n in table:
            print(f"{key} = {label}: {value:.2f} 1/s (median of {n} rounds)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(common.OUT_DIR, exist_ok=True)
    with open(os.path.join(common.OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
