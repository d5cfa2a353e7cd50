#!/usr/bin/env python3
"""The ulnet benchmark: one command, three workloads, two clocks.

    python3 perfbench/run.py --workload bulk|rpc|fabric --seed N \
        --seconds S --trace 0|1

Builds the harness (perfbench/CMakeLists.txt) from the checkout's sources
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload, checks its outputs, prints a readable report and, as the last
line, one JSON object {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The full ledger (diagnostics, span self times, sample
counts, host facts) is written next to the build as ledger-*.json.
Exits nonzero when any op failed or a fingerprint differed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import ledger

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARNESS_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configure (once) and build the harness; returns its path or None."""
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT).returncode
            if rc != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                print(f"perfbench: build failed ({' '.join(cmd[:2])})",
                      file=sys.stderr)
                return None
    exe = out / "perfbench_harness"
    return exe if exe.exists() else None


def host_facts(harness_out):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "machine": platform.machine(),
        "compiler": harness_out.get("compiler", "unknown"),
        "build_type": harness_out.get("build_type", "unknown"),
        "git_commit": commit,
    }


def end_to_end(h):
    """Metrics and correctness of a --trace 0 harness run."""
    passes = h["passes"]  # timed; the warm-up pass is not
    every = [h["warmup"]] + passes
    fingerprints = {p["fingerprint"] for p in every}
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    if len(fingerprints) != 1:
        # Same seed, different simulated outputs: every pass is suspect.
        failed = attempted
    setups = [p["setup_s"] for p in passes] + h["setup_only_s"]
    sim = h["sim"]
    metrics = {
        # The fastest pass: every pass does identical simulated work, and
        # co-tenant load on a shared host only ever adds time (README).
        "wall_s": min(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": h["peak_rss_mb"],
        "sim_goodput_mbps": sim["sim_goodput_mbps"],
    }
    diagnostics = {k: v for k, v in sim.items()
                   if k not in metrics and k != "paper_cells"
                   and not k.endswith("_n")}
    diagnostics["failed_frac"] = failed / attempted if attempted else 1.0
    counts = {"wall_s": len(passes), "setup_s": len(setups)}
    for name in ("sim_rtt_us", "sim_setup_us"):
        for pct in ("_p50", "_p99"):
            if name + pct in sim:
                counts[name + pct] = sim[name + "_n"]
    if "paper_err_pct" in sim:
        counts["paper_err_pct"] = sim["paper_err_pct_n"]
    extra = {"fingerprints": sorted(fingerprints),
             "paper_cells": sim.get("paper_cells", [])}
    return metrics, diagnostics, counts, attempted, failed, extra


def per_layer(h, spans):
    """Metrics and correctness of a --trace 1 harness run."""
    full = h["untraced"] + [h["traced"]]
    runs = full + h["fifth"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    diagnostics = dict(h["diagnostics"])
    # Same seed, same simulated outputs at each size; tracing must not
    # move them, nor may the partitioned executor.
    fingerprints = {r["fingerprint"] for r in full}
    if (len(fingerprints) != 1
            or len({r["fingerprint"] for r in h["fifth"]}) != 1
            or diagnostics.get("os.exec_fingerprint_match") is False):
        failed = attempted
    metrics = dict(h["layers"])
    for name in ("api.send", "api.recv"):
        mean, n = ledger.mean_self_ns(spans, name)
        if n:
            diagnostics[name + "_wall_ns"] = mean
            h["counts"][name + "_wall_ns"] = n
    diagnostics["trace.overhead_s"] = (
        h["traced"]["wall_s"] - min(r["wall_s"] for r in h["untraced"]))
    diagnostics["self_s"] = ledger.layer_self_s(spans)
    extra = {"fingerprints": sorted(fingerprints),
             "conns_peak": h["traced"]["conns_peak"], "sim": h["sim"]}
    return metrics, diagnostics, h["counts"], attempted, failed, extra


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["bulk", "rpc", "fabric"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = ledger.check_benchmark_spec(spec)
    if problems:
        sys.exit("perfbench: BENCHMARK.json: " + "; ".join(problems))

    out = build_dir()
    exe = build(out)
    if exe is None:
        sys.exit(1)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = out / f"spans-{tag}.json"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(spans_path)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=HARNESS_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: harness exceeded {HARNESS_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        sys.exit(f"perfbench: harness exited with {proc.returncode}")
    h = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        spans = json.loads(spans_path.read_text())
        metrics, diag, counts, attempted, failed, extra = per_layer(h, spans)
        wanted = spec["per_layer"]
    else:
        metrics, diag, counts, attempted, failed, extra = end_to_end(h)
        wanted = spec["end_to_end"]

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.exit("perfbench: harness did not produce " + ", ".join(missing))
    result_metrics = {m["name"]: {"value": metrics[m["name"]],
                                  "unit": m["unit"]} for m in wanted}
    correct = failed == 0

    params = host_facts(h)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "params": params, "metrics": result_metrics,
              "diagnostics": diag, "counts": counts, **extra}
    ledger_path = out / f"ledger-{tag}.json"
    ledger_path.write_text(json.dumps(record, indent=1, sort_keys=True))

    print(f"== perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} ({'ok' if correct else 'FAILED'})")
    print("params (host facts, unscored): " + json.dumps(params))
    for m in wanted:
        n = counts.get(m["name"])
        print(f"  {m['name']:<40} {metrics[m['name']]:>16.6g} {m['unit']:<10}"
              + (f" n={n}" if n else ""))
    for k in sorted(diag):
        if k == "self_s":
            for layer, s in sorted(diag[k].items()):
                print(f"  self_s.{layer:<33} {s:>16.6g} s")
            continue
        n = counts.get(k)
        print(f"  {k:<40} {diag[k]!s:>16} (diagnostic)"
              + (f" n={n}" if n else ""))
    print(f"  ledger: {ledger_path}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
