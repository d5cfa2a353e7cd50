"""Pure helpers of the benchmark: span self time and metric checks.

Kept free of I/O so that perfbench/test_perfbench.py can test them alone.
"""

import re
import statistics
from collections import defaultdict

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Layers a span may be attributed to: the src/ modules plus the benchmark's
# own set-up phase.
LAYERS = ("setup", "sim", "timer", "core", "proto", "buf", "hw", "net", "os",
          "baseline", "filter", "api")


def union_length(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_self_ns(spans):
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover. Returns {span id: self ns}."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"]:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        clipped = [(max(lo, c["start_ns"]), min(hi, c["end_ns"]))
                   for c in children[s["id"]]]
        covered = union_length([(a, b) for a, b in clipped if b > a])
        out[s["id"]] = (hi - lo) - covered
    return out


def layer_self_s(spans):
    """Self time summed per layer, in seconds."""
    own = span_self_ns(spans)
    totals = defaultdict(float)
    for s in spans:
        totals[s["layer"]] += own[s["id"]] * 1e-9
    return dict(totals)


def mean_self_ns(spans, name):
    """(mean self time in ns, count) of the spans called `name`."""
    own = span_self_ns(spans)
    vals = [own[s["id"]] for s in spans if s["name"] == name]
    return (statistics.fmean(vals) if vals else 0.0), len(vals)


def check_benchmark_spec(spec):
    """Problems with BENCHMARK.json's metric lists (empty when fine)."""
    problems = []
    seen = set()
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in spec.get(group, []):
            name = entry.get("name", "")
            if not NAME_RE.match(name):
                problems.append(f"{group}: bad name {name!r}")
            if name in seen:
                problems.append(f"{group}: duplicate name {name!r}")
            seen.add(name)
            if group != "workloads" and not UNIT_RE.match(entry.get("unit", "")):
                problems.append(f"{group}: bad unit for {name!r}")
    for entry in spec.get("end_to_end", []):
        if not 0 < entry.get("bound", 0) <= 0.25:
            problems.append(f"end_to_end: bound of {entry['name']} out of range")
    return problems
