#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py          # ~1 minute: runs every
                                                 # workload once per mode

The arithmetic tests are instant; the ledger tests run perfbench/run.py on
each workload (both modes, short runs) and inspect what it printed and the
ledger it wrote.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Connections per rpc cell (kRpcConns in harness/workloads.cc).
RPC_CONNS = 256
CPU_PARTS = ("nic_isr", "demux", "checksum", "tcp_input", "tcp_fastpath",
             "timers", "library_drain", "registry", "other")


def span(id_, parent, start, end, layer="os", name="x"):
    return {"id": id_, "parent": parent, "start_ns": start, "end_ns": end,
            "layer": layer, "name": name}


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once_and_clipped(self):
        spans = [
            span(1, 0, 0, 100, "os"),
            span(2, 1, 10, 30, "api"),
            span(3, 1, 20, 50, "api"),   # overlaps its sibling
            span(4, 1, 90, 120, "api"),  # runs past its parent
            span(5, 2, 12, 18, "buf"),   # grandchild: charged to span 2 only
        ]
        own = ledger.span_self_ns(spans)
        self.assertEqual(own[1], 100 - (40 + 10))
        self.assertEqual(own[2], 20 - 6)
        self.assertEqual(own[5], 6)
        layers = ledger.layer_self_s(spans)
        self.assertAlmostEqual(layers["os"], 50e-9)
        self.assertAlmostEqual(layers["api"], (14 + 30 + 30) * 1e-9)
        self.assertAlmostEqual(layers["buf"], 6e-9)

    def test_self_times_sum_to_root_durations(self):
        spans = [span(1, 0, 0, 1000), span(2, 1, 100, 400, "api"),
                 span(3, 1, 500, 900, "api"), span(4, 3, 600, 700, "buf"),
                 span(5, 0, 2000, 2500, "timer")]
        total = sum(ledger.layer_self_s(spans).values())
        self.assertAlmostEqual(total, 1500e-9)

    def test_mean_self_by_name(self):
        spans = [span(1, 0, 0, 100, name="api.send"),
                 span(2, 0, 200, 260, name="api.send"),
                 span(3, 0, 300, 301, name="api.recv")]
        self.assertEqual(ledger.mean_self_ns(spans, "api.send"), (80.0, 2))


class Spec(unittest.TestCase):
    def test_names_and_units(self):
        self.assertEqual(ledger.check_benchmark_spec(SPEC), [])
        for bad in ("a b", "_x", "x" * 65, "nsµ"):
            self.assertIsNone(ledger.NAME_RE.match(bad), bad)

    def test_layer_metrics_name_a_src_module(self):
        for m in SPEC["per_layer"]:
            self.assertIn(m["name"].split(".")[0], ledger.LAYERS, m["name"])

    def test_setup_time_is_listed_with_the_widest_bound(self):
        # Set-up is the shortest timed phase, so it gets the widest bound.
        e2e = {m["name"]: m for m in SPEC["end_to_end"]}
        self.assertEqual((e2e["setup_s"]["unit"], e2e["setup_s"]["better"]),
                         ("s", "lower"))
        self.assertEqual(e2e["setup_s"]["bound"],
                         max(m["bound"] for m in e2e.values()))


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    path = base / "perfbench" / f"ledger-{workload}-seed1-trace{trace}.json"
    return proc, json.loads(path.read_text())


class Ledgers(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        for w in WORKLOADS:
            for trace in (0, 1):
                cls.runs[(w, trace)] = run_bench(w, trace)

    def test_runs_are_correct(self):
        for key, (proc, _) in self.runs.items():
            self.assertEqual(proc.returncode, 0, f"{key}: {proc.stderr}")
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(sorted(last),
                             ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(last["correct"], key)
            self.assertEqual(last["failed"], 0, key)

    def test_same_seed_same_fingerprint_traced_or_not(self):
        for w in WORKLOADS:
            plain = self.runs[(w, 0)][1]["fingerprints"]
            traced = self.runs[(w, 1)][1]["fingerprints"]
            self.assertEqual(len(plain), 1, w)
            self.assertEqual(plain, traced, w)

    def test_every_listed_metric_is_emitted_and_nothing_else(self):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            listed = {m["name"] for m in SPEC[group]}
            for w in WORKLOADS:
                _, led = self.runs[(w, trace)]
                self.assertEqual(set(led["metrics"]), listed, (w, group))
                for name in led["diagnostics"]:
                    self.assertNotIn(name, listed, (w, name))
                    self.assertRegex(name, ledger.NAME_RE)

    def test_end_to_end_metrics_are_never_zero(self):
        for w in WORKLOADS:
            _, led = self.runs[(w, 0)]
            for name, m in led["metrics"].items():
                self.assertGreater(m["value"], 0, (w, name))

    def test_percentiles_rest_on_enough_samples(self):
        # A p99 needs >= 1000 samples so that >= 10 lie beyond it.
        for (w, _), (_, led) in self.runs.items():
            for name, n in led["counts"].items():
                if name.endswith("_p99"):
                    self.assertGreaterEqual(n, 1000, (w, name))

    def test_cpu_components_sum_to_total(self):
        for w in WORKLOADS:
            _, led = self.runs[(w, 1)]
            m = {k: v["value"] for k, v in led["metrics"].items()}
            parts = sum(m[f"sim.cpu.{c}_ns_per_pkt"] for c in CPU_PARTS)
            self.assertAlmostEqual(parts, m["sim.cpu_ns_per_pkt"],
                                   delta=1e-9 * m["sim.cpu_ns_per_pkt"])

    def test_host_facts_are_params_not_metrics(self):
        for (w, _), (_, led) in self.runs.items():
            for fact in ("nproc", "cpu_model", "compiler", "build_type",
                         "git_commit"):
                self.assertIn(fact, led["params"])
                self.assertNotIn(fact, led["metrics"])

    def test_live_timers_are_counted_per_world(self):
        # Every cell is a world of its own whose hosts reuse ordinals 0/1,
        # and a finished cell leaves timers pending that never fire. The
        # live peak is that of one host of one cell: at most one TIME_WAIT
        # timer per rpc connection plus a few, and a few on bulk, which has
        # one connection live.
        def live_peak(w):
            return self.runs[(w, 1)][1]["metrics"]["timer.live_peak"]["value"]
        self.assertGreaterEqual(live_peak("rpc"), RPC_CONNS)
        self.assertLessEqual(live_peak("rpc"), RPC_CONNS + 8)
        self.assertLessEqual(live_peak("bulk"), 8)

    def test_wall_clock_probes_take_the_fastest_of_several_passes(self):
        for w in WORKLOADS:
            counts = self.runs[(w, 1)][1]["counts"]
            for name in ("sim.wall_ns_per_event", "sim.wall_ns_per_pkt",
                         "sim.wall_ns_per_event_scale"):
                self.assertGreaterEqual(counts[name], 3, (w, name))
        self.assertGreaterEqual(
            self.runs[("fabric", 1)][1]["counts"]["os.exec_speedup_2t"], 3)

    def test_fabric_matches_the_scale_exhibit(self):
        # FabricBed grid/p16/c640 is the bench_scale_fabric exhibit cell;
        # driving it from here must execute the same integrated path.
        exhibit = json.loads(
            (ROOT / "bench" / "BENCH_scale_fabric.json").read_text())
        rows = {r["metric"]: r["value"] for r in exhibit["results"]
                if r["label"] == "grid/p16/c640"}
        _, led = self.runs[("fabric", 1)]
        self.assertEqual(led["metrics"]["sim.events"]["value"], rows["events"])
        self.assertEqual(led["conns_peak"], rows["conns_peak"])

    def test_fabric_runs_the_partitioned_executor_probe(self):
        _, fab = self.runs[("fabric", 1)]
        self.assertIn("os.exec_speedup_2t", fab["diagnostics"])
        self.assertIn("os.exec_stall_frac", fab["diagnostics"])
        self.assertTrue(fab["diagnostics"]["os.exec_fingerprint_match"])


if __name__ == "__main__":
    unittest.main()
