// perfbench_harness: runs one workload of the benchmark and prints one JSON
// object with its raw results; perfbench/run.py turns that into the
// benchmark's metrics.
//
//   perfbench_harness --workload bulk|rpc|fabric --seed N --seconds S
//                     --trace 0|1 [--spans <path>]
//
// --trace 0: one warm-up pass that reports the simulated outputs, then
//   timed passes until S seconds have gone (at least three), plus
//   set-up-only rebuilds; every pass must produce the same simulated
//   fingerprint.
// --trace 1: untraced full-size and fifth-size passes, alternating (and on
//   fabric the partitioned executor at two threads), one traced pass
//   (spans, tracer capture, link taps, gauges) and the replays. The traced
//   pass must reproduce the untraced fingerprint.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness/replay.h"
#include "harness/workloads.h"
#include "sim/json_writer.h"

namespace {

using namespace perfbench;
using ulnet::sim::JsonWriter;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans_path;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::atoi(v);
    } else if (k == "--spans") {
      a.spans_path = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 &&
         (a.workload == "bulk" || a.workload == "rpc" ||
          a.workload == "fabric") &&
         (a.trace == 0 || a.trace == 1) && a.seconds > 0;
}

PassResult run_pass(const std::string& w, const PassConfig& cfg) {
  if (w == "bulk") return run_bulk(cfg);
  if (w == "rpc") return run_rpc(cfg);
  return run_fabric(cfg);
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double ratio(double a, double b) { return b != 0 ? a / b : 0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void write_pass(JsonWriter& j, const PassResult& r) {
  j.begin_object();
  j.field_raw("setup_s", num(r.setup_s));
  j.field_raw("wall_s", num(r.wall_s));
  j.field("attempted", r.attempted);
  j.field("failed", r.failed);
  j.field("events", r.events);
  j.field("frames", r.frames);
  j.field("conns_peak", r.conns_peak);
  j.field("fingerprint", r.fingerprint);
  j.end_object();
}

// Simulated end-to-end outputs of a pass, with their sample counts.
void write_sim(JsonWriter& j, const PassResult& r) {
  j.begin_object();
  j.field_raw("sim_goodput_mbps", num(ratio(r.goodput_bytes * 8e3,
                                            r.goodput_ns)));
  // A median, plus the p99 only where >= 10 samples lie beyond it.
  const auto timing = [&j](const char* name, const ulnet::sim::Stats& s) {
    if (s.empty()) return;
    j.field_raw(std::string(name) + "_p50", num(s.percentile(50)));
    if (s.count() >= 1000) {
      j.field_raw(std::string(name) + "_p99", num(s.percentile(99)));
    }
    j.field(std::string(name) + "_n", static_cast<std::uint64_t>(s.count()));
  };
  timing("sim_rtt_us", r.rtt_us);
  timing("sim_setup_us", r.setup_us);
  if (!r.paper.empty()) {
    double err = 0;
    for (const PaperCell& c : r.paper) {
      err += std::abs(c.measured - c.paper) / c.paper;
    }
    j.field_raw("paper_err_pct",
                num(100.0 * err / static_cast<double>(r.paper.size())));
    j.field("paper_err_pct_n", static_cast<std::uint64_t>(r.paper.size()));
    j.key("paper_cells").begin_array();
    for (const PaperCell& c : r.paper) {
      j.begin_object();
      j.field("label", c.label);
      j.field_raw("measured", num(c.measured));
      j.field_raw("paper", num(c.paper));
      j.end_object();
    }
    j.end_array();
  }
  j.end_object();
}

constexpr const char* kCpuNames[ulnet::sim::kCpuComponentCount] = {
    "nic_isr", "demux",         "checksum", "tcp_input", "tcp_fastpath",
    "timers",  "library_drain", "registry", "other"};

int measure(const Args& a, JsonWriter& j) {
  SpanLog off;
  PassConfig cfg;
  cfg.seed = a.seed;
  cfg.spans = &off;
  const std::int64_t t0 = now_ns();
  // The warm-up pass reports the simulated outputs, which every pass
  // repeats exactly. It is not timed: it alone pays for first-touch
  // allocation and, on fabric, for the link taps that read the makespan.
  cfg.sim_outputs = true;
  const PassResult head = run_pass(a.workload, cfg);
  cfg.sim_outputs = false;
  j.key("warmup");
  write_pass(j, head);
  std::vector<double> setup_only_s;
  j.key("passes").begin_array();
  int passes = 0;
  while (passes < 3 ||
         static_cast<double>(now_ns() - t0) * 1e-9 < a.seconds) {
    write_pass(j, run_pass(a.workload, cfg));
    passes++;
    // Set-up is one sample per pass; where passes are few (fabric),
    // rebuild between them, so that set-up gets 15 samples spread over
    // the run rather than bunched at its end.
    while (static_cast<int>(setup_only_s.size()) + passes <
           std::min(5 * passes, 15)) {
      setup_only_s.push_back(setup_only(a.workload, a.seed));
    }
  }
  j.end_array();
  j.key("setup_only_s").begin_array();
  for (const double s : setup_only_s) j.value_raw(num(s));
  j.end_array();
  j.key("sim");
  write_sim(j, head);
  return 0;
}

// Wall-clock probes take the fastest of this many passes per size.
constexpr int kProbePasses = 3;

template <class Run>
const Run& fastest(const std::vector<Run>& runs) {
  return *std::min_element(runs.begin(), runs.end(),
                           [](const Run& x, const Run& y) {
                             return x.wall_s < y.wall_s;
                           });
}

int traced(const Args& a, JsonWriter& j) {
  SpanLog off;
  SpanLog log;
  PassConfig plain;
  plain.seed = a.seed;
  plain.spans = &off;
  PassConfig small = plain;
  small.scale = 0.2;

  // Full-size and fifth-size passes (and on fabric the partitioned
  // executor) alternate, and each reports its fastest pass, so that a slow
  // phase of the host cannot land on one side of a ratio only.
  std::vector<PassResult> full;
  std::vector<PassResult> fifths;
  std::vector<ExecProbe> execs;
  for (int i = 0; i < kProbePasses; ++i) {
    full.push_back(run_pass(a.workload, plain));
    fifths.push_back(run_pass(a.workload, small));
    if (a.workload == "fabric") {
      execs.push_back(run_fabric_partitioned(a.seed, 2));
    }
  }
  const PassResult& untraced = fastest(full);
  const PassResult& fifth = fastest(fifths);

  Capture cap;
  LayerTotals t;
  PassConfig tc = plain;
  tc.spans = &log;
  tc.capture = &cap;
  tc.layers = &t;
  tc.sim_outputs = true;
  log.set_enabled(true);
  const PassResult tr = run_pass(a.workload, tc);

  const double driver_ns =
      replay_timer_driver(static_cast<std::size_t>(cap.live_peak()),
                          cap.delays(), log);
  const double checksum_ns_per_kb = replay_checksum(cap.frames(), log);
  // The bulk workload's live-timer population, for the driver ratio.
  double bulk_driver_ns = driver_ns;
  if (a.workload != "bulk") {
    Capture bulk_cap;
    LayerTotals bulk_t;
    PassConfig bc = plain;
    bc.capture = &bulk_cap;
    bc.layers = &bulk_t;
    bc.scale = 0.2;
    run_bulk(bc);
    bulk_driver_ns = replay_timer_driver(
        static_cast<std::size_t>(bulk_cap.live_peak()), bulk_cap.delays(),
        off);
  }

  j.key("untraced").begin_array();
  for (const PassResult& r : full) write_pass(j, r);
  j.end_array();
  j.key("traced");
  write_pass(j, tr);
  j.key("fifth").begin_array();
  for (const PassResult& r : fifths) write_pass(j, r);
  j.end_array();
  j.key("sim");
  write_sim(j, tr);

  const double pkts = static_cast<double>(t.frames);
  const auto per_pkt = [pkts](double v) { return ratio(v, pkts); };
  const ulnet::sim::Metrics& m = t.m;
  double cpu_total = 0;
  for (const std::uint64_t v : t.cpu_ns) cpu_total += static_cast<double>(v);
  const double handshakes =
      static_cast<double>(t.registry_tcp.opened + t.registry_tcp.accepted);
  const double data_segs =
      static_cast<double>(t.tcp.segs_out - t.tcp.pure_acks);

  j.key("layers").begin_object();
  auto f = [&j](const char* k, double v) { j.field_raw(k, num(v)); };
  f("sim.events", static_cast<double>(tr.events));
  f("sim.wall_ns_per_event",
    ratio(untraced.wall_s * 1e9, static_cast<double>(untraced.events)));
  f("sim.pending_peak", static_cast<double>(t.pending_peak));
  f("sim.wall_ns_per_pkt",
    ratio(untraced.wall_s * 1e9, static_cast<double>(untraced.frames)));
  f("sim.cancel_frac",
    ratio(static_cast<double>(t.loop_cancels),
          static_cast<double>(t.loop_executed + t.loop_cancels)));
  f("sim.cpu_ns_per_pkt", per_pkt(cpu_total));
  for (int c = 0; c < ulnet::sim::kCpuComponentCount; ++c) {
    const std::string k = std::string("sim.cpu.") + kCpuNames[c] + "_ns_per_pkt";
    f(k.c_str(), per_pkt(static_cast<double>(t.cpu_ns[static_cast<std::size_t>(c)])));
  }
  f("sim.wall_ns_per_event_scale",
    ratio(ratio(untraced.wall_s, static_cast<double>(untraced.events)),
          ratio(fifth.wall_s, static_cast<double>(fifth.events))));
  f("timer.ops", static_cast<double>(m.timer_ops));
  f("timer.ops_per_pkt", per_pkt(static_cast<double>(m.timer_ops)));
  f("timer.live_peak", static_cast<double>(cap.live_peak()));
  f("timer.driver_ns_per_op", driver_ns);
  f("timer.driver_ratio_vs_bulk", ratio(driver_ns, bulk_driver_ns));
  f("core.netio.demux_hash_hit_frac",
    ratio(static_cast<double>(m.demux_hash_hits),
          static_cast<double>(m.demux_hash_hits + m.demux_fallback_walks)));
  f("core.netio.template_checks_per_pkt",
    per_pkt(static_cast<double>(m.template_checks)));
  f("core.netio.signals_per_pkt",
    per_pkt(static_cast<double>(m.semaphore_signals)));
  f("core.netio.wakeups_per_pkt",
    per_pkt(static_cast<double>(m.semaphore_wakeups)));
  f("core.netio.drops",
    static_cast<double>(m.netio_ring_drops + m.netio_unclaimed_drops +
                        m.demux_drops));
  f("core.registry.handshakes", handshakes);
  f("core.registry.sweeps_per_handshake",
    ratio(static_cast<double>(m.registry_handshake_sweeps), handshakes));
  f("core.registry.scan_per_lookup",
    ratio(static_cast<double>(t.handoff_scanned),
          static_cast<double>(t.handoff_lookups)));
  f("proto.tcp.acks_per_data_seg",
    ratio(static_cast<double>(t.tcp.pure_acks), data_segs));
  f("proto.tcp.retransmits", static_cast<double>(t.tcp.retransmits));
  f("proto.tcp.tcb_bytes_per_conn",
    ratio(static_cast<double>(t.tcb_bytes_peak),
          static_cast<double>(t.conns_peak)));
  f("buf.copies_per_pkt", per_pkt(static_cast<double>(m.copies)));
  f("buf.bytes_copied_per_pkt", per_pkt(static_cast<double>(m.bytes_copied)));
  f("buf.pool_hit_frac",
    ratio(static_cast<double>(m.pool_hits),
          static_cast<double>(m.pool_hits + m.pool_misses)));
  f("buf.pool_bytes_peak", static_cast<double>(t.pool_bytes_peak));
  f("buf.checksum_ns_per_kb", checksum_ns_per_kb);
  f("hw.interrupts_per_pkt", per_pkt(static_cast<double>(m.interrupts)));
  f("hw.nic_drops", static_cast<double>(m.nic_rx_dropped + m.nic_ring_drops));
  f("net.frames", pkts);
  f("net.tx_wait_us_p99",
    static_cast<double>(t.tx_wait_ns.percentile(99)) / 1e3);
  f("os.context_switches_per_pkt",
    per_pkt(static_cast<double>(m.context_switches)));
  f("os.ipc_per_pkt", per_pkt(static_cast<double>(m.ipc_messages)));
  f("os.traps_per_pkt",
    per_pkt(static_cast<double>(m.traps + m.specialized_traps)));
  j.end_object();

  // Metrics that only some workloads can produce (see perfbench/README.md).
  j.key("diagnostics").begin_object();
  if (!t.ring_residency_ns.empty()) {
    f("core.netio.ring_residency_us_p50",
      static_cast<double>(t.ring_residency_ns.percentile(50)) / 1e3);
    f("core.netio.ring_residency_us_p99",
      static_cast<double>(t.ring_residency_ns.percentile(99)) / 1e3);
    f("core.netio.wakeup_latency_us_p50",
      static_cast<double>(t.wakeup_latency_ns.percentile(50)) / 1e3);
    f("core.netio.wakeup_latency_us_p99",
      static_cast<double>(t.wakeup_latency_ns.percentile(99)) / 1e3);
    f("core.lib.drain_batch_p50",
      static_cast<double>(t.drain_batch.percentile(50)));
    f("proto.tcp.fastpath_frac",
      ratio(static_cast<double>(t.tcp.fastpath),
            static_cast<double>(t.tcp.segs_in)));
  }
  if (!execs.empty()) {
    const ExecProbe& e = fastest(execs);
    f("os.exec_speedup_2t", ratio(untraced.wall_s, e.wall_s));
    f("os.exec_stall_frac", e.stall_frac);
    bool match = true;
    for (const ExecProbe& x : execs) {
      match = match && x.ok && x.fingerprint == untraced.fingerprint;
    }
    j.field("os.exec_fingerprint_match", match);
  }
  f("timer.driver_ns_per_op_bulk", bulk_driver_ns);
  j.field("timer.capture_lost_events", cap.lost_events());
  j.end_object();

  // Sample counts behind every percentile above, and the passes behind
  // every wall-clock probe.
  j.key("counts").begin_object();
  for (const char* k : {"sim.wall_ns_per_event", "sim.wall_ns_per_pkt",
                        "sim.wall_ns_per_event_scale"}) {
    j.field(k, static_cast<std::uint64_t>(kProbePasses));
  }
  if (!execs.empty()) {
    j.field("os.exec_speedup_2t", static_cast<std::uint64_t>(kProbePasses));
  }
  j.field("net.tx_wait_us_p99", t.tx_wait_ns.count());
  if (!t.ring_residency_ns.empty()) {
    j.field("core.netio.ring_residency_us_p50", t.ring_residency_ns.count());
    j.field("core.netio.ring_residency_us_p99", t.ring_residency_ns.count());
    j.field("core.netio.wakeup_latency_us_p50", t.wakeup_latency_ns.count());
    j.field("core.netio.wakeup_latency_us_p99", t.wakeup_latency_ns.count());
    j.field("core.lib.drain_batch_p50", t.drain_batch.count());
  }
  j.end_object();

  if (!a.spans_path.empty() && !log.write_json(a.spans_path)) {
    std::fprintf(stderr, "cannot write %s\n", a.spans_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload bulk|rpc|fabric "
                 "--seed N --seconds S --trace 0|1 [--spans path]\n");
    return 2;
  }
  JsonWriter j;
  j.begin_object();
  j.field("workload", a.workload);
  j.field("seed", a.seed);
  j.field("trace", static_cast<std::int32_t>(a.trace));
  j.field("compiler", PERFBENCH_COMPILER);
  j.field("build_type", PERFBENCH_BUILD_TYPE);
  const int rc = a.trace == 0 ? measure(a, j) : traced(a, j);
  j.field_raw("peak_rss_mb", num(peak_rss_mb()));
  j.end_object();
  std::printf("%s\n", j.str().c_str());
  return rc;
}
