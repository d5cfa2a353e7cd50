// The benchmark's three workloads, driven through the public api/os entry
// points. One call runs one pass of a workload: build its worlds (timed as
// set-up), run them to completion (timed as the measured phase), verify
// every payload byte and digest the simulated outputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/probes.h"
#include "harness/spans.h"
#include "sim/stats.h"

namespace perfbench {

struct PassConfig {
  std::uint64_t seed = 1;
  // Size multiplier: 1 for the benchmark's own size, 0.2 for the traced
  // run's linearity probe (sim.wall_ns_per_event_scale).
  double scale = 1.0;
  SpanLog* spans = nullptr;    // spans recorded when enabled
  Capture* capture = nullptr;  // non-null in the traced pass only
  // The pass's simulated outputs are reported. Only fabric pays for them
  // (a tap on every link reads the makespan); other passes skip the tap.
  bool sim_outputs = false;
  LayerTotals* layers = nullptr;  // filled in the traced pass only
};

// A measured cell that mirrors one cell of the paper's Tables 2-4.
struct PaperCell {
  std::string label;
  double measured = 0;
  double paper = 0;
};

struct PassResult {
  double setup_s = 0;
  double wall_s = 0;
  std::uint64_t attempted = 0;  // ops: transfers, rounds, connections
  std::uint64_t failed = 0;
  std::uint64_t events = 0;
  std::uint64_t frames = 0;
  std::uint64_t conns_peak = 0;
  std::string fingerprint;  // digest of the simulated outputs
  // Simulated outputs of the user-level library rows.
  double goodput_bytes = 0;  // verified payload in the measured windows
  double goodput_ns = 0;     // simulated length of those windows
  sim::Stats rtt_us;
  sim::Stats setup_us;
  std::vector<PaperCell> paper;
};

PassResult run_bulk(const PassConfig& cfg);
PassResult run_rpc(const PassConfig& cfg);
PassResult run_fabric(const PassConfig& cfg);

// Wall seconds to build the workload's worlds only (the set-up phase of a
// pass, repeated on its own to give set-up time more samples).
double setup_only(const std::string& workload, std::uint64_t seed);

// The fabric workload on the partitioned executor at `threads` threads:
// wall seconds of the run, its fingerprint and the executor's busy/stall
// wall time.
struct ExecProbe {
  double wall_s = 0;
  std::string fingerprint;
  double stall_frac = 0;
  bool ok = false;
};
ExecProbe run_fabric_partitioned(std::uint64_t seed, int threads);

}  // namespace perfbench
