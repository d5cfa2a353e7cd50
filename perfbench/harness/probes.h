// Layer counters read from the simulator's public surfaces after (and, in
// the traced run, during) a workload pass, plus the captured inputs the
// replays feed back into layers that are only reachable from inside the
// event loop: frames seen by Link::tap and the live-timer population seen
// by the simulated tracer.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "api/testbed.h"
#include "net/frame.h"
#include "net/link.h"
#include "os/world.h"
#include "proto/tcp.h"
#include "sim/cpu.h"
#include "sim/histogram.h"
#include "sim/metrics.h"
#include "sim/trace.h"

namespace perfbench {

namespace sim = ulnet::sim;

// TCP counters summed over stacks.
struct TcpTally {
  std::uint64_t segs_out = 0;
  std::uint64_t segs_in = 0;
  std::uint64_t pure_acks = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t fastpath = 0;  // header-prediction hits (acks + data)
  std::uint64_t opened = 0;
  std::uint64_t accepted = 0;

  void add(const ulnet::proto::TcpCounters& c);
  void add(const TcpTally& t);
};

// Everything the per-layer ledger is computed from, summed over every
// world one workload pass built.
struct LayerTotals {
  sim::Metrics m;
  std::array<std::uint64_t, sim::kCpuComponentCount> cpu_ns{};
  std::uint64_t loop_executed = 0;
  std::uint64_t loop_cancels = 0;
  std::uint64_t frames = 0;
  sim::Histogram tx_wait_ns;
  // Only the Testbed worlds expose their user-level organizations, so
  // these stay empty on fabric (FabricBed keeps its organizations private).
  sim::Histogram ring_residency_ns;
  sim::Histogram wakeup_latency_ns;
  sim::Histogram drain_batch;
  TcpTally tcp;           // every stack
  TcpTally registry_tcp;  // registry-server stacks only
  std::uint64_t handoff_lookups = 0;
  std::uint64_t handoff_scanned = 0;
  // Gauges sampled between run slices (peaks).
  std::uint64_t pending_peak = 0;
  std::uint64_t pool_bytes_peak = 0;
  std::uint64_t tcb_bytes_peak = 0;
  std::uint64_t conns_peak = 0;

  void add_metrics(const sim::Metrics& other);
  void add_hosts(ulnet::os::World& w);
  void add_links(const std::vector<ulnet::net::Link*>& links);
};

// Every distinct link some NIC of the world transmits on.
std::vector<ulnet::net::Link*> world_links(ulnet::os::World& w);

// Reads a Testbed's organizations into `t` (TCP stacks, registry, netio
// histograms, library drain batches). Call once, after the cell finished.
void add_testbed(LayerTotals& t, ulnet::api::Testbed& bed);

// Sum of TCB bytes over every stack of a Testbed (sampled gauge).
std::uint64_t testbed_tcb_bytes(ulnet::api::Testbed& bed);

// Inputs captured in the traced pass.
class Capture {
 public:
  static constexpr std::size_t kMaxFrames = 4096;
  static constexpr std::uint64_t kFrameStride = 7;
  static constexpr std::size_t kMaxDelays = 65536;

  // A new world starts: its hosts reuse the ordinals of the previous one,
  // and the timers a finished world left pending never fire, so the
  // per-host live counts start again from zero. The peak is kept.
  void begin_world() { live_.clear(); }
  // Consume every event the tracer holds (then clear it): timer
  // schedule/fire/cancel give the per-host live-timer population of the
  // current world, timer schedules give the delay distribution the driver
  // replay uses.
  void drain(sim::Tracer& t);
  // Link::tap: keep every kFrameStride-th frame (up to kMaxFrames).
  void frame(const ulnet::net::Frame& f);

  // Largest live-timer population of one host of one world.
  [[nodiscard]] std::uint64_t live_peak() const { return live_peak_; }
  [[nodiscard]] bool lost_events() const { return lost_; }
  [[nodiscard]] const std::vector<sim::Time>& delays() const {
    return delays_;
  }
  [[nodiscard]] const std::vector<ulnet::buf::Bytes>& frames() const {
    return frames_;
  }

 private:
  std::unordered_map<std::int32_t, std::int64_t> live_;  // host -> live
  std::uint64_t live_peak_ = 0;
  bool lost_ = false;
  std::vector<sim::Time> delays_;
  std::vector<ulnet::buf::Bytes> frames_;
  std::uint64_t frames_seen_ = 0;
};

}  // namespace perfbench
