#include "harness/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "api/fabric_bed.h"
#include "api/testbed.h"
#include "sim/rng.h"

namespace perfbench {

using ulnet::api::FabricBed;
using ulnet::api::FabricConfig;
using ulnet::api::LinkType;
using ulnet::api::OrgType;
using ulnet::api::SocketEvents;
using ulnet::api::SocketId;
using ulnet::api::Testbed;
using ulnet::buf::Bytes;
using ulnet::buf::ByteView;
using ulnet::os::World;
using sim::Time;

namespace {

constexpr Time kOpenAt = 50 * sim::kMs;   // listeners settle before this
constexpr Time kSlice = 10 * sim::kMs;    // one os.run_until span
constexpr Time kDeadline = 600 * sim::kSec;
constexpr std::size_t kWarmup = 64 * 1024;
constexpr std::size_t kAll = std::numeric_limits<std::size_t>::max();

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// The seed's payload: every stream offset maps to one byte, so a receiver
// verifies order and content without keeping a copy.
std::uint8_t pattern(std::uint32_t key, std::size_t off) {
  return static_cast<std::uint8_t>(((off * 13 + (off >> 8) + key) ^ (key >> 8)) &
                                   0xFF);
}
Bytes pattern_bytes(std::uint32_t key, std::size_t off, std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = pattern(key, off + i);
  return b;
}
bool verify(std::uint32_t key, std::size_t off, ByteView data) {
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (data[i] != pattern(key, off + i)) return false;
  }
  return true;
}

// Run `w` in kSlice steps until `done()`; each step is one os.run_until
// span carrying its event-count delta. In the traced pass the simulated
// tracer is drained and `sample()` reads the gauges after every step.
template <class Done, class Sample>
std::uint64_t run_slices(World& w, const PassConfig& cfg, Done done,
                         Sample sample) {
  if (cfg.capture != nullptr) cfg.capture->begin_world();
  std::uint64_t events = 0;
  Time t = w.now();
  while (!done() && t < kDeadline) {
    t += kSlice;
    {
      Span s(*cfg.spans, "os.run_until", "os");
      const std::uint64_t n = w.run_until(t);
      s.set_events(n);
      events += n;
    }
    if (cfg.capture != nullptr) {
      cfg.capture->drain(w.tracer());
      sample();
    }
  }
  return events;
}

// Pre-run instrumentation of a Testbed for the traced pass.
void instrument(Testbed& bed, const PassConfig& cfg) {
  if (cfg.capture == nullptr) return;
  bed.world().tracer().set_enabled(true);
  Capture* cap = cfg.capture;
  bed.link().tap = [cap](const ulnet::net::Frame& f) { cap->frame(f); };
}

// Post-run accounting of a finished Testbed cell for the traced pass.
void account(Testbed& bed, const PassConfig& cfg) {
  if (cfg.layers == nullptr) return;
  LayerTotals& t = *cfg.layers;
  World& w = bed.world();
  t.add_metrics(w.metrics());
  t.add_hosts(w);
  t.add_links({&bed.link()});
  t.loop_executed += w.loop().executed();
  t.loop_cancels += w.loop().cancels();
  add_testbed(t, bed);
}

void sample_testbed(Testbed& bed, const PassConfig& cfg) {
  LayerTotals& t = *cfg.layers;
  World& w = bed.world();
  t.pending_peak = std::max<std::uint64_t>(t.pending_peak, w.loop().pending());
  t.pool_bytes_peak =
      std::max<std::uint64_t>(t.pool_bytes_peak, w.pool().resident_bytes());
  t.tcb_bytes_peak = std::max(t.tcb_bytes_peak, testbed_tcb_bytes(bed));
}

std::string cell_digest(Testbed& bed, const std::string& tallies) {
  return bed.world().metrics().dump_json() + " now=" +
         std::to_string(bed.world().now()) + " " + tallies + "\n";
}

// The seed picks the payload bytes every receiver verifies.
std::uint32_t payload_key(std::uint64_t seed) {
  sim::Rng rng(seed);
  return rng.next_u32();
}

// The set-up phase of a pass: build its worlds, timed into r.setup_s.
template <class Build>
auto timed_setup(const PassConfig& cfg, PassResult& r, Build build) {
  const std::int64_t t0 = now_ns();
  const Span s(*cfg.spans, "setup", "setup");
  auto built = build();
  r.setup_s = seconds_since(t0);
  return built;
}

// Finish building bulk/rpc cells: listeners installed, each world run to
// kOpenAt.
template <class Cell>
void settle(std::vector<std::unique_ptr<Cell>>& cells, const PassConfig& cfg) {
  for (auto& c : cells) {
    instrument(c->bed(), cfg);
    c->listen();
    c->bed().world().run_until(kOpenAt);
  }
}

// The measured phase of a bulk/rpc pass: each cell in turn, timed into
// r.wall_s.
template <class Cell, class Start>
void run_cells(std::vector<std::unique_ptr<Cell>>& cells, const PassConfig& cfg,
               PassResult& r, Start start) {
  const std::int64_t t0 = now_ns();
  for (auto& c : cells) {
    start(*c);
    r.events += run_slices(
        c->bed().world(), cfg, [&] { return c->done(); },
        [&] { sample_testbed(c->bed(), cfg); });
  }
  r.wall_s = seconds_since(t0);
}

// ---------------------------------------------------------------------------
// bulk: the paper's five Table 2 system/link rows x {512, 4096} B writes,
// one verified one-way stream per cell, one connection at a time.
// ---------------------------------------------------------------------------

struct Row {
  const char* label;
  OrgType org;
  LinkType link;
};
constexpr Row kRows[5] = {
    {"Ethernet / Ultrix 4.2A", OrgType::kInKernel, LinkType::kEthernet},
    {"Ethernet / Mach 3.0+UX (mapped)", OrgType::kSingleServer,
     LinkType::kEthernet},
    {"Ethernet / user-level library", OrgType::kUserLevel,
     LinkType::kEthernet},
    {"AN1 / Ultrix 4.2A", OrgType::kInKernel, LinkType::kAn1},
    {"AN1 / user-level library", OrgType::kUserLevel, LinkType::kAn1},
};
// Paper Table 2 (Mb/s) at 512 and 4096 B writes, Table 3 (ms) at 1 and
// 1460 B, Table 4 (ms), row for row with kRows.
constexpr double kTable2[5][2] = {
    {5.8, 7.6}, {2.1, 3.5}, {4.3, 5.0}, {4.8, 11.9}, {6.7, 11.9}};
constexpr std::size_t kBulkWrites[2] = {512, 4096};
constexpr double kTable3[5][2] = {
    {1.6, 6.2}, {7.8, 16.0}, {2.8, 9.9}, {1.8, 3.2}, {2.7, 4.7}};
constexpr std::size_t kRpcSizes[2] = {1, 1460};
constexpr double kTable4[5] = {2.6, 6.8, 11.9, 2.9, 12.3};

constexpr std::uint16_t kBulkPort = 5001;
constexpr double kBulkBytes = 2.0 * 1024 * 1024;
constexpr std::uint16_t kRpcPort = 5002;

class BulkCell {
 public:
  BulkCell(const Row& row, std::size_t write, std::size_t total,
           std::uint32_t key, const PassConfig& cfg)
      : bed_(row.org, row.link, cfg.seed),
        cli_(bed_.app_a(), *cfg.spans),
        srv_(bed_.app_b(), *cfg.spans),
        write_(write),
        total_(total),
        key_(key),
        warmup_(total > 2 * kWarmup ? kWarmup : 0) {}

  Testbed& bed() { return bed_; }
  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] bool ok() const {
    return done_ && valid_ && error_.empty() && received_ == total_;
  }

  void listen() {
    srv_.run_app([this](sim::TaskCtx&) {
      srv_.listen(kBulkPort, [this](SocketId id) {
        server_sock_ = id;
        SocketEvents evs;
        evs.on_readable = [this](std::size_t) { on_server_readable(); };
        evs.on_eof = [this] { srv_.close(server_sock_); };
        evs.on_closed = [this](const std::string&) { done_ = true; };
        return evs;
      });
    });
  }

  void start() {
    open_at_ = bed_.world().now();
    cli_.run_app([this](sim::TaskCtx&) {
      SocketEvents evs;
      evs.on_established = [this] {
        setup_ns_ = bed_.world().now() - open_at_;
        cli_.run_app([this](sim::TaskCtx&) { pump(); });
      };
      evs.on_writable = [this] {
        cli_.run_app([this](sim::TaskCtx&) { pump(); });
      };
      evs.on_closed = [this](const std::string& reason) {
        if (!reason.empty()) {
          error_ = reason;
          done_ = true;
        }
      };
      cli_.connect(bed_.ip_b(), kBulkPort, std::move(evs),
                   [this](SocketId id) { client_sock_ = id; });
    });
  }

  // Steady-state window (post-warmup first byte to last byte).
  [[nodiscard]] double window_bytes() const {
    return static_cast<double>(measured_);
  }
  [[nodiscard]] double window_ns() const {
    return static_cast<double>(last_byte_ - first_byte_);
  }
  [[nodiscard]] double goodput_mbps() const {
    return window_ns() > 0 ? window_bytes() * 8e3 / window_ns() : 0;
  }
  [[nodiscard]] Time setup_ns() const { return setup_ns_; }
  [[nodiscard]] std::string tallies() const {
    return "rx=" + std::to_string(received_) + " valid=" +
           std::to_string(valid_) + " first=" + std::to_string(first_byte_) +
           " last=" + std::to_string(last_byte_);
  }

 private:
  void pump() {
    // One write per task: the era's blocking-write measurement programs.
    if (sent_ < total_) {
      const std::size_t n = std::min(write_, total_ - sent_);
      const std::size_t took =
          cli_.send(client_sock_, pattern_bytes(key_, sent_, n));
      sent_ += took;
      if (took < n) return;  // resumes on on_writable
      cli_.run_app([this](sim::TaskCtx&) { pump(); });
      return;
    }
    if (!close_issued_) {
      close_issued_ = true;
      cli_.close(client_sock_);
    }
  }

  void on_server_readable() {
    const Bytes data = srv_.recv(server_sock_, kAll);
    if (data.empty()) return;
    if (!verify(key_, received_, data)) valid_ = false;
    const Time now = bed_.world().now();
    if (first_byte_ == 0 && received_ + data.size() > warmup_) {
      first_byte_ = now;
    }
    received_ += data.size();
    if (first_byte_ != 0) {
      measured_ = received_ - warmup_;
      last_byte_ = now;
    }
  }

  Testbed bed_;
  TracedNet cli_;
  TracedNet srv_;
  std::size_t write_;
  std::size_t total_;
  std::uint32_t key_;
  std::size_t warmup_;
  SocketId client_sock_ = ulnet::api::kInvalidSocket;
  SocketId server_sock_ = ulnet::api::kInvalidSocket;
  std::size_t sent_ = 0;
  std::size_t received_ = 0;
  std::size_t measured_ = 0;
  bool close_issued_ = false;
  bool done_ = false;
  bool valid_ = true;
  std::string error_;
  Time open_at_ = 0;
  Time setup_ns_ = 0;
  Time first_byte_ = 0;
  Time last_byte_ = 0;
};

std::vector<std::unique_ptr<BulkCell>> build_bulk(const PassConfig& cfg) {
  // 2 MiB per stream: the steady-state window past the 64 KiB warmup
  // dominates on every row. The seed picks the payload, not the amount of
  // work, so wall time compares across seeds.
  const auto total = static_cast<std::size_t>(kBulkBytes * cfg.scale);
  const std::uint32_t key = payload_key(cfg.seed);
  std::vector<std::unique_ptr<BulkCell>> cells;
  for (const Row& row : kRows) {
    for (const std::size_t write : kBulkWrites) {
      cells.push_back(std::make_unique<BulkCell>(row, write, total, key, cfg));
    }
  }
  settle(cells, cfg);
  return cells;
}

// ---------------------------------------------------------------------------
// rpc: the Table 3/4 rows x {1, 1460} B request/response, closed loop with
// one outstanding request per connection, plus connect/close churn.
// ---------------------------------------------------------------------------

constexpr int kRpcConns = 256;
constexpr int kRpcRounds = 4;

class RpcCell {
 public:
  RpcCell(const Row& row, std::size_t size, int conns, std::uint32_t key,
          const PassConfig& cfg)
      : bed_(row.org, row.link, cfg.seed),
        cli_(bed_.app_a(), *cfg.spans),
        srv_(bed_.app_b(), *cfg.spans),
        size_(size),
        conns_(conns),
        key_(key) {}

  Testbed& bed() { return bed_; }
  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] int rounds_done() const { return rounds_done_; }
  [[nodiscard]] int conns_done() const { return conns_ok_; }
  [[nodiscard]] bool valid() const { return valid_ && error_.empty(); }
  [[nodiscard]] const sim::Stats& rtt_us() const { return rtt_us_; }
  [[nodiscard]] const sim::Stats& setup_us() const { return setup_us_; }
  [[nodiscard]] double rtt_ns_total() const { return rtt_ns_total_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  // Most connections not yet released at once (TIME_WAIT included).
  [[nodiscard]] std::uint64_t live_peak() const { return live_peak_; }
  [[nodiscard]] std::string tallies() const {
    return "rounds=" + std::to_string(rounds_done_) + " conns=" +
           std::to_string(conns_ok_) + " valid=" + std::to_string(valid_) +
           " rtt_ns=" + std::to_string(static_cast<long long>(rtt_ns_total_));
  }

  void listen() {
    srv_.run_app([this](sim::TaskCtx&) {
      srv_.listen(kRpcPort, [this](SocketId id) {
        server_.emplace(id, ServerConn{});
        SocketEvents evs;
        evs.on_readable = [this, id](std::size_t) { on_server_readable(id); };
        evs.on_writable = [this, id] {
          srv_.run_app([this, id](sim::TaskCtx&) { server_pump(id); });
        };
        evs.on_eof = [this, id] { srv_.close(id); };
        evs.on_closed = [this, id](const std::string&) {
          srv_.run_app([this, id](sim::TaskCtx&) {
            srv_.release(id);
            server_.erase(id);
          });
        };
        return evs;
      });
    });
  }

  // User-level rows also pour their samples into the pass-wide stats.
  void start(sim::Stats* rtt_sink, sim::Stats* setup_sink) {
    rtt_sink_ = rtt_sink;
    setup_sink_ = setup_sink;
    cli_.run_app([this](sim::TaskCtx&) { next_conn(); });
  }

 private:
  struct ServerConn {
    std::size_t rx = 0;
    Bytes out;
    std::size_t out_off = 0;
  };

  void next_conn() {
    if (conns_started_ == conns_) {
      done_ = true;
      return;
    }
    conns_started_++;
    rounds_in_conn_ = 0;
    tx_off_ = 0;
    rx_off_ = 0;
    conn_start_ = bed_.world().now();
    // The socket outlives its turn: the next connection opens as soon as
    // the peer's FIN arrives, while this one sits out TIME_WAIT and is
    // released when it finally closes.
    auto id = std::make_shared<SocketId>(ulnet::api::kInvalidSocket);
    SocketEvents evs;
    evs.on_established = [this] {
      const double us = sim::to_us(bed_.world().now() - conn_start_);
      setup_us_.add(us);
      if (setup_sink_ != nullptr) setup_sink_->add(us);
      cli_.run_app([this](sim::TaskCtx&) { begin_round(); });
    };
    evs.on_writable = [this] {
      cli_.run_app([this](sim::TaskCtx&) { client_pump(); });
    };
    evs.on_readable = [this](std::size_t) { on_client_readable(); };
    evs.on_eof = [this] {
      cli_.run_app([this](sim::TaskCtx&) {
        if (rounds_in_conn_ == kRpcRounds) conns_ok_++;
        next_conn();
      });
    };
    evs.on_closed = [this, id](const std::string& reason) {
      if (!reason.empty()) {
        error_ = reason;
        done_ = true;
      }
      cli_.run_app([this, id](sim::TaskCtx&) {
        cli_.release(*id);
        live_--;
      });
    };
    live_peak_ = std::max(live_peak_, ++live_);
    cli_.connect(bed_.ip_b(), kRpcPort, std::move(evs),
                 [this, id](SocketId got) {
                   *id = got;
                   sock_ = got;
                 });
  }

  void begin_round() {
    round_start_ = bed_.world().now();
    sent_in_round_ = 0;
    got_in_round_ = 0;
    client_pump();
  }

  void client_pump() {
    while (sent_in_round_ < size_) {
      const std::size_t n = size_ - sent_in_round_;
      const std::size_t took = cli_.send(sock_, pattern_bytes(key_, tx_off_, n));
      tx_off_ += took;
      sent_in_round_ += took;
      if (took < n) return;
    }
  }

  void on_client_readable() {
    const Bytes data = cli_.recv(sock_, kAll);
    if (!verify(key_, rx_off_, data)) valid_ = false;
    rx_off_ += data.size();
    got_in_round_ += data.size();
    if (got_in_round_ < size_) return;
    const Time rtt = bed_.world().now() - round_start_;
    rtt_us_.add(sim::to_us(rtt));
    if (rtt_sink_ != nullptr) rtt_sink_->add(sim::to_us(rtt));
    rtt_ns_total_ += static_cast<double>(rtt);
    rounds_done_++;
    rounds_in_conn_++;
    if (rounds_in_conn_ < kRpcRounds) {
      cli_.run_app([this](sim::TaskCtx&) { begin_round(); });
    } else {
      cli_.run_app([this](sim::TaskCtx&) { cli_.close(sock_); });
    }
  }

  void on_server_readable(SocketId id) {
    ServerConn& sc = server_.at(id);
    const Bytes data = srv_.recv(id, kAll);
    if (!verify(key_, sc.rx, data)) valid_ = false;
    sc.rx += data.size();
    sc.out.insert(sc.out.end(), data.begin(), data.end());
    srv_.run_app([this, id](sim::TaskCtx&) { server_pump(id); });
  }

  void server_pump(SocketId id) {
    const auto it = server_.find(id);
    if (it == server_.end()) return;
    ServerConn& sc = it->second;
    while (sc.out_off < sc.out.size()) {
      const std::size_t took = srv_.send(
          id, ByteView(sc.out.data() + sc.out_off, sc.out.size() - sc.out_off));
      if (took == 0) return;  // resumes on on_writable
      sc.out_off += took;
    }
    sc.out.clear();
    sc.out_off = 0;
  }

  Testbed bed_;
  TracedNet cli_;
  TracedNet srv_;
  std::size_t size_;
  int conns_;
  std::uint32_t key_;
  std::unordered_map<SocketId, ServerConn> server_;
  SocketId sock_ = ulnet::api::kInvalidSocket;
  std::uint64_t live_ = 0;
  std::uint64_t live_peak_ = 0;
  int conns_started_ = 0;
  int conns_ok_ = 0;
  int rounds_in_conn_ = 0;
  int rounds_done_ = 0;
  std::size_t tx_off_ = 0;
  std::size_t rx_off_ = 0;
  std::size_t sent_in_round_ = 0;
  std::size_t got_in_round_ = 0;
  Time conn_start_ = 0;
  Time round_start_ = 0;
  bool done_ = false;
  bool valid_ = true;
  std::string error_;
  double rtt_ns_total_ = 0;
  sim::Stats rtt_us_;
  sim::Stats setup_us_;
  sim::Stats* rtt_sink_ = nullptr;
  sim::Stats* setup_sink_ = nullptr;
};

int rpc_conns(double scale) {
  return std::max(1, static_cast<int>(std::lround(kRpcConns * scale)));
}

std::vector<std::unique_ptr<RpcCell>> build_rpc(const PassConfig& cfg) {
  const std::uint32_t key = payload_key(cfg.seed);
  std::vector<std::unique_ptr<RpcCell>> cells;
  for (const Row& row : kRows) {
    for (const std::size_t size : kRpcSizes) {
      cells.push_back(std::make_unique<RpcCell>(row, size,
                                                rpc_conns(cfg.scale), key, cfg));
    }
  }
  settle(cells, cfg);
  return cells;
}

// ---------------------------------------------------------------------------
// fabric: api::FabricBed on the serial reference executor, 16 pairs x 640
// concurrent connections (the bench_scale_fabric grid/p16/c640 cell).
// ---------------------------------------------------------------------------

constexpr int kFabricPairs = 16;
constexpr int kFabricConnsPerPair = 640;

FabricConfig fabric_config(std::uint64_t seed, double scale) {
  FabricConfig fc;
  fc.pairs = kFabricPairs;
  fc.conns_per_pair = std::max(
      1, static_cast<int>(std::lround(kFabricConnsPerPair * scale)));
  fc.bytes_per_conn = 4096;
  fc.seed = seed;
  return fc;
}

// FabricBed::fingerprint_text() carries every per-host TCP counter block
// (" <tag> so=.. si=.. bo=.. bi=.. rtx=.. to=.. da=.. pa=.. ooo=.. co=..
// ca=.."); the bed keeps its stacks private, so the ledger reads them here.
// Returns the number of blocks read: four per pair (cli, srv, creg, sreg).
int add_fabric_tcp(LayerTotals& t, const std::string& text) {
  std::istringstream in(text);
  std::string line;
  int blocks = 0;
  while (std::getline(in, line)) {
    char tag[8] = {};
    unsigned long long so = 0, si = 0, bo = 0, bi = 0, rtx = 0, to = 0,
                       da = 0, pa = 0, ooo = 0, co = 0, ca = 0;
    if (std::sscanf(line.c_str(),
                    " %7s so=%llu si=%llu bo=%llu bi=%llu rtx=%llu to=%llu "
                    "da=%llu pa=%llu ooo=%llu co=%llu ca=%llu",
                    tag, &so, &si, &bo, &bi, &rtx, &to, &da, &pa, &ooo, &co,
                    &ca) != 12) {
      continue;
    }
    TcpTally x;
    x.segs_out = so;
    x.segs_in = si;
    x.pure_acks = pa;
    x.retransmits = rtx;
    x.opened = co;
    x.accepted = ca;
    t.tcp.add(x);
    if (std::strcmp(tag, "creg") == 0 || std::strcmp(tag, "sreg") == 0) {
      t.registry_tcp.add(x);
    }
    blocks++;
  }
  return blocks;
}

}  // namespace

PassResult run_bulk(const PassConfig& cfg) {
  PassResult r;
  auto cells = timed_setup(cfg, r, [&] { return build_bulk(cfg); });
  run_cells(cells, cfg, r, [](BulkCell& c) { c.start(); });

  std::string digest;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    BulkCell& c = *cells[i];
    r.attempted++;
    if (!c.ok()) r.failed++;
    r.frames += c.bed().link().frames_sent();
    digest += cell_digest(c.bed(), c.tallies());
    account(c.bed(), cfg);
    const std::size_t row = i / 2;
    if (kRows[row].org == OrgType::kUserLevel) {
      r.goodput_bytes += c.window_bytes();
      r.goodput_ns += c.window_ns();
      r.setup_us.add(sim::to_us(c.setup_ns()));
    }
    r.paper.push_back({std::string(kRows[row].label) + " / " +
                           std::to_string(kBulkWrites[i % 2]) + " B",
                       c.goodput_mbps(), kTable2[row][i % 2]});
  }
  r.conns_peak = 1;
  if (cfg.layers != nullptr) cfg.layers->conns_peak = 1;
  r.fingerprint = hex(fnv1a(digest));
  return r;
}

PassResult run_rpc(const PassConfig& cfg) {
  PassResult r;
  auto cells = timed_setup(cfg, r, [&] { return build_rpc(cfg); });
  run_cells(cells, cfg, r, [&r](RpcCell& c) {
    const bool ul = c.bed().org() == OrgType::kUserLevel;
    c.start(ul ? &r.rtt_us : nullptr, ul ? &r.setup_us : nullptr);
  });

  const int conns = rpc_conns(cfg.scale);
  std::string digest;
  double setup_ms[5][2] = {};
  for (std::size_t i = 0; i < cells.size(); ++i) {
    RpcCell& c = *cells[i];
    const std::uint64_t want_rounds =
        static_cast<std::uint64_t>(conns) * kRpcRounds;
    r.attempted += want_rounds + static_cast<std::uint64_t>(conns);
    std::uint64_t good = static_cast<std::uint64_t>(c.rounds_done()) +
                         static_cast<std::uint64_t>(c.conns_done());
    if (!c.valid()) good = 0;  // an unverified byte fails the whole cell
    r.failed += want_rounds + static_cast<std::uint64_t>(conns) -
                std::min(good, want_rounds + conns);
    r.frames += c.bed().link().frames_sent();
    r.conns_peak = std::max(r.conns_peak, c.live_peak());
    digest += cell_digest(c.bed(), c.tallies());
    account(c.bed(), cfg);
    const std::size_t row = i / 2;
    if (kRows[row].org == OrgType::kUserLevel) {
      r.goodput_bytes += 2.0 * static_cast<double>(c.size()) *
                         static_cast<double>(c.rounds_done());
      r.goodput_ns += c.rtt_ns_total();
    }
    const double rtt_ms = c.rtt_us().empty() ? 0 : c.rtt_us().mean() / 1e3;
    r.paper.push_back({std::string(kRows[row].label) + " / rtt " +
                           std::to_string(kRpcSizes[i % 2]) + " B",
                       rtt_ms, kTable3[row][i % 2]});
    setup_ms[row][i % 2] =
        c.setup_us().empty() ? 0 : c.setup_us().mean() / 1e3;
  }
  for (std::size_t row = 0; row < 5; ++row) {
    r.paper.push_back({std::string(kRows[row].label) + " / setup",
                       (setup_ms[row][0] + setup_ms[row][1]) / 2,
                       kTable4[row]});
  }
  if (cfg.layers != nullptr) cfg.layers->conns_peak = r.conns_peak;
  r.fingerprint = hex(fnv1a(digest));
  return r;
}

PassResult run_fabric(const PassConfig& cfg) {
  PassResult r;
  FabricConfig fc = fabric_config(cfg.seed, cfg.scale);
  // In the traced pass the telemetry sampler is the only hook that runs
  // between FabricBed's internal run slices; its probe drains the tracers
  // and reads the gauges. Telemetry leaves the simulation bit-identical.
  if (cfg.capture != nullptr) fc.telemetry_cadence = 1 * sim::kMs;

  const auto bed = timed_setup(cfg, r, [&] {
    return std::make_unique<FabricBed>(ulnet::os::PartitionMode::kShardedSerial,
                                       fc);
  });

  World& w = bed->world();
  const std::vector<ulnet::net::Link*> links = world_links(w);
  Time first_frame = -1;
  Time last_frame = 0;
  Capture* cap = cfg.capture;
  // The makespan (first to last frame) is read by a tap on every link, so
  // only a pass whose simulated outputs are reported pays for it.
  const bool tapped = cfg.sim_outputs || cap != nullptr;
  if (tapped) {
    for (ulnet::net::Link* l : links) {
      l->tap = [&w, &first_frame, &last_frame,
                cap](const ulnet::net::Frame& f) {
        const Time now = w.now();
        if (first_frame < 0) first_frame = now;
        last_frame = now;
        if (cap != nullptr) cap->frame(f);
      };
    }
  }
  if (cap != nullptr) {
    cap->begin_world();
    for (const auto& p : w.partitions()) p->tracer.set_enabled(true);
    LayerTotals* t = cfg.layers;
    FabricBed* b = bed.get();
    bed->telemetry().register_gauge("perfbench.probe", [&w, cap, t, b] {
      for (const auto& p : w.partitions()) cap->drain(p->tracer);
      t->pending_peak =
          std::max<std::uint64_t>(t->pending_peak, w.loop().pending());
      t->pool_bytes_peak =
          std::max<std::uint64_t>(t->pool_bytes_peak, b->pool_bytes_resident());
      return std::uint64_t{0};
    });
  }

  const std::int64_t t1 = now_ns();
  bool ok = false;
  {
    const Span s(*cfg.spans, "api.FabricBed.run", "api");
    ok = bed->run(1);
  }
  r.wall_s = seconds_since(t1);
  for (ulnet::net::Link* l : links) l->tap = nullptr;

  const auto conns = static_cast<std::uint64_t>(bed->total_conns());
  r.attempted = conns;
  r.failed = ok ? 0 : conns;
  r.events = bed->events_executed();
  r.conns_peak = static_cast<std::uint64_t>(bed->peak_established());
  for (ulnet::net::Link* l : links) r.frames += l->frames_sent();
  r.fingerprint = hex(bed->fingerprint());
  if (tapped) {
    r.goodput_bytes = static_cast<double>(conns * fc.bytes_per_conn);
    r.goodput_ns = static_cast<double>(last_frame - first_frame);
  }

  if (cfg.layers != nullptr) {
    LayerTotals& t = *cfg.layers;
    for (const auto& p : w.partitions()) cap->drain(p->tracer);
    t.add_metrics(bed->metrics());
    t.add_hosts(w);
    t.add_links(links);
    t.loop_executed += w.loop().executed();
    t.loop_cancels += w.loop().cancels();
    // A block the parse missed would silently zero the proto.tcp and
    // core.registry metrics; count it as a failed pass instead.
    if (add_fabric_tcp(t, bed->fingerprint_text()) != 4 * fc.pairs) {
      r.failed = conns;
    }
    t.handoff_lookups += bed->handoff_lookups();
    t.handoff_scanned += bed->handoff_entries_scanned();
    t.pool_bytes_peak = std::max<std::uint64_t>(t.pool_bytes_peak,
                                                bed->peak_pool_bytes());
    t.tcb_bytes_peak = bed->peak_tcb_bytes();
    t.conns_peak = r.conns_peak;
  }
  return r;
}

double setup_only(const std::string& workload, std::uint64_t seed) {
  SpanLog off;
  PassConfig cfg;
  cfg.seed = seed;
  cfg.spans = &off;
  const std::int64_t t0 = now_ns();
  if (workload == "bulk") {
    const auto cells = build_bulk(cfg);
    return seconds_since(t0);
  }
  if (workload == "rpc") {
    const auto cells = build_rpc(cfg);
    return seconds_since(t0);
  }
  const FabricBed bed(ulnet::os::PartitionMode::kShardedSerial,
                      fabric_config(seed, 1.0));
  return seconds_since(t0);
}

ExecProbe run_fabric_partitioned(std::uint64_t seed, int threads) {
  ExecProbe e;
  FabricConfig fc = fabric_config(seed, 1.0);
  // The executor's busy/stall wall clocks are kept only while telemetry
  // is on.
  fc.telemetry_cadence = 10 * sim::kMs;
  FabricBed bed(ulnet::os::PartitionMode::kPartitioned, fc);
  const std::int64_t t0 = now_ns();
  e.ok = bed.run(threads);
  e.wall_s = seconds_since(t0);
  e.fingerprint = hex(bed.fingerprint());
  const World::ExecStats& st = bed.world().exec_stats();
  double busy = 0;
  double stall = 0;
  for (const std::uint64_t v : st.part_busy_ns) busy += static_cast<double>(v);
  for (const std::uint64_t v : st.part_stall_ns) stall += static_cast<double>(v);
  e.stall_frac = busy + stall > 0 ? stall / (busy + stall) : 0;
  return e;
}

}  // namespace perfbench
