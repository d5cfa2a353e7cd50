// Wall-clock spans recorded by the benchmark around its own calls into the
// simulator's layers. Spans are kept in memory and written out once, when
// the run ends; a disabled log costs one branch per call site, so the same
// driver code serves the untraced (end-to-end) and traced (per-layer) runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "api/net_system.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRec {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  const char* name = "";
  const char* layer = "";    // src/ module the span's callee belongs to
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t events = -1;  // event-count delta (run slices), else -1
};

class SpanLog {
 public:
  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  std::uint32_t open(const char* name, const char* layer) {
    SpanRec r;
    r.id = static_cast<std::uint32_t>(spans_.size() + 1);
    r.parent = stack_.empty() ? 0 : stack_.back();
    r.name = name;
    r.layer = layer;
    r.start_ns = now_ns();
    spans_.push_back(r);
    stack_.push_back(r.id);
    return r.id;
  }
  void close(std::uint32_t id, std::int64_t events = -1) {
    SpanRec& r = spans_[id - 1];
    r.end_ns = now_ns();
    r.events = events;
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<SpanRec>& spans() const { return spans_; }

  // One JSON array of {id, parent, name, layer, start_ns, end_ns, events}.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("[", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRec& r = spans_[i];
      std::fprintf(f,
                   "%s\n{\"id\":%u,\"parent\":%u,\"name\":\"%s\","
                   "\"layer\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"events\":%lld}",
                   i == 0 ? "" : ",", r.id, r.parent, r.name, r.layer,
                   static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns),
                   static_cast<long long>(r.events));
    }
    std::fputs("\n]\n", f);
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  std::vector<SpanRec> spans_;
  std::vector<std::uint32_t> stack_;
};

// RAII span; inert when the log is disabled.
class Span {
 public:
  Span(SpanLog& log, const char* name, const char* layer)
      : log_(log), id_(log.enabled() ? log.open(name, layer) : 0) {}
  ~Span() {
    if (id_ != 0) log_.close(id_, events_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void set_events(std::uint64_t n) { events_ = static_cast<std::int64_t>(n); }

 private:
  SpanLog& log_;
  std::uint32_t id_;
  std::int64_t events_ = -1;
};

// NetSystem decorator: forwards every call to the organization's own
// implementation, wrapping the socket calls in `api.*` spans.
class TracedNet final : public ulnet::api::NetSystem {
 public:
  TracedNet(ulnet::api::NetSystem& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  bool listen(std::uint16_t port,
              std::function<ulnet::api::SocketEvents(ulnet::api::SocketId)>
                  acceptor) override {
    const Span s(log_, "api.listen", "api");
    return inner_.listen(port, std::move(acceptor));
  }
  void connect(ulnet::net::Ipv4Addr dst, std::uint16_t port,
               ulnet::api::SocketEvents evs,
               std::function<void(ulnet::api::SocketId)> done) override {
    const Span s(log_, "api.connect", "api");
    inner_.connect(dst, port, std::move(evs), std::move(done));
  }
  std::size_t send(ulnet::api::SocketId id,
                   ulnet::buf::ByteView data) override {
    const Span s(log_, "api.send", "api");
    return inner_.send(id, data);
  }
  ulnet::buf::Bytes recv(ulnet::api::SocketId id, std::size_t max) override {
    const Span s(log_, "api.recv", "api");
    return inner_.recv(id, max);
  }
  std::vector<ulnet::buf::RxChunk> recv_zc(ulnet::api::SocketId id,
                                           std::size_t max) override {
    return inner_.recv_zc(id, max);
  }
  void release_chunks(std::vector<ulnet::buf::RxChunk>& chunks) override {
    inner_.release_chunks(chunks);
  }
  [[nodiscard]] std::size_t send_space(ulnet::api::SocketId id) override {
    return inner_.send_space(id);
  }
  [[nodiscard]] std::size_t bytes_available(
      ulnet::api::SocketId id) override {
    return inner_.bytes_available(id);
  }
  void close(ulnet::api::SocketId id) override {
    const Span s(log_, "api.close", "api");
    inner_.close(id);
  }
  void release(ulnet::api::SocketId id) override { inner_.release(id); }
  void run_app(std::function<void(ulnet::sim::TaskCtx&)> fn) override {
    inner_.run_app(std::move(fn));
  }
  [[nodiscard]] ulnet::sim::SpaceId app_space() const override {
    return inner_.app_space();
  }
  [[nodiscard]] const std::string& app_name() const override {
    return inner_.app_name();
  }

 private:
  ulnet::api::NetSystem& inner_;
  SpanLog& log_;
};

}  // namespace perfbench
