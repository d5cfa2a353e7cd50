#include "harness/probes.h"

#include <algorithm>

#include "baseline/inkernel.h"
#include "baseline/single_server.h"
#include "core/user_level.h"

namespace perfbench {

using ulnet::api::Testbed;

void TcpTally::add(const ulnet::proto::TcpCounters& c) {
  segs_out += c.segments_sent;
  segs_in += c.segments_received;
  pure_acks += c.pure_acks_sent;
  retransmits += c.retransmits;
  fastpath += c.fast_path_acks + c.fast_path_data;
  opened += c.conns_opened;
  accepted += c.conns_accepted;
}

void TcpTally::add(const TcpTally& t) {
  segs_out += t.segs_out;
  segs_in += t.segs_in;
  pure_acks += t.pure_acks;
  retransmits += t.retransmits;
  fastpath += t.fastpath;
  opened += t.opened;
  accepted += t.accepted;
}

void LayerTotals::add_metrics(const sim::Metrics& other) {
  // Metrics only offers a field-wise difference; a - (0 - b) is the
  // field-wise sum in unsigned (mod 2^64) arithmetic.
  m = m.delta_since(sim::Metrics{}.delta_since(other));
}

void LayerTotals::add_hosts(ulnet::os::World& w) {
  for (const auto& h : w.hosts()) {
    const auto& prof = h->cpu().profile();
    for (int c = 0; c < sim::kCpuComponentCount; ++c) {
      cpu_ns[static_cast<std::size_t>(c)] +=
          static_cast<std::uint64_t>(prof[static_cast<std::size_t>(c)]);
    }
  }
}

void LayerTotals::add_links(const std::vector<ulnet::net::Link*>& links) {
  for (ulnet::net::Link* l : links) {
    frames += l->frames_sent();
    tx_wait_ns.merge(l->tx_wait_hist());
  }
}

std::vector<ulnet::net::Link*> world_links(ulnet::os::World& w) {
  std::vector<ulnet::net::Link*> out;
  for (const auto& h : w.hosts()) {
    for (const auto& ifc : h->interfaces()) {
      ulnet::net::Link* l = &ifc.nic->link();
      if (std::find(out.begin(), out.end(), l) == out.end()) out.push_back(l);
    }
  }
  return out;
}

void add_testbed(LayerTotals& t, Testbed& bed) {
  switch (bed.org()) {
    case ulnet::api::OrgType::kInKernel:
      t.tcp.add(bed.ik_org_a()->stack().tcp().counters());
      t.tcp.add(bed.ik_org_b()->stack().tcp().counters());
      break;
    case ulnet::api::OrgType::kSingleServer:
    case ulnet::api::OrgType::kDedicated:
      t.tcp.add(bed.ss_org_a()->stack().tcp().counters());
      t.tcp.add(bed.ss_org_b()->stack().tcp().counters());
      break;
    case ulnet::api::OrgType::kUserLevel:
      for (int side = 0; side < 2; ++side) {
        ulnet::core::UserLevelOrg& org =
            side == 0 ? *bed.user_org_a() : *bed.user_org_b();
        ulnet::core::UserLevelApp& app =
            side == 0 ? *bed.user_app_a() : *bed.user_app_b();
        t.tcp.add(app.library_stack().tcp().counters());
        TcpTally reg;
        reg.add(org.registry().stack().tcp().counters());
        t.tcp.add(reg);
        t.registry_tcp.add(reg);
        t.handoff_lookups += org.registry().handoff_lookups();
        t.handoff_scanned += org.registry().handoff_entries_scanned();
        for (std::size_t i = 0; i < org.netio_count(); ++i) {
          t.ring_residency_ns.merge(
              org.netio(static_cast<int>(i)).ring_residency_hist());
          t.wakeup_latency_ns.merge(
              org.netio(static_cast<int>(i)).wakeup_latency_hist());
        }
        t.drain_batch.merge(app.drain_batch_hist());
      }
      break;
  }
}

std::uint64_t testbed_tcb_bytes(Testbed& bed) {
  std::uint64_t n = 0;
  switch (bed.org()) {
    case ulnet::api::OrgType::kInKernel:
      n += bed.ik_org_a()->stack().tcp().tcb_bytes();
      n += bed.ik_org_b()->stack().tcp().tcb_bytes();
      break;
    case ulnet::api::OrgType::kSingleServer:
    case ulnet::api::OrgType::kDedicated:
      n += bed.ss_org_a()->stack().tcp().tcb_bytes();
      n += bed.ss_org_b()->stack().tcp().tcb_bytes();
      break;
    case ulnet::api::OrgType::kUserLevel:
      n += bed.user_app_a()->library_stack().tcp().tcb_bytes();
      n += bed.user_app_b()->library_stack().tcp().tcb_bytes();
      n += bed.user_org_a()->registry().stack().tcp().tcb_bytes();
      n += bed.user_org_b()->registry().stack().tcp().tcb_bytes();
      break;
  }
  return n;
}

void Capture::drain(sim::Tracer& t) {
  if (t.overwritten() > 0) lost_ = true;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const sim::TraceEvent& e = t.at(i);
    switch (e.type) {
      case sim::TraceEventType::kTimerSchedule: {
        const std::int64_t live = ++live_[e.host];
        live_peak_ = std::max(live_peak_, static_cast<std::uint64_t>(live));
        if (delays_.size() < kMaxDelays) delays_.push_back(e.a);
        break;
      }
      case sim::TraceEventType::kTimerFire:
      case sim::TraceEventType::kTimerCancel:
        --live_[e.host];
        break;
      default:
        break;
    }
  }
  t.clear();
}

void Capture::frame(const ulnet::net::Frame& f) {
  if (frames_seen_++ % kFrameStride != 0 || frames_.size() >= kMaxFrames) {
    return;
  }
  frames_.push_back(f.bytes);
}

}  // namespace perfbench
