#include "harness/replay.h"

#include <algorithm>

#include "buf/checksum.h"
#include "sim/event_loop.h"
#include "timer/wheel.h"

namespace perfbench {

namespace {
constexpr std::int64_t kReplayBudgetNs = 200'000'000;
}  // namespace

double replay_timer_driver(std::size_t live,
                           const std::vector<ulnet::sim::Time>& delays,
                           SpanLog& log) {
  const Span span(log, "replay.timer_driver", "timer");
  using ulnet::sim::Time;
  const std::vector<Time> ds =
      delays.empty() ? std::vector<Time>{200 * ulnet::sim::kMs} : delays;
  live = std::max<std::size_t>(live, 1);

  ulnet::sim::EventLoop loop;
  ulnet::timer::TimingWheel wheel(10 * ulnet::sim::kMs);
  ulnet::timer::TimerWheelDriver driver(loop, wheel);
  std::size_t k = 0;
  auto next_delay = [&] { return ds[k++ % ds.size()]; };

  std::vector<ulnet::timer::TimerId> ids(live);
  for (auto& id : ids) id = driver.schedule(next_delay(), [] {});

  std::uint64_t ops = 0;
  std::size_t j = 0;
  const std::int64_t t0 = now_ns();
  std::int64_t elapsed = 0;
  do {
    for (int b = 0; b < 64; ++b) {
      driver.cancel(ids[j]);
      ids[j] = driver.schedule(next_delay(), [] {});
      j = (j + 1) % live;
    }
    ops += 128;
    elapsed = now_ns() - t0;
  } while (elapsed < kReplayBudgetNs);
  return static_cast<double>(elapsed) / static_cast<double>(ops);
}

double replay_checksum(const std::vector<ulnet::buf::Bytes>& frames,
                       SpanLog& log) {
  const Span span(log, "replay.checksum", "buf");
  if (frames.empty()) return 0;
  std::uint64_t bytes = 0;
  std::uint32_t sink = 0;
  const std::int64_t t0 = now_ns();
  std::int64_t elapsed = 0;
  do {
    for (const auto& f : frames) {
      sink += ulnet::buf::internet_checksum(f);
      bytes += f.size();
    }
    elapsed = now_ns() - t0;
  } while (elapsed < kReplayBudgetNs / 2);
  // Keep the sums observable so the loop cannot be folded away.
  volatile std::uint32_t keep = sink;
  (void)keep;
  return static_cast<double>(elapsed) * 1024.0 / static_cast<double>(bytes);
}

}  // namespace perfbench
