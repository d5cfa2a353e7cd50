// Replays of captured workload inputs into layers the benchmark cannot
// call from outside the event loop. Each returns wall nanoseconds per unit
// of work and records one `replay.*` span around itself.
#pragma once

#include <cstdint>
#include <vector>

#include "buf/bytes.h"
#include "harness/spans.h"
#include "sim/time.h"

namespace perfbench {

// timer::TimerWheelDriver -- the driver core/exec_env.h actually runs --
// holding `live` pending timers whose delays cycle through `delays`; each
// op is one cancel or one schedule that keeps the population at `live`.
// Returns wall ns per op.
double replay_timer_driver(std::size_t live,
                           const std::vector<ulnet::sim::Time>& delays,
                           SpanLog& log);

// buf::internet_checksum over the captured frames; wall ns per KiB.
double replay_checksum(const std::vector<ulnet::buf::Bytes>& frames,
                       SpanLog& log);

}  // namespace perfbench
