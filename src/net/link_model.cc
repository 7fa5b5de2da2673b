#include "net/link_model.h"

#include <algorithm>

namespace opc {

SimTime LinkModel::arrival(SimTime now, NodeId from, NodeId to,
                           std::uint64_t bytes, Rng& rng) {
  Duration delay = latency_;
  if (bytes_per_second_ > 0.0) {
    delay += Duration::from_seconds_f(static_cast<double>(bytes) /
                                      bytes_per_second_);
  }
  if (jitter_max_ > Duration::zero()) {
    delay += Duration::nanos(static_cast<std::int64_t>(
        rng.uniform(0.0, static_cast<double>(jitter_max_.count_nanos()))));
  }

  SimTime when = now + delay;
  const std::uint64_t ch =
      (static_cast<std::uint64_t>(from.value()) << 32) | to.value();
  if (auto it = channel_clock_.find(ch); it != channel_clock_.end()) {
    when = std::max(when, it->second + Duration::nanos(1));
  }
  channel_clock_[ch] = when;
  return when;
}

}  // namespace opc
