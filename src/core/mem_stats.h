// Process-wide memory-architecture introspection.
//
// The object pools (src/core/pool.h) and the SBO message body
// (src/env/message_body.h) report what they do here so benches and the
// allocation gate can surface the numbers (`mem.*` rows in bench output)
// without the hot path touching a StatsRegistry.  Counters are monotonic
// and process-global; relaxed atomics keep the rt (threaded) backend safe
// at the cost of one uncontended atomic add per (rare) slow-path event —
// fast paths never touch them.
#pragma once

#include <atomic>
#include <cstdint>

namespace opc {

struct MemStats {
  /// Objects currently parked in Pool free lists.
  std::atomic<std::int64_t> pool_free{0};
  /// MessageBody payloads that exceeded the inline buffer and spilled to
  /// the heap.  Zero for the closed acp/fs message vocabulary.
  std::atomic<std::int64_t> sbo_spills{0};

  static MemStats& global() {
    static MemStats g;
    return g;
  }
};

}  // namespace opc
