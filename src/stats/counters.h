// Named counter registry.
//
// Protocol instrumentation (message counts, forced vs. lazy log writes,
// aborts, lock waits…) funnels through a StatsRegistry so the Table I bench
// can read back exact counts without the protocol code knowing who consumes
// them.  Names are hierarchical by convention: "acp.msgs.total",
// "wal.force.count", "lock.timeouts".
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

namespace opc {

class StatsRegistry {
 public:
  /// Map with a transparent comparator so string_view lookups never build a
  /// temporary std::string — counter bumps on the protocol hot path stay
  /// allocation-free once a counter exists (asserted by the bench smoke).
  using CounterMap = std::map<std::string, std::int64_t, std::less<>>;

  /// Adds `delta` to the named counter, creating it at zero if absent.
  /// Allocates only on the first touch of a name.
  void add(std::string_view name, std::int64_t delta = 1) {
    if (auto it = counters_.find(name); it != counters_.end()) {
      it->second += delta;
      return;
    }
    counters_.emplace(std::string(name), delta);
  }

  /// Current value; zero for counters never touched.
  [[nodiscard]] std::int64_t get(std::string_view name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  /// Stable reference to the named counter's storage, creating it at zero
  /// if absent.  CounterMap is node-based, so the reference stays valid for
  /// the registry's lifetime (clear() is never used on live registries).
  /// Hot paths bind once and bump through the reference instead of paying a
  /// map walk per add.
  [[nodiscard]] std::int64_t& slot(std::string_view name) {
    if (auto it = counters_.find(name); it != counters_.end()) {
      return it->second;
    }
    return counters_.emplace(std::string(name), 0).first->second;
  }

  /// Sets a counter to an absolute value (used for gauges).
  void set(std::string_view name, std::int64_t value) {
    if (auto it = counters_.find(name); it != counters_.end()) {
      it->second = value;
      return;
    }
    counters_.emplace(std::string(name), value);
  }

  /// All counters, sorted by name (std::map keeps them ordered), which makes
  /// dumps deterministic.
  [[nodiscard]] const CounterMap& all() const {
    return counters_;
  }

  /// Sums every counter from `other` into this registry.
  void merge(const StatsRegistry& other) {
    for (const auto& [k, v] : other.counters_) counters_[k] += v;
  }

  void clear() { counters_.clear(); }

  /// Multi-line "name = value" dump, sorted by name.
  [[nodiscard]] std::string dump() const;

 private:
  CounterMap counters_;
};

/// Cached handle to one registry counter.
///
/// Binds lazily on the first bump rather than at construction: report
/// builders dump *every* registered counter, so eagerly registering a
/// counter that a given run never touches would change report output.  A
/// Counter that is never bumped leaves no trace in the registry.
///
/// The name must outlive the Counter (string literals in practice).
class Counter {
 public:
  Counter(StatsRegistry& reg, std::string_view name)
      : reg_(&reg), name_(name) {}

  void add(std::int64_t delta = 1) {
    if (slot_ == nullptr) slot_ = &reg_->slot(name_);
    *slot_ += delta;
  }

  [[nodiscard]] std::int64_t value() const {
    return slot_ != nullptr ? *slot_ : reg_->get(name_);
  }

 private:
  StatsRegistry* reg_;
  std::string_view name_;
  std::int64_t* slot_ = nullptr;
};

}  // namespace opc
