// Shared plumbing of opc_perfbench: the workload knobs, the result
// a workload hands back, and small timing/statistics helpers.
//
// Every workload reports through Result: named metrics (value, unit,
// sample count), the attempted/failed operation counts and the list of
// correctness-gate violations.  main.cc renders it as one JSON object that
// perfbench/run.py turns into the human table and the contract line.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats/histogram.h"

namespace pb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;       // tiny sizes: the self-test's few-second pass
  std::string out_dir = ".bench_build";  // REPORT.json and the serve socket
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

struct Result {
  std::vector<Metric> metrics;
  std::vector<std::string> violations;  // correctness gate; empty = pass
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  // extra human-readable lines

  void add(std::string name, double value, std::string unit,
           std::uint64_t samples) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void gate(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Exact quantile of a sample set, interpolating between neighbours (0 when
/// empty).  Takes a copy: callers keep their vectors in measurement order.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Quantile of a nanosecond histogram, in the requested unit.
inline double q_us(const opc::Histogram& h, double q) {
  return h.count() == 0 ? 0.0 : h.quantile(q) / 1e3;
}
inline double q_ms(const opc::Histogram& h, double q) {
  return h.count() == 0 ? 0.0 : h.quantile(q) / 1e6;
}

/// Share of samples beyond quantile q: how many observations back a
/// reported tail percentile.
inline std::uint64_t beyond(std::uint64_t n, double q) {
  return static_cast<std::uint64_t>(static_cast<double>(n) * (1.0 - q));
}

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Workloads (storm.cc, serve.cc, chaos.cc).  Each runs for about
/// opt.seconds and fills `out`; with opt.trace they report per-layer
/// metrics instead of end-to-end ones.
void run_storm(const Options& opt, bool onepc, Result& out);
void run_serve_mix(const Options& opt, Result& out);
void run_chaos(const Options& opt, Result& out);

/// Writes `text` to `path`; false on error.
bool write_text(const std::string& path, const std::string& text);

}  // namespace pb
