// opc_perfbench: runs one benchmark workload and prints one JSON object.
//
//   opc_perfbench --workload storm_1pc|storm_prn|serve_mix|chaos
//                 --seed N --seconds S [--trace 0|1] [--smoke]
//                 [--out-dir DIR]
//
// The object carries the workload's metrics (name, value, unit, samples),
// the attempted/failed counts, the correctness-gate violations and a host
// calibration (nproc and the overshoot of a bare 100 us RtEnv timer), so
// rt numbers from different hosts can be told apart.  perfbench/run.py
// builds this program and renders its output; exit status is 0 when the
// gate passed, 1 when it did not, 2 on bad arguments.
#include <sys/resource.h>

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>

#include "common.h"
#include "rt/rt_env.h"

namespace pb {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool write_text(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text;
  return static_cast<bool>(f);
}

namespace {

struct Host {
  unsigned nproc = 0;
  opc::Histogram overshoot_ns;
};

/// Arms `n` bare 100 us timers one after another on an otherwise idle
/// RtEnv and records how late each fires.
Host calibrate(int n) {
  Host h;
  h.nproc = std::thread::hardware_concurrency();
  opc::RtEnv env(1);
  std::mutex mu;
  std::condition_variable cv;
  for (int i = 0; i < n; ++i) {
    bool fired = false;
    const opc::SimTime due = env.now() + opc::Duration::micros(100);
    env.schedule_on(0, due, [&] {
      const opc::Duration late = env.now() - due;
      std::lock_guard<std::mutex> lk(mu);
      h.overshoot_ns.record(late);
      fired = true;
      cv.notify_all();
    });
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return fired; });
  }
  return h;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void print(const Options& opt, const Host& host, const Result& r) {
  std::string s = "{\"workload\": \"" + opt.workload + "\", \"seed\": " +
                  std::to_string(opt.seed) +
                  ", \"trace\": " + (opt.trace ? "1" : "0") +
                  ", \"host\": {\"nproc\": " + std::to_string(host.nproc) +
                  ", \"timer_overshoot_us_p50\": " +
                  num(q_us(host.overshoot_ns, 0.5)) +
                  ", \"timer_overshoot_us_p99\": " +
                  num(q_us(host.overshoot_ns, 0.99)) +
                  ", \"timer_samples\": " +
                  std::to_string(host.overshoot_ns.count()) + "}" +
                  ", \"attempted\": " + std::to_string(r.attempted) +
                  ", \"failed\": " + std::to_string(r.failed) +
                  ", \"violations\": [";
  for (std::size_t i = 0; i < r.violations.size() && i < 20; ++i) {
    s += (i ? ", \"" : "\"") + json_escape(r.violations[i]) + "\"";
  }
  s += "], \"notes\": [";
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    s += (i ? ", \"" : "\"") + json_escape(r.notes[i]) + "\"";
  }
  s += "], \"metrics\": [";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    s += std::string(i ? ", " : "") + "{\"name\": \"" + m.name +
         "\", \"value\": " + num(m.value) + ", \"unit\": \"" + m.unit +
         "\", \"samples\": " + std::to_string(m.samples) + "}";
  }
  s += "]}";
  std::puts(s.c_str());
}

int usage() {
  std::fputs(
      "usage: opc_perfbench --workload storm_1pc|storm_prn|serve_mix|chaos "
      "--seed N --seconds S [--trace 0|1] [--smoke] [--out-dir DIR]\n",
      stderr);
  return 2;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  pb::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (a == "--out-dir" && has_value) {
      opt.out_dir = argv[++i];
    } else {
      return pb::usage();
    }
  }
  if (!(opt.seconds > 0.0)) return pb::usage();

  const pb::Host host = pb::calibrate(opt.smoke ? 100 : 1000);
  pb::Result r;
  if (opt.workload == "storm_1pc" || opt.workload == "storm_prn") {
    pb::run_storm(opt, opt.workload == "storm_1pc", r);
  } else if (opt.workload == "serve_mix") {
    pb::run_serve_mix(opt, r);
  } else if (opt.workload == "chaos") {
    pb::run_chaos(opt, r);
  } else {
    return pb::usage();
  }
  if (opt.trace) {
    const auto n = host.overshoot_ns.count();
    r.add("host.nproc", host.nproc, "count", 1);
    r.add("host.timer_overshoot_us.p50", pb::q_us(host.overshoot_ns, 0.5),
          "us", n);
    r.add("host.timer_overshoot_us.p99", pb::q_us(host.overshoot_ns, 0.99),
          "us", pb::beyond(n, 0.99));
  }
  pb::print(opt, host, r);
  return r.violations.empty() ? 0 : 1;
}
