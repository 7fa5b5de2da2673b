#include "sim/simulator.h"

namespace opc {

void Simulator::dispatch_top() {
  now_ = SimTime::from_nanos(queue_.top_when());
  Callback cb = queue_.pop();
  ++dispatched_;
  cb();
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  dispatch_top();
  return true;
}

std::uint64_t Simulator::run() {
  SIM_CHECK_MSG(!running_, "Simulator::run is not reentrant");
  running_ = true;
  stopped_ = false;
  std::uint64_t n = 0;
  while (!stopped_ && !queue_.empty()) {
    dispatch_top();
    ++n;
  }
  running_ = false;
  return n;
}

std::uint64_t Simulator::run_until(SimTime deadline) {
  SIM_CHECK_MSG(!running_, "Simulator::run is not reentrant");
  SIM_CHECK(deadline >= now_);
  running_ = true;
  stopped_ = false;
  const std::int64_t deadline_ns = deadline.count_nanos();
  std::uint64_t n = 0;
  // Peek at the head: a too-late head stays queued untouched, so a deadline
  // probe at a quiescent boundary costs one comparison, not a pop/re-push.
  while (!stopped_ && !queue_.empty() && queue_.top_when() <= deadline_ns) {
    dispatch_top();
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  running_ = false;
  return n;
}

}  // namespace opc
