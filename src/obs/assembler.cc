#include "obs/assembler.h"

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>

namespace opc::obs {
namespace {

// ---- detail-string parsing helpers -----------------------------------
//
// The formats parsed here are the ones documented (and frozen) in
// docs/OBSERVABILITY.md §1; src/net and src/lock own the emitters.

std::string_view first_token(std::string_view s) {
  const auto sp = s.find(' ');
  return sp == std::string_view::npos ? s : s.substr(0, sp);
}

std::string_view last_token(std::string_view s) {
  const auto sp = s.rfind(' ');
  return sp == std::string_view::npos ? s : s.substr(sp + 1);
}

// "X r5", "X r5 (queued)", "r5" -> "r5".
std::string_view resource_token(std::string_view s) {
  std::size_t i = 0;
  while (i < s.size()) {
    std::size_t j = s.find(' ', i);
    if (j == std::string_view::npos) j = s.size();
    const std::string_view tok = s.substr(i, j - i);
    if (tok.size() >= 2 && tok[0] == 'r' && tok[1] >= '0' && tok[1] <= '9') {
      return tok;
    }
    i = j + 1;
  }
  return {};
}

// "locks.mds1" -> "mds1"; anything without a dot is returned unchanged.
std::string_view actor_node(std::string_view actor) {
  const auto dot = actor.rfind('.');
  return dot == std::string_view::npos ? actor : actor.substr(dot + 1);
}

// ---- intermediate records --------------------------------------------

struct Child {  // message / lock-wait / mark, pre-parenting
  SpanKind kind;
  std::string name;
  std::string actor;  // emitting actor as traced
  std::string node;   // node the span belongs to, for phase matching
  std::uint64_t txn;
  SimTime begin;
  SimTime end;
};

struct PhaseInterval {
  PhaseId phase;
  std::string node;
  SimTime begin;
  SimTime end;
  bool open = true;
};

struct TxnInfo {
  std::uint64_t txn = 0;
  std::string name;
  std::string actor;
  SimTime begin{};
  SimTime end{};
  bool finished = false;
  SimTime last_seen{};
  std::vector<PhaseInterval> phases;
  std::vector<Child> children;
};

}  // namespace

SpanSet assemble_spans(const std::vector<TraceEvent>& events,
                       const PhaseLog* phases) {
  std::map<std::uint64_t, TxnInfo> txns;
  std::vector<std::uint64_t> txn_order;  // by first kTxnBegin
  std::vector<Child> global_children;
  std::vector<Child> forces;

  auto touch = [&txns](const TraceEvent& e) -> TxnInfo* {
    if (e.txn == 0) return nullptr;
    auto it = txns.find(e.txn);
    if (it == txns.end()) return nullptr;
    if (e.at.count_nanos() > it->second.last_seen.count_nanos()) {
      it->second.last_seen = e.at;
    }
    return &it->second;
  };
  auto add_child = [&](const TraceEvent& e, Child c) {
    if (TxnInfo* t = touch(e); t != nullptr) {
      t->children.push_back(std::move(c));
    } else {
      global_children.push_back(std::move(c));
    }
  };

  // In-flight matching state, all FIFO to mirror the simulator's ordering.
  using MsgKey = std::tuple<std::string, std::string, std::string,
                            std::uint64_t>;  // from, to, kind, txn
  std::map<MsgKey, std::deque<SimTime>> msg_pending;
  using LockKey = std::tuple<std::string, std::uint64_t,
                             std::string>;  // actor, txn, resource
  std::map<LockKey, std::deque<std::pair<SimTime, std::string>>> lock_pending;
  std::map<std::string, std::deque<std::pair<SimTime, std::string>>>
      force_pending;  // disk actor -> (start, detail)

  for (const TraceEvent& e : events) {
    switch (e.kind) {
      case TraceKind::kTxnBegin: {
        auto [it, inserted] = txns.try_emplace(e.txn);
        TxnInfo& t = it->second;
        if (inserted) {
          t.txn = e.txn;
          t.name = e.detail;
          t.actor = e.actor;
          t.begin = e.at;
          txn_order.push_back(e.txn);
        }
        t.last_seen = e.at;
        break;
      }
      case TraceKind::kTxnCommit:
      case TraceKind::kTxnAbort: {
        if (TxnInfo* t = touch(e); t != nullptr && e.detail == "finished") {
          t->end = e.at;
          t->finished = true;
        }
        break;
      }
      case TraceKind::kMessageSend: {
        const std::string kind(first_token(e.detail));
        const std::string to(last_token(e.detail));
        if (e.detail.find(" -> ") != std::string::npos &&
            e.detail.find('(') == std::string::npos) {
          msg_pending[{e.actor, to, kind, e.txn}].push_back(e.at);
        }
        touch(e);
        break;
      }
      case TraceKind::kMessageRecv: {
        const std::string kind(first_token(e.detail));
        const std::string from(last_token(e.detail));
        auto it = msg_pending.find({from, e.actor, kind, e.txn});
        if (it != msg_pending.end() && !it->second.empty()) {
          const SimTime sent = it->second.front();
          it->second.pop_front();
          if (e.txn != 0) {
            add_child(e, {SpanKind::kMessage, kind, from, from, e.txn, sent,
                          e.at});
          }
        }
        touch(e);
        break;
      }
      case TraceKind::kMessageDrop: {
        const std::string kind(first_token(e.detail));
        if (const auto fp = e.detail.find(" from ");
            fp != std::string::npos) {
          // Dropped in flight: actor is the (former) destination.
          const std::string from(e.detail.substr(fp + 6));
          auto it = msg_pending.find({from, e.actor, kind, e.txn});
          if (it != msg_pending.end() && !it->second.empty()) {
            const SimTime sent = it->second.front();
            it->second.pop_front();
            if (e.txn != 0) {
              add_child(e, {SpanKind::kMessage, kind + " (dropped)", from,
                            from, e.txn, sent, e.at});
            }
          }
        } else if (e.txn != 0) {
          // Dropped at the send site: never in flight, render as instant.
          add_child(e, {SpanKind::kMessage, kind + " (dropped at send)",
                        e.actor, e.actor, e.txn, e.at, e.at});
        }
        touch(e);
        break;
      }
      case TraceKind::kLockWait: {
        lock_pending[{e.actor, e.txn, std::string(resource_token(e.detail))}]
            .push_back({e.at, e.detail});
        touch(e);
        break;
      }
      case TraceKind::kLockGrant: {
        auto it = lock_pending.find(
            {e.actor, e.txn, std::string(resource_token(e.detail))});
        if (it != lock_pending.end() && !it->second.empty()) {
          auto [start, want] = it->second.front();
          it->second.pop_front();
          if (e.txn != 0) {
            add_child(e, {SpanKind::kLockWait, "wait " + want, e.actor,
                          std::string(actor_node(e.actor)), e.txn, start,
                          e.at});
          }
        }
        touch(e);
        break;
      }
      case TraceKind::kLogForceStart: {
        force_pending[e.actor].push_back({e.at, e.detail});
        break;
      }
      case TraceKind::kLogForceDone: {
        auto it = force_pending.find(e.actor);
        if (it != force_pending.end() && !it->second.empty()) {
          auto [start, what] = it->second.front();
          it->second.pop_front();
          forces.push_back({SpanKind::kForce, std::move(what), e.actor,
                            std::string(actor_node(e.actor)), 0, start,
                            e.at});
        }
        break;
      }
      case TraceKind::kCrash:
      case TraceKind::kReboot:
      case TraceKind::kFence:
      case TraceKind::kRecoveryStep:
      case TraceKind::kClientReply: {
        const char* base = e.kind == TraceKind::kCrash      ? "crash"
                           : e.kind == TraceKind::kReboot   ? "reboot"
                           : e.kind == TraceKind::kFence    ? "fence"
                           : e.kind == TraceKind::kRecoveryStep
                               ? "recovery"
                               : "client_reply";
        std::string name = e.detail.empty()
                               ? std::string(base)
                               : std::string(base) + " " + e.detail;
        add_child(e, {SpanKind::kMark, std::move(name), e.actor, e.actor,
                      e.txn, e.at, e.at});
        break;
      }
      case TraceKind::kLogLazyWrite:
      case TraceKind::kLockRelease:
      case TraceKind::kInfo:
        touch(e);
        break;
    }
  }

  // Phase side-channel: pair enter/leave per (node, txn, phase); leaves
  // without an enter are dropped, enters without a leave stay open and are
  // closed at the transaction's end below.
  if (phases != nullptr) {
    std::map<std::tuple<std::uint32_t, std::uint64_t, std::uint8_t>,
             std::vector<std::size_t>>
        open;  // -> indices into that txn's `phases`
    for (const PhaseEvent& pe : phases->events()) {
      auto it = txns.find(pe.txn);
      if (it == txns.end()) continue;
      TxnInfo& t = it->second;
      const auto key = std::make_tuple(
          pe.node.value(), pe.txn, static_cast<std::uint8_t>(pe.phase));
      if (pe.enter) {
        open[key].push_back(t.phases.size());
        t.phases.push_back({pe.phase, pe.node.str(), pe.at, pe.at, true});
      } else if (auto oi = open.find(key);
                 oi != open.end() && !oi->second.empty()) {
        PhaseInterval& pi = t.phases[oi->second.back()];
        oi->second.pop_back();
        pi.end = pe.at;
        pi.open = false;
      }
      if (pe.at.count_nanos() > t.last_seen.count_nanos()) t.last_seen = pe.at;
    }
  }

  // ---- emit, per transaction in first-begin order ---------------------
  SpanSet set;
  auto push = [&set](Span s) -> std::uint32_t {
    s.id = static_cast<std::uint32_t>(set.spans.size());
    set.spans.push_back(std::move(s));
    return set.spans.back().id;
  };

  for (const std::uint64_t id : txn_order) {
    TxnInfo& t = txns[id];
    SimTime root_end = t.finished ? t.end : t.last_seen;
    for (PhaseInterval& pi : t.phases) {
      if (pi.open) {
        pi.end = root_end;
        pi.open = false;
      }
      if (pi.end.count_nanos() > root_end.count_nanos()) root_end = pi.end;
    }
    for (const Child& c : t.children) {
      if (c.end.count_nanos() > root_end.count_nanos()) root_end = c.end;
    }

    const std::uint32_t root = push({0, kNoParent, SpanKind::kTxn, t.name,
                                     t.actor, t.txn, t.begin, root_end});
    std::vector<std::uint32_t> phase_ids;
    phase_ids.reserve(t.phases.size());
    for (const PhaseInterval& pi : t.phases) {
      phase_ids.push_back(push({0, root, SpanKind::kPhase,
                                std::string(phase_name(pi.phase)), pi.node,
                                t.txn, pi.begin, pi.end}));
    }
    for (Child& c : t.children) {
      // Parent: the innermost phase on the same node whose interval
      // contains the child's; else the transaction root.
      std::uint32_t parent = root;
      std::int64_t best = -1;
      for (std::size_t i = 0; i < t.phases.size(); ++i) {
        const PhaseInterval& pi = t.phases[i];
        if (pi.node != c.node) continue;
        if (c.begin.count_nanos() < pi.begin.count_nanos() ||
            c.end.count_nanos() > pi.end.count_nanos()) {
          continue;
        }
        const std::int64_t dur = pi.end.count_nanos() - pi.begin.count_nanos();
        if (best < 0 || dur <= best) {
          best = dur;
          parent = phase_ids[i];
        }
      }
      push({0, parent, c.kind, std::move(c.name), std::move(c.actor), c.txn,
            c.begin, c.end});
    }
  }

  // Global (txn-less or unrooted) spans: log forces, crash/reboot/fence
  // marks, stray messages.  Unparented, after all transaction trees.
  for (Child& c : forces) {
    push({0, kNoParent, c.kind, std::move(c.name), std::move(c.actor),
          c.txn, c.begin, c.end});
  }
  for (Child& c : global_children) {
    push({0, kNoParent, c.kind, std::move(c.name), std::move(c.actor),
          c.txn, c.begin, c.end});
  }
  return set;
}

}  // namespace opc::obs
