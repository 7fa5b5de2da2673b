// Atomic commitment protocols as data.
//
// The engine (engine.cc, engine_recovery.cc) runs one choreography for
// every protocol and reads each per-protocol choice from that protocol's
// ProtocolSpec row below; this table is the only place the protocols
// differ.  Gray & Lamport ("Consensus on Transaction Commit") treat the 2PC
// variants the same way: points in one parameter space.  DESIGN.md
// "Protocols as data" tabulates the rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>

#include "txn/types.h"

namespace opc {

/// The four protocols the paper evaluates (§II, §III), plus one extension:
///   kPrN   — Two Phase Commit, "Presume Nothing" baseline.
///   kPrC   — Presume Commit optimization (Lampson/Lomet).
///   kEP    — Early Prepare optimization (Stamos/Cristian).
///   kOnePC — the paper's One Phase Commit over shared logs.
///   kPrA   — Presumed Abort (extension; the other Lampson/Lomet
///            optimization): commits cost the same as PrN, but aborts need
///            no log record and no acknowledgement round — absence of
///            information *means* abort.
/// The byte value is the protocol's identity on the wire (Msg::proto) and
/// in worker PREPARED/COMMITTED records.
enum class ProtocolKind : std::uint8_t { kPrN, kPrC, kEP, kOnePC, kPrA };

/// What a worker does on UPDATE_REQ besides applying the updates.
enum class UpdateAction : std::uint8_t {
  kUpdate,   // reply UPDATED; a PREPARE round follows
  kPrepare,  // also force PREPARED; UPDATED doubles as the vote
  kCommit,   // also force update+COMMITTED; UPDATED reports the commit
};

/// How the coordinator's commit decision reaches the workers.
enum class CommitTail : std::uint8_t {
  kAckRound,     // COMMIT to every worker; ACKs gate ENDED and the reply
  kUnacked,      // reply, send COMMIT fire-and-forget, forget at once
  kAckToWorker,  // workers committed already; an ACK lets them finalize
};

/// How a coordinator learns the fate of a worker that went silent before
/// the decision.
enum class Recovery : std::uint8_t {
  kQuery,         // it decides (abort); prepared workers query it later
  kFenceAndRead,  // STONITH the worker, then read its log partition
};

struct ProtocolSpec {
  ProtocolKind kind;
  std::string_view name;
  /// STARTED is forced together with a REDO record, and a reboot that
  /// finds STARTED re-executes the transaction instead of aborting it.
  bool redo_at_start;
  UpdateAction on_update;
  CommitTail commit;
  /// The worker's COMMITTED record is forced (else written lazily).
  bool worker_forces_commit;
  /// The decision a coordinator with no record of the transaction gives.
  TxnOutcome presume;
  /// Aborts are logged (ABORTED) and acknowledged by the workers.
  bool acked_abort;
  Recovery recovery;
};

inline constexpr ProtocolSpec kProtocolSpecs[] = {
    // {kind, name, redo_at_start, on_update,
    //  commit, worker_forces_commit, presume, acked_abort,
    //  recovery}
    {ProtocolKind::kPrN, "PrN", false, UpdateAction::kUpdate,
     CommitTail::kAckRound, true, TxnOutcome::kAborted, true,
     Recovery::kQuery},
    {ProtocolKind::kPrC, "PrC", false, UpdateAction::kUpdate,
     CommitTail::kUnacked, false, TxnOutcome::kCommitted, true,
     Recovery::kQuery},
    {ProtocolKind::kEP, "EP", false, UpdateAction::kPrepare,
     CommitTail::kUnacked, false, TxnOutcome::kCommitted, true,
     Recovery::kQuery},
    {ProtocolKind::kOnePC, "1PC", true, UpdateAction::kCommit,
     CommitTail::kAckToWorker, true, TxnOutcome::kCommitted, true,
     Recovery::kFenceAndRead},
    {ProtocolKind::kPrA, "PrA", false, UpdateAction::kUpdate,
     CommitTail::kAckRound, true, TxnOutcome::kAborted, false,
     Recovery::kQuery},
};

[[nodiscard]] constexpr const ProtocolSpec& spec(ProtocolKind p) {
  return kProtocolSpecs[static_cast<std::size_t>(p)];
}

static_assert(
    [] {
      for (std::size_t i = 0; i < std::size(kProtocolSpecs); ++i) {
        if (static_cast<std::size_t>(kProtocolSpecs[i].kind) != i) {
          return false;
        }
      }
      return true;
    }(),
    "spec() indexes rows by kind");

[[nodiscard]] constexpr std::string_view protocol_name(ProtocolKind p) {
  return spec(p).name;
}

/// The paper's four (benches reproducing paper artifacts iterate these).
inline constexpr ProtocolKind kAllProtocols[] = {
    ProtocolKind::kPrN, ProtocolKind::kPrC, ProtocolKind::kEP,
    ProtocolKind::kOnePC};

/// Paper's four plus extensions (test sweeps iterate these).
inline constexpr ProtocolKind kAllProtocolsExt[] = {
    ProtocolKind::kPrN, ProtocolKind::kPrC, ProtocolKind::kEP,
    ProtocolKind::kOnePC, ProtocolKind::kPrA};

/// Hybrid protocol selection (DESIGN.md §14): a worker that commits on
/// update is a unilateral commit point, which 1PC's fence-and-read
/// recovery can resolve only when there is exactly one.  With two or more
/// workers one can commit while another crashes pre-commit, and no single
/// fence-and-read resolves the split — the shared-log rule holds only when
/// every worker's commit point lands in one log partition, and in this
/// deployment each node owns its own partition.  Anything wider — an N-way
/// CREATE or a RENAME touching up to four MDSs — runs the presumed-abort
/// 2PC row (PrA) instead: absence of log state means abort, so the
/// degraded path needs no abort record and no abort-ACK round, the
/// cheapest member of the 2PC family on the paths a wide transaction adds.
[[nodiscard]] constexpr ProtocolKind choose_protocol(ProtocolKind preferred,
                                                     std::size_t participants) {
  if (participants <= 2 || spec(preferred).on_update != UpdateAction::kCommit) {
    return preferred;
  }
  return ProtocolKind::kPrA;
}

}  // namespace opc
