// Transaction layer: operation codec, transaction codec, conflict-graph
// serializability checker.
#include <gtest/gtest.h>

#include "acp/messages.h"
#include "txn/serializability.h"
#include "txn/types.h"

namespace opc {
namespace {

Operation make_op(OpType t, std::uint64_t target, std::string name = "",
                  std::uint64_t child = 0) {
  Operation op;
  op.type = t;
  op.target = ObjectId(target);
  op.child = ObjectId(child);
  op.name = std::move(name);
  op.log_bytes = 2048;
  op.compute = Duration::micros(1);
  return op;
}

TEST(OpsCodec, RoundTrips) {
  std::vector<Operation> ops{
      make_op(OpType::kAddDentry, 1, "file with spaces.txt", 7),
      make_op(OpType::kCreateInode, 7),
      make_op(OpType::kIncLink, 7),
      make_op(OpType::kRemoveDentry, 1, "", 9),
  };
  ops[0].compute = Duration::micros(5);
  ops[1].log_bytes = 12345;
  std::vector<std::uint8_t> buf;
  encode_ops(ops, buf);
  std::vector<Operation> got;
  ASSERT_TRUE(decode_ops(buf, got));
  EXPECT_EQ(got, ops);
}

TEST(OpsCodec, EmptyListRoundTrips) {
  std::vector<std::uint8_t> buf;
  encode_ops({}, buf);
  std::vector<Operation> got;
  ASSERT_TRUE(decode_ops(buf, got));
  EXPECT_TRUE(got.empty());
}

TEST(OpsCodec, RejectsTruncation) {
  std::vector<std::uint8_t> buf;
  encode_ops({make_op(OpType::kAddDentry, 1, "x", 2)}, buf);
  buf.resize(buf.size() - 3);
  std::vector<Operation> got;
  EXPECT_FALSE(decode_ops(buf, got));
}

TEST(OpsCodec, RejectsTrailingGarbage) {
  std::vector<std::uint8_t> buf;
  encode_ops({make_op(OpType::kSetAttr, 3)}, buf);
  buf.push_back(0xFF);
  std::vector<Operation> got;
  EXPECT_FALSE(decode_ops(buf, got));
}

TEST(TxnCodec, RoundTripsParticipants) {
  Transaction txn;
  txn.id = 777;
  txn.kind = NamespaceOpKind::kRename;
  txn.participants.push_back(
      Participant{NodeId(0), {make_op(OpType::kRemoveDentry, 1, "a", 5)}});
  txn.participants.push_back(
      Participant{NodeId(2),
                  {make_op(OpType::kAddDentry, 2, "b", 5),
                   make_op(OpType::kSetAttr, 5)}});
  std::vector<std::uint8_t> buf;
  encode_txn(txn, buf);
  Transaction got;
  ASSERT_TRUE(decode_txn(buf, got));
  EXPECT_EQ(got.id, txn.id);
  EXPECT_EQ(got.kind, txn.kind);
  ASSERT_EQ(got.participants.size(), 2u);
  EXPECT_EQ(got.participants[0].node, NodeId(0));
  EXPECT_EQ(got.participants[1].ops, txn.participants[1].ops);
}

TEST(TxnCodec, RoundTripsManyParticipants) {
  // N-participant shares (ISSUE 10): one coordinator plus 4 workers, each
  // carrying its own op list, survive the codec byte-exactly.
  Transaction txn;
  txn.id = 31337;
  txn.kind = NamespaceOpKind::kCreate;
  txn.participants.push_back(
      Participant{NodeId(0), {make_op(OpType::kAddDentry, 1, "w0", 10),
                              make_op(OpType::kAddDentry, 1, "w1", 11)}});
  for (std::uint32_t w = 1; w <= 4; ++w) {
    txn.participants.push_back(
        Participant{NodeId(w), {make_op(OpType::kCreateInode, 9 + w),
                                make_op(OpType::kIncLink, 9 + w)}});
  }
  std::vector<std::uint8_t> buf;
  encode_txn(txn, buf);
  Transaction got;
  ASSERT_TRUE(decode_txn(buf, got));
  ASSERT_EQ(got.participants.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(got.participants[i].node, txn.participants[i].node) << i;
    EXPECT_EQ(got.participants[i].ops, txn.participants[i].ops) << i;
  }
}

TEST(TxnCodec, RejectsTruncatedParticipantList) {
  // The header promises 3 participants; cut the buffer inside the second
  // and third shares at every byte boundary — each cut must be rejected,
  // never decoded into a shorter (and silently wrong) participant list.
  Transaction txn;
  txn.id = 5;
  txn.kind = NamespaceOpKind::kCreate;
  for (std::uint32_t n = 0; n < 3; ++n) {
    txn.participants.push_back(
        Participant{NodeId(n), {make_op(OpType::kCreateInode, 20 + n)}});
  }
  std::vector<std::uint8_t> full;
  encode_txn(txn, full);
  std::vector<std::uint8_t> one_share;
  encode_txn(Transaction{txn.id, txn.kind, {txn.participants[0]}}, one_share);
  for (std::size_t len = one_share.size(); len < full.size(); ++len) {
    std::vector<std::uint8_t> cut(full.begin(),
                                  full.begin() + static_cast<long>(len));
    Transaction got;
    EXPECT_FALSE(decode_txn(cut, got)) << "prefix length " << len;
  }
}

TEST(TransactionTest, Accessors) {
  Transaction txn;
  EXPECT_TRUE(txn.is_local());
  EXPECT_EQ(txn.coordinator(), kNoNode);
  EXPECT_EQ(txn.n_workers(), 0u);
  txn.participants.push_back(Participant{NodeId(3), {}});
  EXPECT_TRUE(txn.is_local());
  EXPECT_EQ(txn.coordinator(), NodeId(3));
  EXPECT_EQ(txn.n_workers(), 0u);
  EXPECT_EQ(txn.sole_worker(), kNoNode);
  txn.participants.push_back(Participant{NodeId(1), {}});
  EXPECT_FALSE(txn.is_local());
  EXPECT_EQ(txn.n_workers(), 1u);
  EXPECT_EQ(txn.sole_worker(), NodeId(1));
  EXPECT_EQ(txn.participant(0).node, NodeId(3));
  EXPECT_EQ(txn.participant(1).node, NodeId(1));
}

TEST(TransactionTest, WideTransactionHasNoSoleWorker) {
  Transaction txn;
  for (std::uint32_t n = 0; n < 4; ++n) {
    txn.participants.push_back(Participant{NodeId(n), {}});
  }
  EXPECT_EQ(txn.n_participants(), 4u);
  EXPECT_EQ(txn.n_workers(), 3u);
  // The sole-worker view is a two-party notion; wider transactions must be
  // addressed through participant(i), and 1PC must never see one.
  EXPECT_EQ(txn.sole_worker(), kNoNode);
  EXPECT_EQ(txn.participant(3).node, NodeId(3));
}

// ---------------------------------------------------------------------------

TEST(SerializabilityTest, DisjointTxnsAreSerializable) {
  HistoryRecorder h;
  h.record_access(1, ObjectId(10), SimTime::zero());
  h.record_access(2, ObjectId(20), SimTime::zero());
  h.record_commit(1);
  h.record_commit(2);
  EXPECT_TRUE(h.serializable());
  EXPECT_TRUE(h.conflict_edges().empty());
}

TEST(SerializabilityTest, OrderedConflictIsSerializable) {
  HistoryRecorder h;
  h.record_access(1, ObjectId(10), SimTime::zero());
  h.record_access(2, ObjectId(10),
                  SimTime::zero() + Duration::millis(1));
  h.record_commit(1);
  h.record_commit(2);
  EXPECT_TRUE(h.serializable());
  EXPECT_EQ(h.serialization_order(), (std::vector<TxnId>{1, 2}));
}

TEST(SerializabilityTest, CycleIsDetected) {
  HistoryRecorder h;
  // t1 writes A before t2; t2 writes B before t1 — classic non-serializable
  // interleaving (impossible under strict 2PL, constructible by hand).
  h.record_access(1, ObjectId(1), SimTime::zero());
  h.record_access(2, ObjectId(1), SimTime::zero() + Duration::millis(1));
  h.record_access(2, ObjectId(2), SimTime::zero() + Duration::millis(2));
  h.record_access(1, ObjectId(2), SimTime::zero() + Duration::millis(3));
  h.record_commit(1);
  h.record_commit(2);
  EXPECT_FALSE(h.serializable());
  EXPECT_TRUE(h.serialization_order().empty());
}

TEST(SerializabilityTest, RepeatedConflictsMakeOneEdge) {
  HistoryRecorder h;
  h.record_access(1, ObjectId(1), SimTime::zero());
  h.record_access(1, ObjectId(2), SimTime::zero());
  h.record_access(2, ObjectId(1), SimTime::zero() + Duration::millis(1));
  h.record_access(2, ObjectId(2), SimTime::zero() + Duration::millis(1));
  h.record_commit(1);
  h.record_commit(2);
  EXPECT_EQ(h.conflict_edges().size(), 1u);
  EXPECT_TRUE(h.serializable());
}

TEST(SerializabilityTest, AbortedTxnsAreIgnored) {
  HistoryRecorder h;
  h.record_access(1, ObjectId(1), SimTime::zero());
  h.record_access(2, ObjectId(1), SimTime::zero() + Duration::millis(1));
  h.record_commit(1);
  h.record_abort(2);
  EXPECT_TRUE(h.conflict_edges().empty());
  EXPECT_TRUE(h.serializable());
}

TEST(SerializabilityTest, EmptyHistoryIsSerializable) {
  HistoryRecorder h;
  EXPECT_TRUE(h.serializable());
}

TEST(SerializabilityTest, LongChainOrdersCorrectly) {
  HistoryRecorder h;
  for (TxnId t = 1; t <= 20; ++t) {
    h.record_access(t, ObjectId(5),
                    SimTime::zero() + Duration::millis(static_cast<int>(t)));
    h.record_commit(t);
  }
  const auto order = h.serialization_order();
  ASSERT_EQ(order.size(), 20u);
  for (TxnId t = 1; t <= 20; ++t) EXPECT_EQ(order[t - 1], t);
}

}  // namespace
}  // namespace opc
