// The event queue under both executors: callbacks ordered by (deadline,
// push order), so equal deadlines pop FIFO, with cancellable handles.
// Simulator (src/sim/simulator.h) runs its clock on one; each RtEnv worker
// (src/rt/rt_env.h) keeps its timers in one, under its mutex.
//
// Hot-path layout (DESIGN.md §9):
//   * Events live in a slab-allocated pool of fixed-size slots; the heap is
//     a flat array of 16-byte (when, seq|slot) nodes stored as 64-byte
//     aligned groups of four siblings, so each level of a 4-ary sift reads
//     exactly one cache line in ~half the tree height of a binary heap.
//   * A dense side array maps slot -> heap position (for O(log n) true
//     removal on cancel — no tombstones); each slot carries a generation
//     counter (bumped on free, so stale EventHandles can never touch a
//     recycled slot).
//   * Callbacks are InlineCallback<void(), 48>: captures up to 48 bytes run
//     through push→pop with zero heap allocations.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/check.h"
#include "sim/inline_callback.h"

namespace opc {

/// Identifies a queued event so it can be cancelled: (slot, generation).
/// The slot is recycled after pop/cancel with its generation bumped, so
/// cancelling through a stale handle is a harmless no-op.
class EventHandle {
 public:
  EventHandle() = default;
  EventHandle(std::uint32_t slot, std::uint32_t gen)
      : slot_(slot), gen_(gen) {}

  /// True if this handle was ever bound to a queued event.
  [[nodiscard]] bool valid() const { return gen_ != 0; }
  [[nodiscard]] std::uint32_t slot() const { return slot_; }
  [[nodiscard]] std::uint32_t gen() const { return gen_; }

 private:
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;  // live slot generations are never 0
};

/// The queue itself (layout in the file comment).  Not thread-safe: the
/// owner serialises access.
class EventQueue {
 public:
  /// 48 inline bytes: every high-rate caller in src/net, src/wal and
  /// src/acp fits (they static_assert it).  Larger captures fall back to
  /// one heap allocation.
  using Callback = InlineCallback<void(), kInlineCallbackBytes>;

  /// Queues `cb` at `when_ns`.  Inline: it sits on the simulator's dominant
  /// cycle and must inline into callers across translation units.
  EventHandle push(std::int64_t when_ns, Callback cb) {
    SIM_CHECK(cb != nullptr);
    SIM_CHECK_MSG(next_seq_ < (std::uint64_t{1} << (64 - kSlotBits)),
                  "sequence space exhausted");
    const std::uint32_t s = acquire_slot();
    Slot& sl = slot(s);
    sl.cb = std::move(cb);
    sift_up(heap_size_, HeapNode{when_ns, (next_seq_++ << kSlotBits) | s});
    return EventHandle{s, sl.gen};
  }

  /// Removes a queued event (true removal, no tombstone).  Returns false,
  /// doing nothing, if it already popped or was cancelled.
  bool cancel(EventHandle h);

  /// Removes the earliest event and returns its callback; its slot is
  /// already recycled.  Requires !empty().
  Callback pop();

  [[nodiscard]] bool empty() const { return heap_size_ == 0; }
  [[nodiscard]] std::size_t size() const { return heap_size_; }
  /// Deadline of the earliest event.  Requires !empty().
  [[nodiscard]] std::int64_t top_when() const { return node(0).when_ns; }
  /// Push order of the earliest event: unique per queue, never 0.
  [[nodiscard]] std::uint64_t top_seq() const {
    return node(0).key >> kSlotBits;
  }

 private:
  /// One pooled event.  Slots live in fixed-size chunks (stable addresses,
  /// so growth never move-relocates callbacks).  Field order matters: the
  /// 56-byte callback first, then the generation in its tail padding —
  /// sizeof(Slot) is one 64-byte cache line, so a dispatch touches one
  /// line per slot.  The slot's current heap
  /// position deliberately does NOT live here: sift loops store it for
  /// every displaced element, and putting those stores in the dense pos_
  /// side array (16 entries per cache line) instead of scattered 64-byte
  /// slots keeps a deep sift's write set inside L1/L2.
  struct Slot {
    Callback cb;
    std::uint32_t gen = 1;
  };
  static_assert(sizeof(Slot) <= 64, "Slot must stay within one cache line");

  /// One heap element, 16 bytes so a node's four children are exactly one
  /// 64-byte cache line.  The sort key (when, seq) is duplicated here so
  /// the sift loops compare against contiguous heap memory instead of
  /// chasing slot pointers; seq and the slot index share one word
  /// (seq in the high 40 bits, slot in the low 24).  Comparing the packed
  /// word IS comparing seq: sequence numbers are unique, so the slot bits
  /// never decide.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << kSlotBits) - 1;
  struct HeapNode {
    std::int64_t when_ns;
    std::uint64_t key;  // (seq << kSlotBits) | slot
  };
  static constexpr std::uint32_t slot_of(const HeapNode& n) {
    return static_cast<std::uint32_t>(n.key & kSlotMask);
  }
  static bool before(const HeapNode& a, const HeapNode& b) {
    if (a.when_ns != b.when_ns) return a.when_ns < b.when_ns;
    return a.key < b.key;
  }

  // 4-ary heap indexing: children of i are 4i+1..4i+4, parent is (i-1)/4.
  // Nodes are stored in 64-byte-aligned groups of four with a 3-node front
  // pad (logical index l lives at physical l+3), which lands every sibling
  // group {4l+1..4l+4} at physical {4l+4..4l+7} — exactly group l+1, one
  // aligned cache line.  A sift level therefore reads one line, not two.
  struct alignas(64) HeapGroup {
    HeapNode n[4];
  };
  static constexpr std::size_t kHeapPad = 3;
  [[nodiscard]] HeapNode& node(std::size_t l) {
    const std::size_t p = l + kHeapPad;
    return heap_[p >> 2].n[p & 3];
  }
  [[nodiscard]] const HeapNode& node(std::size_t l) const {
    const std::size_t p = l + kHeapPad;
    return heap_[p >> 2].n[p & 3];
  }
  static constexpr std::size_t kArity = 4;
  // 256 slots (16KB) per chunk: growth is rare, and a fresh queue's first
  // push — which builds a whole chunk — stays cheap for the thousands of
  // short-lived simulators the chaos explorer spins up.
  static constexpr std::size_t kChunkShift = 8;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

  [[nodiscard]] Slot& slot(std::uint32_t s) {
    return chunks_[s >> kChunkShift][s & (kChunkSize - 1)];
  }
  /// Takes a slot from the free list, growing the slab by a chunk if empty.
  std::uint32_t acquire_slot() {
    if (!free_.empty()) {
      const std::uint32_t s = free_.back();
      free_.pop_back();
      return s;
    }
    if (n_slots_ == cap_slots_) grow_slab();
    return n_slots_++;
  }
  void grow_slab();  // cold path: appends one chunk
  /// Returns the slot to the pool: destroys its callback, bumps the
  /// generation (skipping 0, the never-bound value), pushes it on the free
  /// list.
  void release(std::uint32_t s) {
    Slot& sl = slot(s);
    sl.cb.reset();
    sl.gen += 1 + (sl.gen == UINT32_MAX);
    free_.push_back(s);
  }

  /// Places `n` at `pos`, walking it toward the root/leaves as needed; both
  /// update pos_ for every displaced element.
  void sift_up(std::size_t pos, HeapNode n) {
    if (pos == heap_size_) {
      if (heap_size_ + kHeapPad + 1 > heap_.size() * kArity) {
        heap_.emplace_back();
      }
      ++heap_size_;
    }
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / kArity;
      if (!before(n, node(parent))) break;
      node(pos) = node(parent);
      pos_[slot_of(node(pos))] = static_cast<std::uint32_t>(pos);
      pos = parent;
    }
    node(pos) = n;
    pos_[slot_of(n)] = static_cast<std::uint32_t>(pos);
  }
  void sift_down(std::size_t pos, HeapNode n);
  /// sift_down specialised for root removal: the substitute comes from the
  /// tail, so it almost always belongs back near the leaves.  Descending
  /// the min-child path first (no compare against `n`) and then nudging
  /// `n` up saves one comparison per level over the classic walk.
  void sift_down_from_root(HeapNode n);
  /// Removes heap_[pos] by re-sifting the tail element into its place.
  void remove_at(std::size_t pos);

  std::vector<std::unique_ptr<Slot[]>> chunks_;  // the slab
  std::vector<HeapGroup> heap_;                  // 4-ary min-heap (padded)
  std::size_t heap_size_ = 0;                    // logical node count
  std::vector<std::uint32_t> pos_;               // slot -> heap index
  std::vector<std::uint32_t> free_;              // recycled slot indices
  std::uint32_t n_slots_ = 0;                    // slots ever handed out
  std::uint32_t cap_slots_ = 0;                  // chunks_.size() * kChunkSize
  std::uint64_t next_seq_ = 1;
};

}  // namespace opc
