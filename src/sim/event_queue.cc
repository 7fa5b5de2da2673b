#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

namespace opc {

void EventQueue::grow_slab() {
  SIM_CHECK_MSG((chunks_.size() << kChunkShift) <= kSlotMask,
                "slot space exhausted");
  chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  cap_slots_ = static_cast<std::uint32_t>(chunks_.size() << kChunkShift);
  pos_.resize(cap_slots_);
}

bool EventQueue::cancel(EventHandle h) {
  if (!h.valid() || h.slot() >= n_slots_) return false;
  Slot& sl = slot(h.slot());
  // A recycled (or already-popped) slot has a different generation; the
  // handle is stale and the cancel is a no-op.
  if (sl.gen != h.gen()) return false;
  remove_at(pos_[h.slot()]);
  release(h.slot());
  return true;
}

EventQueue::Callback EventQueue::pop() {
  const HeapNode top = node(0);
  const HeapNode tail = node(heap_size_ - 1);
  --heap_size_;
  if (heap_size_ != 0) sift_down_from_root(tail);
  const std::uint32_t s = slot_of(top);
  Callback cb = std::move(slot(s).cb);
  release(s);
  return cb;
}

void EventQueue::sift_down(std::size_t pos, HeapNode n) {
  const std::size_t size = heap_size_;
  for (;;) {
    const std::size_t first = pos * kArity + 1;
    if (first >= size) break;
    // All four children of `pos` live in group pos+1 — one aligned line.
    const HeapNode* ch = heap_[pos + 1].n;
    const std::size_t nch = std::min(kArity, size - first);
    std::size_t best = 0;
    for (std::size_t c = 1; c < nch; ++c) {
      if (before(ch[c], ch[best])) best = c;
    }
    if (!before(ch[best], n)) break;
    node(pos) = ch[best];
    pos_[slot_of(node(pos))] = static_cast<std::uint32_t>(pos);
    pos = first + best;
  }
  node(pos) = n;
  pos_[slot_of(n)] = static_cast<std::uint32_t>(pos);
}

void EventQueue::sift_down_from_root(HeapNode n) {
  const std::size_t size = heap_size_;
  std::size_t pos = 0;
  // Pull the min child up at every level without comparing against `n`.
  for (;;) {
    const std::size_t first = pos * kArity + 1;
    if (first >= size) break;
    const HeapNode* ch = heap_[pos + 1].n;
    const std::size_t nch = std::min(kArity, size - first);
    std::size_t best = 0;
    for (std::size_t c = 1; c < nch; ++c) {
      if (before(ch[c], ch[best])) best = c;
    }
    node(pos) = ch[best];
    pos_[slot_of(node(pos))] = static_cast<std::uint32_t>(pos);
    pos = first + best;
  }
  // `n` usually belongs at (or next to) the leaf hole; walk it back up the
  // few levels it overshot.
  sift_up(pos, n);
}

void EventQueue::remove_at(std::size_t pos) {
  const HeapNode tail = node(heap_size_ - 1);
  --heap_size_;
  if (pos == heap_size_) return;  // removed the tail itself
  // The substitute may belong either above or below `pos`; exactly one of
  // these walks moves it (the other is a single comparison).
  if (pos > 0 && before(tail, node((pos - 1) / kArity))) {
    sift_up(pos, tail);
  } else {
    sift_down(pos, tail);
  }
}

}  // namespace opc
