// Small-buffer type-erased message payload.
//
// Envelope used to carry its payload as std::any, which heap-allocates a
// control block per message — one avoidable allocation (plus a free) on
// every in-process delivery.  MessageBody is the std::any shape cut down
// to what a transport needs: move-only, type-checked access, and a small
// inline buffer sized for the closed protocol vocabulary (acp::Msg,
// ≤ 72 bytes), mirroring InlineCallback's
// small-buffer design on the kernel side.  Payloads that outgrow the
// buffer still work (boxed, counted under mem.sbo_spills) so the type
// stays general.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "core/mem_stats.h"

namespace opc {

class MessageBody {
 public:
  static constexpr std::size_t kInlineSize = 80;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  MessageBody() = default;
  MessageBody(const MessageBody&) = delete;
  MessageBody& operator=(const MessageBody&) = delete;

  MessageBody(MessageBody&& other) noexcept { steal(other); }
  MessageBody& operator=(MessageBody&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  ~MessageBody() { reset(); }

  /// Constructs a payload of type T in place, destroying any previous one.
  template <class T, class... Args>
  T& emplace(Args&&... args) {
    static_assert(std::is_nothrow_move_constructible_v<T>);
    reset();
    T* p;
    if constexpr (fits<T>()) {
      p = ::new (static_cast<void*>(buf_)) T(std::forward<Args>(args)...);
    } else {
      p = new T(std::forward<Args>(args)...);
      heap_ = p;
      MemStats::global().sbo_spills.fetch_add(1, std::memory_order_relaxed);
    }
    vt_ = vtable_for<T>();
    return *p;
  }

  /// Typed access; nullptr when empty or holding a different type.
  template <class T>
  [[nodiscard]] T* get() {
    return vt_ == vtable_for<T>() ? static_cast<T*>(ptr()) : nullptr;
  }
  template <class T>
  [[nodiscard]] const T* get() const {
    return vt_ == vtable_for<T>() ? static_cast<const T*>(ptr()) : nullptr;
  }

  [[nodiscard]] bool has_value() const { return vt_ != nullptr; }
  template <class T>
  [[nodiscard]] bool holds() const {
    return vt_ == vtable_for<T>();
  }

  void reset() {
    if (vt_ == nullptr) return;
    vt_->destroy(ptr(), heap_ != nullptr);
    vt_ = nullptr;
    heap_ = nullptr;
  }

 private:
  struct VTable {
    // Move-constructs from src (inline storage only) into dst, then
    // destroys src.  Heap payloads transfer by pointer and never relocate.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* p, bool heap);
  };

  template <class T>
  static constexpr bool fits() {
    return sizeof(T) <= kInlineSize && alignof(T) <= kInlineAlign;
  }

  template <class T>
  static const VTable* vtable_for() {
    static constexpr VTable vt{
        [](void* dst, void* src) {
          if constexpr (MessageBody::fits<T>()) {
            T* s = static_cast<T*>(src);
            ::new (dst) T(std::move(*s));
            s->~T();
          }
        },
        [](void* p, bool heap) {
          if (heap) {
            delete static_cast<T*>(p);
          } else {
            static_cast<T*>(p)->~T();
          }
        },
    };
    return &vt;
  }

  [[nodiscard]] void* ptr() {
    return heap_ != nullptr ? heap_ : static_cast<void*>(buf_);
  }
  [[nodiscard]] const void* ptr() const {
    return heap_ != nullptr ? heap_ : static_cast<const void*>(buf_);
  }

  void steal(MessageBody& other) {
    vt_ = other.vt_;
    heap_ = other.heap_;
    if (vt_ != nullptr && heap_ == nullptr) {
      vt_->relocate(buf_, other.buf_);
    }
    other.vt_ = nullptr;
    other.heap_ = nullptr;
  }

  alignas(kInlineAlign) unsigned char buf_[kInlineSize];
  void* heap_ = nullptr;
  const VTable* vt_ = nullptr;
};

}  // namespace opc
