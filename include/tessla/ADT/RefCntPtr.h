//===- tessla/ADT/RefCntPtr.h - Intrusive refcounting ----------*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Intrusive reference counting for the persistent data structures. The
/// counter is atomic: since session fork (MonitorFleet::forkSession) shares
/// HAMT/queue nodes between lanes that live on different shard threads,
/// retain/release race across threads even though each individual monitor
/// only mutates its own handles. Relaxed increments and acq-rel decrements
/// keep the common (uncontended) case cheap; unique() uses an acquire load
/// so a thread that observes count==1 also observes every write the last
/// releasing thread made to the node. A new object's count starts at 1,
/// which makeRefCnt's pointer adopts: creating an object costs no
/// read-modify-write.
///
//===----------------------------------------------------------------------===//

#ifndef TESSLA_ADT_REFCNTPTR_H
#define TESSLA_ADT_REFCNTPTR_H

#include <atomic>
#include <cassert>
#include <cstdint>
#include <utility>

namespace tessla {

/// CRTP base providing the intrusive reference count. Derive as
/// `class Node : public RefCountedBase<Node>`.
template <typename Derived> class RefCountedBase {
public:
  RefCountedBase() = default;
  // Copies start with a fresh count of 1.
  RefCountedBase(const RefCountedBase &) {}
  RefCountedBase &operator=(const RefCountedBase &) { return *this; }

  void retain() const { RefCount.fetch_add(1, std::memory_order_relaxed); }
  void release() const {
    assert(RefCount.load(std::memory_order_relaxed) > 0 && "over-release");
    if (RefCount.fetch_sub(1, std::memory_order_acq_rel) == 1)
      delete static_cast<const Derived *>(this);
  }
  uint32_t useCount() const {
    return RefCount.load(std::memory_order_acquire);
  }

protected:
  ~RefCountedBase() = default;

private:
  mutable std::atomic<uint32_t> RefCount{1};
};

/// Tag for the RefCntPtr constructor that adopts a count the caller owns.
struct AdoptRef {};

/// Smart pointer for RefCountedBase-derived objects.
template <typename T> class RefCntPtr {
public:
  RefCntPtr() = default;
  RefCntPtr(std::nullptr_t) {}
  /// Takes a new reference on \p P.
  explicit RefCntPtr(T *P) : Ptr(P) {
    if (Ptr)
      Ptr->retain();
  }
  /// Takes over one count the caller owns on \p P (the inverse of
  /// detach()).
  RefCntPtr(T *P, AdoptRef) noexcept : Ptr(P) {}
  RefCntPtr(const RefCntPtr &Other) : Ptr(Other.Ptr) {
    if (Ptr)
      Ptr->retain();
  }
  RefCntPtr(RefCntPtr &&Other) noexcept : Ptr(Other.Ptr) {
    Other.Ptr = nullptr;
  }
  ~RefCntPtr() {
    if (Ptr)
      Ptr->release();
  }

  RefCntPtr &operator=(RefCntPtr Other) noexcept {
    std::swap(Ptr, Other.Ptr);
    return *this;
  }

  T *get() const { return Ptr; }
  T &operator*() const {
    assert(Ptr && "dereferencing null RefCntPtr");
    return *Ptr;
  }
  T *operator->() const {
    assert(Ptr && "dereferencing null RefCntPtr");
    return Ptr;
  }
  explicit operator bool() const { return Ptr != nullptr; }

  /// True if this is the only reference — enables transient in-place reuse
  /// optimizations inside persistent structures.
  bool unique() const { return Ptr && Ptr->useCount() == 1; }

  void reset() {
    if (Ptr)
      Ptr->release();
    Ptr = nullptr;
  }

  /// Gives up this reference without releasing it: the caller now owns
  /// one count on the returned object. Leaves this pointer null.
  T *detach() {
    T *P = Ptr;
    Ptr = nullptr;
    return P;
  }

  friend bool operator==(const RefCntPtr &A, const RefCntPtr &B) {
    return A.Ptr == B.Ptr;
  }
  friend bool operator==(const RefCntPtr &A, std::nullptr_t) {
    return A.Ptr == nullptr;
  }

private:
  T *Ptr = nullptr;
};

/// Allocates a T and wraps it; analogous to std::make_shared. The new
/// object's count starts at 1, and the pointer adopts it.
template <typename T, typename... Args> RefCntPtr<T> makeRefCnt(Args &&...As) {
  return RefCntPtr<T>(new T(std::forward<Args>(As)...), AdoptRef{});
}

} // namespace tessla

#endif // TESSLA_ADT_REFCNTPTR_H
