//===- tessla/Runtime/Containers.h - Aggregate payloads --------*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The aggregate payloads behind Value handles, and the two faces through
/// which the runtime touches them:
///
///  - views (SetView/MapView/QueueView): immutable, read-only windows onto
///    a payload — the only way to inspect an aggregate.
///  - COW handles (SetCow/MapCow/QueueCow): single-use mutation handles
///    obtained from Value::setCow()/mapCow()/queueCow(). Every payload is
///    one persistent structure (HAMT / banker's queue) whose nodes carry
///    refcounts; the paper's two update regimes are two tiers of this one
///    representation. When the mutability analysis proved exclusivity
///    (InPlace) *and* the wrapper is uniquely owned, the handle reuses the
///    wrapper and the transient HAMT ops mutate uniquely-owned nodes
///    destructively; otherwise the handle starts from an O(1) copy of the
///    wrapper (sharing the whole node tree) and every update path-copies
///    the O(log32 n) spine, leaving all sharers untouched.
///
/// Counting: every payload carries the intrusive ValuePayload header
/// (Value.h) — one atomic count shared by all Value handles on it — and
/// a COW handle holds one more count through RefCntPtr. "Uniquely
/// owned" is useCount() == 1, an acquire load: a sharer on another
/// thread (a forked lane on another shard) that dropped its handle with
/// the count's release-decrement has its reads of the payload ordered
/// before the destructive writes. Retains are relaxed, so that load is
/// the only edge; ValueTest.InPlaceUpdateAfterCrossThreadRelease keeps
/// it under TSan.
///
/// Ownership: an in-place update owns its family's payload. Before it
/// runs, the engine drops the lane's own other handles on the payload
/// that the translation order proves dead (Program::planOwnership), so
/// the uniqueness test here only has to detect holders outside the lane
/// — forks and snapshots, handler-held outputs, checkpoints — which keep
/// their version through the path copy.
///
/// The static InPlace verdict is required — dynamic uniqueness alone is
/// unsound because a program can re-read a slot after deriving two values
/// from it (s2 = setAdd(s1, x); s3 = setAdd(s1, y)): at the first update
/// the s1 wrapper is uniquely owned, yet s1 must survive. For handles
/// inside one lane the verdict is trusted as in the paper's generated
/// code: a wrong verdict can change observable values there.
///
//===----------------------------------------------------------------------===//

#ifndef TESSLA_RUNTIME_CONTAINERS_H
#define TESSLA_RUNTIME_CONTAINERS_H

#include "tessla/Persistent/HAMT.h"
#include "tessla/Persistent/Queue.h"
#include "tessla/Runtime/Value.h"

#include <utility>
#include <vector>

namespace tessla {

// A set's trie entry is the element alone.
static_assert(HamtSet<Value, ValueHash>::EntryBytes == sizeof(Value));

/// Set payload: a persistent HAMT of elements.
struct SetData final : ValuePayload {
  HamtSet<Value, ValueHash> Elems;

  size_t size() const { return Elems.size(); }
  bool contains(const Value &V) const { return Elems.contains(V); }
  /// Elements in unspecified order.
  std::vector<Value> items() const { return Elems.items(); }
};

/// Map payload: a persistent HAMT of entries.
struct MapData final : ValuePayload {
  HamtMap<Value, Value, ValueHash> Entries;

  size_t size() const { return Entries.size(); }
  /// nullptr if absent. The pointer is invalidated by any update.
  const Value *find(const Value &Key) const { return Entries.find(Key); }
  /// Entries in unspecified order.
  std::vector<std::pair<Value, Value>> items() const {
    return Entries.items();
  }
};

/// FIFO queue payload: a persistent two-list queue.
struct QueueData final : ValuePayload {
  PQueue<Value> Elems;

  size_t size() const { return Elems.size(); }
  bool empty() const { return Elems.empty(); }
  /// Elements front (oldest) first.
  std::vector<Value> items() const {
    std::vector<Value> Out;
    Out.reserve(Elems.size());
    Elems.forEach([&Out](const Value &V) { Out.push_back(V); });
    return Out;
  }
};

// --- Views ----------------------------------------------------------------

/// Read-only window onto a set payload. Valid while the Value it came
/// from is alive and not destructively updated.
class SetView {
public:
  explicit SetView(const SetData *D) : D(D) {}

  size_t size() const { return D->size(); }
  bool empty() const { return D->size() == 0; }
  bool contains(const Value &V) const { return D->contains(V); }
  std::vector<Value> items() const { return D->items(); }
  template <typename Fn> void forEach(Fn &&Callback) const {
    D->Elems.forEach(std::forward<Fn>(Callback));
  }
  /// Memory-accounting walk over the payload's trie nodes (see
  /// HamtMap::forEachNode).
  template <typename Fn> void forEachNode(Fn &&Callback) const {
    D->Elems.forEachNode(std::forward<Fn>(Callback));
  }

private:
  const SetData *D;
};

/// Read-only window onto a map payload.
class MapView {
public:
  explicit MapView(const MapData *D) : D(D) {}

  size_t size() const { return D->size(); }
  bool empty() const { return D->size() == 0; }
  bool contains(const Value &Key) const { return D->find(Key) != nullptr; }
  /// nullptr if absent. The pointer is invalidated by any update.
  const Value *find(const Value &Key) const { return D->find(Key); }
  std::vector<std::pair<Value, Value>> items() const { return D->items(); }
  template <typename Fn> void forEach(Fn &&Callback) const {
    D->Entries.forEach(std::forward<Fn>(Callback));
  }
  template <typename Fn> void forEachNode(Fn &&Callback) const {
    D->Entries.forEachNode(std::forward<Fn>(Callback));
  }

private:
  const MapData *D;
};

/// Read-only window onto a queue payload.
class QueueView {
public:
  explicit QueueView(const QueueData *D) : D(D) {}

  size_t size() const { return D->size(); }
  bool empty() const { return D->empty(); }
  /// Oldest element. Precondition: !empty().
  const Value &front() const { return D->Elems.front(); }
  std::vector<Value> items() const { return D->items(); }
  template <typename Fn> void forEach(Fn &&Callback) const {
    D->Elems.forEach(std::forward<Fn>(Callback));
  }
  template <typename Fn> void forEachNode(Fn &&Callback) const {
    D->Elems.forEachNode(std::forward<Fn>(Callback));
  }

private:
  const QueueData *D;
};

// --- COW mutation handles -------------------------------------------------

/// Single-use mutation handle for a set (see the file comment for the
/// two-tier semantics). Obtain via Value::setCow(); consume with
/// std::move(handle).finish().
class SetCow {
public:
  explicit SetCow(RefCntPtr<SetData> D) : D(std::move(D)) {}

  void add(Value V) { D->Elems.insertMut(std::move(V)); }
  /// Returns true when the element was present.
  bool remove(const Value &V) { return D->Elems.eraseMut(V); }
  /// Adds \p V when absent and removes it when present, in one descent of
  /// the trie. Returns true when V is an element afterwards.
  bool toggle(Value V) { return D->Elems.toggleMut(std::move(V)); }
  size_t size() const { return D->size(); }
  bool contains(const Value &V) const { return D->contains(V); }

  /// The resulting value; the handle is spent.
  Value finish() && { return Value::set(std::move(D)); }

private:
  RefCntPtr<SetData> D;
};

/// Single-use mutation handle for a map.
class MapCow {
public:
  explicit MapCow(RefCntPtr<MapData> D) : D(std::move(D)) {}

  void put(Value Key, Value Val) {
    D->Entries.setMut(std::move(Key), std::move(Val));
  }
  /// Returns true when the key was present.
  bool remove(const Value &Key) { return D->Entries.eraseMut(Key); }
  size_t size() const { return D->size(); }
  const Value *find(const Value &Key) const { return D->find(Key); }

  Value finish() && { return Value::map(std::move(D)); }

private:
  RefCntPtr<MapData> D;
};

/// Single-use mutation handle for a queue. The banker's queue is already
/// O(1) per operation in its persistent form, so both tiers use the
/// persistent ops; the handle still distinguishes wrapper reuse so the
/// in-place verdict keeps handle identity (and skips a wrapper
/// allocation). That is all the destructive tier saves here: a queue
/// update costs about the same at 100 % in-place hits as persistently.
class QueueCow {
public:
  explicit QueueCow(RefCntPtr<QueueData> D) : D(std::move(D)) {}

  void enqueue(Value V) { D->Elems = D->Elems.enqueue(std::move(V)); }
  /// Drops the oldest element. Precondition: !empty().
  void dequeue() { D->Elems = D->Elems.dequeue(); }
  size_t size() const { return D->size(); }
  bool empty() const { return D->empty(); }
  const Value &front() const { return D->Elems.front(); }

  Value finish() && { return Value::queue(std::move(D)); }

private:
  RefCntPtr<QueueData> D;
};

// --- Value's aggregate accessors (declared in Value.h) --------------------

inline Value Value::set(RefCntPtr<SetData> D) {
  return Value(Kind::Set, {.P = D.detach()});
}
inline Value Value::map(RefCntPtr<MapData> D) {
  return Value(Kind::Map, {.P = D.detach()});
}
inline Value Value::queue(RefCntPtr<QueueData> D) {
  return Value(Kind::Queue, {.P = D.detach()});
}

inline SetView Value::asSet() const {
  if (K != Kind::Set)
    kindMismatch(Kind::Set);
  return SetView(static_cast<const SetData *>(W.P));
}
inline MapView Value::asMap() const {
  if (K != Kind::Map)
    kindMismatch(Kind::Map);
  return MapView(static_cast<const MapData *>(W.P));
}
inline QueueView Value::asQueue() const {
  if (K != Kind::Queue)
    kindMismatch(Kind::Queue);
  return QueueView(static_cast<const QueueData *>(W.P));
}

} // namespace tessla

#endif // TESSLA_RUNTIME_CONTAINERS_H
