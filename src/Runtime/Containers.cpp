//===- Runtime/Containers.cpp -----------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// Value's aggregate surface: view and COW-handle constructors live here,
// where the payload types are complete.
//
//===----------------------------------------------------------------------===//

#include "tessla/Runtime/Containers.h"

#include <atomic>

using namespace tessla;

Value Value::emptySet() { return Value::set(std::make_shared<SetData>()); }
Value Value::emptyMap() { return Value::map(std::make_shared<MapData>()); }
Value Value::emptyQueue() {
  return Value::queue(std::make_shared<QueueData>());
}

SetView Value::asSet() const {
  return SetView(std::get<std::shared_ptr<SetData>>(V).get());
}
MapView Value::asMap() const {
  return MapView(std::get<std::shared_ptr<MapData>>(V).get());
}
QueueView Value::asQueue() const {
  return QueueView(std::get<std::shared_ptr<QueueData>>(V).get());
}

// The uniqueness check must read the use count *before* copying the
// handle into the COW wrapper (the copy itself would push it to 2).
// Wrapper-unique + InPlace selects the destructive tier: the handle
// shares the wrapper, so the update is visible through this value —
// exactly the in-place regime's contract. Node-level uniqueness is
// checked separately inside the transient structure ops, so a wrapper
// that was forked from another session still path-copies shared nodes.
//
// use_count() is a relaxed load. When it reads 1 because another thread
// (a forked lane on another shard) just dropped its handle, the acquire
// fence pairs with that release-decrement, so the other thread's reads
// of the payload happen before this thread's in-place writes.

SetCow Value::setCow(bool InPlace) const {
  const auto &H = std::get<std::shared_ptr<SetData>>(V);
  if (InPlace && H.use_count() == 1) {
    std::atomic_thread_fence(std::memory_order_acquire);
    return SetCow(H);
  }
  return SetCow(std::make_shared<SetData>(*H));
}

MapCow Value::mapCow(bool InPlace) const {
  const auto &H = std::get<std::shared_ptr<MapData>>(V);
  if (InPlace && H.use_count() == 1) {
    std::atomic_thread_fence(std::memory_order_acquire);
    return MapCow(H);
  }
  return MapCow(std::make_shared<MapData>(*H));
}

QueueCow Value::queueCow(bool InPlace) const {
  const auto &H = std::get<std::shared_ptr<QueueData>>(V);
  if (InPlace && H.use_count() == 1) {
    std::atomic_thread_fence(std::memory_order_acquire);
    return QueueCow(H);
  }
  return QueueCow(std::make_shared<QueueData>(*H));
}

void Value::forEachAggregateNode(
    const std::function<bool(const void *, size_t, uint32_t)> &Callback)
    const {
  switch (kind()) {
  case Kind::Set: {
    const auto &H = std::get<std::shared_ptr<SetData>>(V);
    if (!Callback(H.get(), sizeof(SetData),
                  static_cast<uint32_t>(H.use_count())))
      return;
    H->Elems.forEachNode(Callback);
    return;
  }
  case Kind::Map: {
    const auto &H = std::get<std::shared_ptr<MapData>>(V);
    if (!Callback(H.get(), sizeof(MapData),
                  static_cast<uint32_t>(H.use_count())))
      return;
    H->Entries.forEachNode(Callback);
    return;
  }
  case Kind::Queue: {
    const auto &H = std::get<std::shared_ptr<QueueData>>(V);
    if (!Callback(H.get(), sizeof(QueueData),
                  static_cast<uint32_t>(H.use_count())))
      return;
    H->Elems.forEachNode(Callback);
    return;
  }
  default:
    return;
  }
}
