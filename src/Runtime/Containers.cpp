//===- Runtime/Containers.cpp -----------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// Value's aggregate surface: the empty-aggregate and COW-handle
// constructors live here, where the payload types are complete.
//
//===----------------------------------------------------------------------===//

#include "tessla/Runtime/Containers.h"

using namespace tessla;

Value Value::emptySet() { return Value::set(makeRefCnt<SetData>()); }
Value Value::emptyMap() { return Value::map(makeRefCnt<MapData>()); }
Value Value::emptyQueue() { return Value::queue(makeRefCnt<QueueData>()); }

// The uniqueness check must read the count *before* the COW handle
// retains the payload (that retain itself would push it to 2).
// Wrapper-unique + InPlace selects the destructive tier: the handle
// shares the wrapper, so the update is visible through this value —
// exactly the in-place regime's contract. Node-level uniqueness is
// checked separately inside the transient structure ops, so a wrapper
// that was forked from another session still path-copies shared nodes.
// useCount() is an acquire load, the one edge that orders a sharer's
// reads on another thread before the in-place writes (Containers.h).

SetCow Value::setCow(bool InPlace) const {
  if (K != Kind::Set)
    kindMismatch(Kind::Set);
  auto *D = static_cast<SetData *>(W.P);
  if (InPlace && D->useCount() == 1)
    return SetCow(RefCntPtr<SetData>(D));
  return SetCow(makeRefCnt<SetData>(*D));
}

MapCow Value::mapCow(bool InPlace) const {
  if (K != Kind::Map)
    kindMismatch(Kind::Map);
  auto *D = static_cast<MapData *>(W.P);
  if (InPlace && D->useCount() == 1)
    return MapCow(RefCntPtr<MapData>(D));
  return MapCow(makeRefCnt<MapData>(*D));
}

QueueCow Value::queueCow(bool InPlace) const {
  if (K != Kind::Queue)
    kindMismatch(Kind::Queue);
  auto *D = static_cast<QueueData *>(W.P);
  if (InPlace && D->useCount() == 1)
    return QueueCow(RefCntPtr<QueueData>(D));
  return QueueCow(makeRefCnt<QueueData>(*D));
}

void Value::forEachAggregateNode(
    const std::function<bool(const void *, size_t, uint32_t)> &Callback)
    const {
  switch (kind()) {
  case Kind::Set: {
    const auto *D = static_cast<const SetData *>(W.P);
    if (Callback(D, sizeof(SetData), D->useCount()))
      D->Elems.forEachNode(Callback);
    return;
  }
  case Kind::Map: {
    const auto *D = static_cast<const MapData *>(W.P);
    if (Callback(D, sizeof(MapData), D->useCount()))
      D->Entries.forEachNode(Callback);
    return;
  }
  case Kind::Queue: {
    const auto *D = static_cast<const QueueData *>(W.P);
    if (Callback(D, sizeof(QueueData), D->useCount()))
      D->Elems.forEachNode(Callback);
    return;
  }
  default:
    return;
  }
}
