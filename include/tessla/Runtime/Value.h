//===- tessla/Runtime/Value.h - Runtime stream values ----------*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic value carried by one stream event: a scalar (unit, bool,
/// int, float, string) or a handle to an aggregate (set, map, queue).
/// Aggregate payloads live behind shared_ptr handles so values pass
/// between streams in O(1). Every payload is one persistent structure
/// (HAMT / banker's queue) with refcounted nodes; reads go through
/// immutable views (asSet/asMap/asQueue) and updates through
/// copy-on-write mutation handles (setCow/mapCow/queueCow) that apply
/// the aggregate update analysis's in-place verdict as a destructive
/// fast tier over the same representation — see Runtime/Containers.h.
///
//===----------------------------------------------------------------------===//

#ifndef TESSLA_RUNTIME_VALUE_H
#define TESSLA_RUNTIME_VALUE_H

#include "tessla/Lang/Spec.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <variant>

namespace tessla {

struct SetData;
struct MapData;
struct QueueData;
class SetView;
class MapView;
class QueueView;
class SetCow;
class MapCow;
class QueueCow;

/// Runtime value. Cheap to copy (scalars by value, aggregates by handle).
class Value {
public:
  enum class Kind : uint8_t { Unit, Bool, Int, Float, String, Set, Map,
                              Queue };

  /// Defaults to the unit value.
  Value() = default;
  ~Value();
  Value(const Value &) = default;
  Value(Value &&) noexcept = default;
  Value &operator=(const Value &) = default;
  Value &operator=(Value &&) noexcept = default;

  static Value unit() { return Value(); }
  static Value boolean(bool B) { return Value(Payload(B)); }
  static Value integer(int64_t I) { return Value(Payload(I)); }
  static Value floating(double D) { return Value(Payload(D)); }
  static Value string(std::string S) { return Value(Payload(std::move(S))); }
  static Value set(std::shared_ptr<SetData> D) {
    return Value(Payload(std::move(D)));
  }
  static Value map(std::shared_ptr<MapData> D) {
    return Value(Payload(std::move(D)));
  }
  static Value queue(std::shared_ptr<QueueData> D) {
    return Value(Payload(std::move(D)));
  }

  /// Builds a value from a specification literal.
  static Value fromLiteral(const ConstantLit &Lit);

  Kind kind() const { return static_cast<Kind>(V.index()); }
  bool isAggregate() const {
    return kind() == Kind::Set || kind() == Kind::Map ||
           kind() == Kind::Queue;
  }

  bool getBool() const { return std::get<bool>(V); }
  int64_t getInt() const { return std::get<int64_t>(V); }
  double getFloat() const { return std::get<double>(V); }
  const std::string &getString() const { return std::get<std::string>(V); }

  /// Fresh empty aggregates.
  static Value emptySet();
  static Value emptyMap();
  static Value emptyQueue();

  /// Immutable views onto aggregate payloads (Runtime/Containers.h) —
  /// the only way to read an aggregate. Precondition: matching kind().
  /// The view is valid while this value (or a copy of its handle) lives.
  SetView asSet() const;
  MapView asMap() const;
  QueueView asQueue() const;

  /// Copy-on-write mutation handles. \p InPlace is the mutability
  /// analysis's verdict for the updated stream family: when it proved
  /// exclusivity and this value's handle is dynamically unique, the
  /// handle mutates the payload destructively (the paper's in-place
  /// regime); otherwise it starts from an O(1) wrapper copy that shares
  /// the node tree and every update path-copies — all other sharers are
  /// unaffected. The engines release their own dead handles on an
  /// in-place family's payload before the update (the ownership plan,
  /// Program::planOwnership), so a shared handle here means a holder
  /// outside the lane. Precondition: matching kind().
  SetCow setCow(bool InPlace) const;
  MapCow mapCow(bool InPlace) const;
  QueueCow queueCow(bool InPlace) const;

  /// The payload pointer of an aggregate (nullptr for scalars): stable
  /// identity for structural-sharing detection (serialization dedup,
  /// equality fast paths, memory accounting, the engines' in-place
  /// hit/miss count on every update — hence inline).
  const void *aggregateIdentity() const {
    switch (kind()) {
    case Kind::Set:
      return std::get_if<std::shared_ptr<SetData>>(&V)->get();
    case Kind::Map:
      return std::get_if<std::shared_ptr<MapData>>(&V)->get();
    case Kind::Queue:
      return std::get_if<std::shared_ptr<QueueData>>(&V)->get();
    default:
      return nullptr;
    }
  }

  /// Memory-accounting walk: reports the payload wrapper and every
  /// persistent node of an aggregate as (pointer, resident bytes,
  /// refcount); the callback returns true to descend, false to skip a
  /// subtree it has already visited through another root. Top-level
  /// payload only — aggregates nested inside elements are not walked.
  /// No-op for scalars.
  void forEachAggregateNode(
      const std::function<bool(const void *, size_t, uint32_t)> &Callback)
      const;

  /// Historical name from the dual-representation era, when mutable
  /// payloads had to be cloned before outliving a handler callback.
  /// Payloads are persistent now: sharing the handle is always safe (a
  /// later destructive update sees the share and path-copies), so this
  /// is the identity — O(1).
  Value deepCopy() const { return *this; }

  /// Deep structural equality (aggregates compared element-wise,
  /// independent of representation).
  friend bool operator==(const Value &A, const Value &B);
  friend bool operator!=(const Value &A, const Value &B) {
    return !(A == B);
  }

  /// Total order across all values: by kind, then by content. Gives
  /// aggregates a canonical (sorted) rendering so optimized and baseline
  /// monitors print byte-identical traces.
  friend int compareValues(const Value &A, const Value &B);

  /// Deep hash consistent with operator==.
  size_t hash() const;

  /// Canonical rendering: 42, 1.5, true, "s", (), {1, 2}, {1 -> 2},
  /// <1, 2, 3> (queue front first).
  std::string str() const;

private:
  using Payload =
      std::variant<std::monostate, bool, int64_t, double, std::string,
                   std::shared_ptr<SetData>, std::shared_ptr<MapData>,
                   std::shared_ptr<QueueData>>;

  explicit Value(Payload P) : V(std::move(P)) {}

  Payload V;
};

/// Deep structural equality across representations.
bool operator==(const Value &A, const Value &B);
/// Total order over values (see the friend declaration above).
int compareValues(const Value &A, const Value &B);

/// Hash functor for containers of Values.
struct ValueHash {
  size_t operator()(const Value &V) const { return V.hash(); }
};

/// Human-readable kind name ("Int", "Set", ...).
std::string_view valueKindName(Value::Kind K);

} // namespace tessla

#endif // TESSLA_RUNTIME_VALUE_H
