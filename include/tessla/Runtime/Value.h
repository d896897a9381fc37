//===- tessla/Runtime/Value.h - Runtime stream values ----------*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic value carried by one stream event: a scalar (unit, bool,
/// int, float, string) or a handle to an aggregate (set, map, queue).
///
/// A Value is two words: a kind tag and one word holding the bool, int or
/// double itself, or a pointer to a heap payload. Strings and the three
/// aggregate payloads share one intrusive header (ValuePayload: the
/// atomic RefCountedBase count plus a virtual destructor), so copying a
/// value copies two words and, for a string or aggregate, retains the
/// payload once; values pass between streams in O(1). Copy, move,
/// destroy, hash() and operator== are inline. A moved-from Value is unit.
///
/// Every aggregate payload is one persistent structure (HAMT / banker's
/// queue) with refcounted nodes; reads go through immutable views
/// (asSet/asMap/asQueue) and updates through copy-on-write mutation
/// handles (setCow/mapCow/queueCow) that apply the aggregate update
/// analysis's in-place verdict as a destructive fast tier over the same
/// representation — see Runtime/Containers.h.
///
//===----------------------------------------------------------------------===//

#ifndef TESSLA_RUNTIME_VALUE_H
#define TESSLA_RUNTIME_VALUE_H

#include "tessla/ADT/RefCntPtr.h"
#include "tessla/ADT/Relocatable.h"
#include "tessla/Lang/Spec.h"

#include <cstdint>
#include <functional>
#include <string>

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

/// The intrusive header of every heap payload a Value points at: the
/// atomic count plus a virtual destructor, so a Value releases a string
/// or an aggregate through one pointer without knowing which it is.
/// Copies start with a fresh count.
struct ValuePayload : RefCountedBase<ValuePayload> {
  ValuePayload() = default;
  ValuePayload(const ValuePayload &) = default;
  ValuePayload(ValuePayload &&) = default;
  ValuePayload &operator=(const ValuePayload &) = default;
  ValuePayload &operator=(ValuePayload &&) = default;
  virtual ~ValuePayload() = default;
};

/// String payload. Immutable once built: every holder shares it.
struct StringData final : ValuePayload {
  explicit StringData(std::string S) : Str(std::move(S)) {}
  std::string Str;
};

/// Runtime value. Cheap to copy (scalars by value, strings and
/// aggregates by handle).
class Value {
public:
  /// The order is load-bearing: kinds from String on hold a payload
  /// pointer, kinds from Set on an aggregate, and compareValues ranks
  /// kinds by it.
  enum class Kind : uint8_t { Unit, Bool, Int, Float, String, Set, Map,
                              Queue };

  /// Defaults to the unit value.
  Value() noexcept = default;
  ~Value() {
    if (onHeap())
      W.P->release();
  }
  Value(const Value &O) noexcept : K(O.K), W(O.W) {
    if (onHeap())
      W.P->retain();
  }
  /// Leaves \p O unit.
  Value(Value &&O) noexcept : K(O.K), W(O.W) { O.K = Kind::Unit; }
  Value &operator=(const Value &O) noexcept {
    // Retain before releasing: O may be this value, or live inside the
    // payload this value is about to drop.
    Kind NK = O.K;
    Word NW = O.W;
    if (NK >= Kind::String)
      NW.P->retain();
    if (onHeap())
      W.P->release();
    K = NK;
    W = NW;
    return *this;
  }
  /// Leaves \p O unit (unless it is this value).
  Value &operator=(Value &&O) noexcept {
    Kind NK = O.K;
    Word NW = O.W;
    O.K = Kind::Unit;
    if (onHeap())
      W.P->release();
    K = NK;
    W = NW;
    return *this;
  }

  static Value unit() { return Value(); }
  static Value boolean(bool B) { return Value(Kind::Bool, {.I = B}); }
  static Value integer(int64_t I) { return Value(Kind::Int, {.I = I}); }
  static Value floating(double D) { return Value(Kind::Float, {.D = D}); }
  static Value string(std::string S) {
    return Value(Kind::String,
                 {.P = makeRefCnt<StringData>(std::move(S)).detach()});
  }
  /// Wrap an aggregate payload (Runtime/Containers.h defines these).
  static inline Value set(RefCntPtr<SetData> D);
  static inline Value map(RefCntPtr<MapData> D);
  static inline Value queue(RefCntPtr<QueueData> D);

  /// Builds a value from a specification literal.
  static Value fromLiteral(const ConstantLit &Lit);

  Kind kind() const { return K; }
  bool isAggregate() const { return K >= Kind::Set; }

  bool getBool() const {
    if (K != Kind::Bool)
      kindMismatch(Kind::Bool);
    return W.I != 0;
  }
  int64_t getInt() const {
    if (K != Kind::Int)
      kindMismatch(Kind::Int);
    return W.I;
  }
  double getFloat() const {
    if (K != Kind::Float)
      kindMismatch(Kind::Float);
    return W.D;
  }
  const std::string &getString() const {
    if (K != Kind::String)
      kindMismatch(Kind::String);
    return static_cast<const StringData *>(W.P)->Str;
  }

  /// Fresh empty aggregates.
  static Value emptySet();
  static Value emptyMap();
  static Value emptyQueue();

  /// Immutable views onto aggregate payloads (Runtime/Containers.h) —
  /// the only way to read an aggregate. Precondition: matching kind().
  /// The view is valid while this value (or a copy of its handle) lives.
  inline SetView asSet() const;
  inline MapView asMap() const;
  inline QueueView asQueue() const;

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

  /// The payload pointer of an aggregate (nullptr for scalars and
  /// strings): stable identity for structural-sharing detection
  /// (serialization dedup, equality fast paths, memory accounting, the
  /// engines' in-place hit/miss count on every update).
  const void *aggregateIdentity() const {
    return isAggregate() ? W.P : nullptr;
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
  friend bool operator==(const Value &A, const Value &B) {
    if (A.K != B.K)
      return false;
    switch (A.K) {
    case Kind::Unit:
      return true;
    case Kind::Bool:
    case Kind::Int:
      return A.W.I == B.W.I;
    case Kind::Float:
      return A.W.D == B.W.D;
    case Kind::String:
      return A.W.P == B.W.P || A.getString() == B.getString();
    default:
      return A.W.P == B.W.P || aggregateEquals(A, B);
    }
  }
  friend bool operator!=(const Value &A, const Value &B) {
    return !(A == B);
  }

  /// Total order across all values: by kind, then by content. Gives
  /// aggregates a canonical (sorted) rendering so optimized and baseline
  /// monitors print byte-identical traces.
  friend int compareValues(const Value &A, const Value &B);

  /// Deep hash consistent with operator==.
  size_t hash() const {
    size_t KindSeed = static_cast<size_t>(K) * 0x9e3779b97f4a7c15ULL;
    switch (K) {
    case Kind::Unit:
      return KindSeed;
    case Kind::Bool:
      return hashCombine(KindSeed, getBool() ? 1 : 0);
    case Kind::Int:
      return hashCombine(KindSeed, std::hash<int64_t>{}(W.I));
    case Kind::Float:
      return hashCombine(KindSeed, std::hash<double>{}(W.D));
    case Kind::String:
      return hashCombine(KindSeed, std::hash<std::string>{}(getString()));
    default:
      return hashCombine(KindSeed, aggregateHash());
    }
  }

  /// Canonical rendering: 42, 1.5, true, "s", (), {1, 2}, {1 -> 2},
  /// <1, 2, 3> (queue front first).
  std::string str() const;

private:
  /// The one word next to the tag: Bool and Int use I (a bool as 0/1),
  /// Float uses D, String and the aggregates use P (one retained count).
  union Word {
    int64_t I;
    double D;
    ValuePayload *P;
  };

  /// For String and the aggregates, adopts one count on \p W.P.
  Value(Kind K, Word W) noexcept : K(K), W(W) {}

  bool onHeap() const { return K >= Kind::String; }
  /// Throws std::logic_error naming both kinds. Accessors check the kind
  /// in every build: a mismatch is a bug or unvalidated input, and must
  /// not read the word as another type.
  [[noreturn]] void kindMismatch(Kind Want) const;

  static size_t hashCombine(size_t Seed, size_t H) {
    return Seed ^ (H + 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2));
  }
  /// Element-wise equality of two aggregates of one kind.
  static bool aggregateEquals(const Value &A, const Value &B);
  /// The content part of an aggregate's hash.
  size_t aggregateHash() const;

  Kind K = Kind::Unit;
  Word W = {.I = 0};
};

// Every interpreter slot, HAMT leaf, ring record and output event holds
// Values by value: a new member here grows all of them.
static_assert(sizeof(Value) == 16, "Value is a kind tag plus one word");

// A move copies the two words and leaves the source unit, whose
// destructor does nothing: a HAMT node shifts its Values with memmove.
template <> struct IsTriviallyRelocatable<Value> : std::true_type {};

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
