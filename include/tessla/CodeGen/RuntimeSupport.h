//===- tessla/CodeGen/RuntimeSupport.h - Generated-code helpers -*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers included by monitors the CppEmitter generates. Rendering
/// matches tessla::Value::str() exactly, so generated monitors and the
/// interpreter produce byte-identical output traces. Next to each str()
/// overload sits a writeValue() overload that encodes the value in
/// tessla::bc::writeValue's binary form; the native shim hands outputs
/// to the host that way. Generated monitors link nothing of the tessla
/// libraries, so everything here is header-only.
///
//===----------------------------------------------------------------------===//

#ifndef TESSLA_CODEGEN_RUNTIMESUPPORT_H
#define TESSLA_CODEGEN_RUNTIMESUPPORT_H

#include "tessla/Persistent/HAMT.h"
#include "tessla/Persistent/Queue.h"
#include "tessla/Support/Format.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace tessla {
namespace cgen {

/// The unit value in generated code.
struct UnitV {
  friend bool operator==(UnitV, UnitV) { return true; }
  friend bool operator<(UnitV, UnitV) { return false; }
};

struct UnitHash {
  size_t operator()(UnitV) const { return 0; }
};

/// Carries a generated-monitor runtime error (division by zero etc.) to
/// the host when the monitor is embedded rather than standalone. The
/// message is a static string owned by the generated code.
struct FailError {
  const char *Message;
};

/// Generated monitors abort with a message on runtime errors — they are
/// standalone tools, not library code. The native tier compiles the same
/// monitor into a shared object embedded in a host process, where abort()
/// would take the host down: defining TESSLA_CGEN_FAIL_THROWS makes fail()
/// throw FailError instead, and the extern "C" shim catches it at the
/// library boundary and converts it into the session error state.
#ifdef TESSLA_CGEN_FAIL_THROWS
[[noreturn]] inline void fail(const char *Message) { throw FailError{Message}; }
#else
[[noreturn]] inline void fail(const char *Message) {
  std::fprintf(stderr, "monitor runtime error: %s\n", Message);
  std::abort();
}
#endif

inline int64_t checkedDiv(int64_t A, int64_t B) {
  if (B == 0)
    fail("integer division by zero");
  return A / B;
}
inline int64_t checkedMod(int64_t A, int64_t B) {
  if (B == 0)
    fail("integer modulo by zero");
  return A % B;
}

// --- getOrElse / get over both map representations ----------------------

template <typename K, typename V, typename H>
V getOrElse(const std::unordered_map<K, V, H> &M, const K &Key,
            const V &Default) {
  auto It = M.find(Key);
  return It == M.end() ? Default : It->second;
}
template <typename K, typename V, typename H>
V getOrElse(const HamtMap<K, V, H> &M, const K &Key, const V &Default) {
  const V *Found = M.find(Key);
  return Found ? *Found : Default;
}
template <typename K, typename V, typename H>
V mapGet(const std::unordered_map<K, V, H> &M, const K &Key) {
  auto It = M.find(Key);
  if (It == M.end())
    fail("mapGet: key not present");
  return It->second;
}
template <typename K, typename V, typename H>
V mapGet(const HamtMap<K, V, H> &M, const K &Key) {
  const V *Found = M.find(Key);
  if (!Found)
    fail("mapGet: key not present");
  return *Found;
}

// --- queue helpers -------------------------------------------------------

template <typename T> T queueFront(const std::deque<T> &Q) {
  if (Q.empty())
    fail("queueFront on empty queue");
  return Q.front();
}
template <typename T> T queueFront(const PQueue<T> &Q) {
  if (Q.empty())
    fail("queueFront on empty queue");
  return Q.front();
}
template <typename T> void queuePop(std::deque<T> &Q) {
  if (Q.empty())
    fail("queueDeq on empty queue");
  Q.pop_front();
}
template <typename T> PQueue<T> queuePopped(const PQueue<T> &Q) {
  if (Q.empty())
    fail("queueDeq on empty queue");
  return Q.dequeue();
}
template <typename T> PQueue<T> queueTrimmed(PQueue<T> Q, int64_t Bound) {
  if (Bound < 0)
    Bound = 0;
  while (Q.size() > static_cast<size_t>(Bound))
    Q = Q.dequeue();
  return Q;
}
template <typename T> void queueTrim(std::deque<T> &Q, int64_t Bound) {
  if (Bound < 0)
    Bound = 0;
  while (Q.size() > static_cast<size_t>(Bound))
    Q.pop_front();
}

// --- set union / difference across representations -----------------------

template <typename T, typename H>
std::vector<T> setItems(const std::unordered_set<T, H> &S) {
  return std::vector<T>(S.begin(), S.end());
}
template <typename T, typename H>
std::vector<T> setItems(const HamtSet<T, H> &S) {
  return S.items();
}

/// Destructive union/difference into a mutable set; the source is
/// materialized first, so degenerate self-application stays defined.
template <typename Dst, typename Src>
void setUnionInto(Dst &D, const Src &S) {
  for (auto &V : setItems(S))
    D.insert(V);
}
template <typename Dst, typename Src>
void setDiffInto(Dst &D, const Src &S) {
  for (auto &V : setItems(S))
    D.erase(V);
}

/// Persistent union/difference (source may use either representation —
/// arguments can come from different variable families).
template <typename T, typename H, typename Src>
HamtSet<T, H> setUnionOf(HamtSet<T, H> D, const Src &S) {
  for (auto &V : setItems(S))
    D = D.insert(V);
  return D;
}
template <typename T, typename H, typename Src>
HamtSet<T, H> setDiffOf(HamtSet<T, H> D, const Src &S) {
  for (auto &V : setItems(S))
    D = D.erase(V);
  return D;
}

// --- binary value encoding (matches tessla::bc::writeValue) -------------
//
// A value is a kind byte (tessla::Value::Kind's order) and its payload,
// little-endian: Bool one byte, Int and Float eight (a Float's bits),
// String a u32 length and the bytes, Set/Map/Queue a u32 count and the
// elements, each again a full value. Set elements and Map keys come in
// ascending order, Queue elements front first, so equal values encode
// to equal bytes whatever a hash table's iteration order. The host reads
// the bytes back with bc::readValue; ValueWriterTest pins both sides.

enum class KindByte : uint8_t { Unit, Bool, Int, Float, String, Set, Map,
                                Queue };

/// The byte buffer one monitor reuses for all of its outputs, with
/// scratch for ordering aggregate elements: after warm-up, writing an
/// output allocates nothing (a persistent queue still reverses its back
/// list, as str() does).
class ValueWriter {
public:
  /// A set element or a map entry being ordered: key, then value.
  using Entry = std::pair<const void *, const void *>;
  /// An aggregate appends its entries here, orders and writes them, and
  /// truncates back, so a nested aggregate stacks its entries above.
  std::vector<Entry> Order;

  void clear() { Len = 0; }
  const uint8_t *data() const { return Bytes.data(); }
  size_t size() const { return Len; }

  void kind(KindByte K) { *room(1) = static_cast<uint8_t>(K); }
  void u8(uint8_t V) { *room(1) = V; }
  void u32(uint32_t V) { le(V, room(4), 4); }
  void u64(uint64_t V) { le(V, room(8), 8); }
  void raw(const void *Data, size_t N) {
    if (N)
      std::memcpy(room(N), Data, N);
  }

private:
  uint8_t *room(size_t N) {
    if (Bytes.size() - Len < N) // the first growth covers any scalar
      Bytes.resize(std::max({size_t(64), 2 * Bytes.size(), Len + N}));
    uint8_t *P = Bytes.data() + Len;
    Len += N;
    return P;
  }
  static void le(uint64_t V, uint8_t *P, unsigned N) {
    for (unsigned I = 0; I != N; ++I)
      P[I] = static_cast<uint8_t>(V >> (8 * I));
  }

  std::vector<uint8_t> Bytes; // grown, never shrunk; Len bytes are live
  size_t Len = 0;
};

/// Sorts the entries W.Order holds from \p Base on by key (type K),
/// writes \p Kind, their count and the keys, each followed by its value
/// unless V is void, and drops them again. The element writers, declared
/// below, are found through ValueWriter's namespace when this is
/// instantiated, so aggregates nest.
template <typename K, typename V>
void writeEntries(ValueWriter &W, KindByte Kind, size_t Base) {
  std::sort(W.Order.begin() + Base, W.Order.end(),
            [](const ValueWriter::Entry &A, const ValueWriter::Entry &B) {
              return *static_cast<const K *>(A.first) <
                     *static_cast<const K *>(B.first);
            });
  size_t End = W.Order.size();
  W.kind(Kind);
  W.u32(static_cast<uint32_t>(End - Base));
  for (size_t I = Base; I != End; ++I) {
    ValueWriter::Entry E = W.Order[I]; // a nested write may grow Order
    writeValue(W, *static_cast<const K *>(E.first));
    if constexpr (!std::is_void_v<V>)
      writeValue(W, *static_cast<const V *>(E.second));
  }
  W.Order.resize(Base);
}

// --- canonical rendering (matches tessla::Value::str()) ------------------

inline std::string str(UnitV) { return "()"; }
inline void writeValue(ValueWriter &W, UnitV) { W.kind(KindByte::Unit); }
inline std::string str(bool B) { return B ? "true" : "false"; }
inline void writeValue(ValueWriter &W, bool B) {
  W.kind(KindByte::Bool);
  W.u8(B ? 1 : 0);
}
inline std::string str(int64_t I) { return std::to_string(I); }
inline void writeValue(ValueWriter &W, int64_t I) {
  W.kind(KindByte::Int);
  W.u64(static_cast<uint64_t>(I));
}
inline std::string str(double D) { return formatDouble(D); }
inline void writeValue(ValueWriter &W, double D) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(D));
  std::memcpy(&Bits, &D, sizeof(Bits));
  W.kind(KindByte::Float);
  W.u64(Bits);
}
inline std::string str(const std::string &S) {
  return "\"" + escapeString(S) + "\"";
}
inline void writeValue(ValueWriter &W, const std::string &S) {
  W.kind(KindByte::String);
  W.u32(static_cast<uint32_t>(S.size()));
  W.raw(S.data(), S.size());
}

// Elements are sorted by value (operator<), matching the canonical order
// tessla::Value::str() uses, then rendered.
template <typename Range> std::string strSorted(const Range &Items,
                                                char Open, char Close) {
  using Elem = std::decay_t<decltype(*std::begin(Items))>;
  std::vector<Elem> Sorted(std::begin(Items), std::end(Items));
  std::sort(Sorted.begin(), Sorted.end());
  std::vector<std::string> Parts;
  for (const auto &V : Sorted)
    Parts.push_back(str(V));
  std::string Out(1, Open);
  Out += join(Parts, ", ");
  Out += Close;
  return Out;
}

template <typename T, typename H>
std::string str(const std::unordered_set<T, H> &S) {
  return strSorted(S, '{', '}');
}
template <typename T, typename H>
void writeValue(ValueWriter &W, const std::unordered_set<T, H> &S) {
  size_t Base = W.Order.size();
  for (const T &E : S)
    W.Order.push_back({&E, nullptr});
  writeEntries<T, void>(W, KindByte::Set, Base);
}
template <typename T, typename H>
std::string str(const std::shared_ptr<std::unordered_set<T, H>> &S) {
  return str(*S);
}
template <typename T, typename H>
void writeValue(ValueWriter &W,
                const std::shared_ptr<std::unordered_set<T, H>> &S) {
  writeValue(W, *S);
}
template <typename T, typename H> std::string str(const HamtSet<T, H> &S) {
  return strSorted(S.items(), '{', '}');
}
template <typename T, typename H>
void writeValue(ValueWriter &W, const HamtSet<T, H> &S) {
  size_t Base = W.Order.size();
  S.forEach([&W](const T &E) { W.Order.push_back({&E, nullptr}); });
  writeEntries<T, void>(W, KindByte::Set, Base);
}

template <typename Pairs> std::string strMapItems(Pairs Items) {
  std::sort(Items.begin(), Items.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  std::vector<std::string> Parts;
  for (const auto &[Key, Val] : Items)
    Parts.push_back(str(Key) + " -> " + str(Val));
  return "{" + join(Parts, ", ") + "}";
}

template <typename K, typename V, typename H>
std::string str(const std::unordered_map<K, V, H> &M) {
  return strMapItems(std::vector<std::pair<K, V>>(M.begin(), M.end()));
}
template <typename K, typename V, typename H>
void writeValue(ValueWriter &W, const std::unordered_map<K, V, H> &M) {
  size_t Base = W.Order.size();
  for (const auto &[Key, Val] : M)
    W.Order.push_back({&Key, &Val});
  writeEntries<K, V>(W, KindByte::Map, Base);
}
template <typename K, typename V, typename H>
std::string str(const std::shared_ptr<std::unordered_map<K, V, H>> &M) {
  return str(*M);
}
template <typename K, typename V, typename H>
void writeValue(ValueWriter &W,
                const std::shared_ptr<std::unordered_map<K, V, H>> &M) {
  writeValue(W, *M);
}
template <typename K, typename V, typename H>
std::string str(const HamtMap<K, V, H> &M) {
  return strMapItems(M.items());
}
template <typename K, typename V, typename H>
void writeValue(ValueWriter &W, const HamtMap<K, V, H> &M) {
  size_t Base = W.Order.size();
  M.forEach(
      [&W](const K &Key, const V &Val) { W.Order.push_back({&Key, &Val}); });
  writeEntries<K, V>(W, KindByte::Map, Base);
}

template <typename T> std::string str(const std::deque<T> &Q) {
  std::vector<std::string> Parts;
  for (const auto &V : Q)
    Parts.push_back(str(V));
  return "<" + join(Parts, ", ") + ">";
}
template <typename T> void writeValue(ValueWriter &W, const std::deque<T> &Q) {
  W.kind(KindByte::Queue);
  W.u32(static_cast<uint32_t>(Q.size()));
  for (const T &V : Q)
    writeValue(W, V);
}
template <typename T>
std::string str(const std::shared_ptr<std::deque<T>> &Q) {
  return str(*Q);
}
template <typename T>
void writeValue(ValueWriter &W, const std::shared_ptr<std::deque<T>> &Q) {
  writeValue(W, *Q);
}
template <typename T> std::string str(const PQueue<T> &Q) {
  std::vector<std::string> Parts;
  Q.forEach([&Parts](const T &V) { Parts.push_back(str(V)); });
  return "<" + join(Parts, ", ") + ">";
}
template <typename T> void writeValue(ValueWriter &W, const PQueue<T> &Q) {
  W.kind(KindByte::Queue);
  W.u32(static_cast<uint32_t>(Q.size()));
  Q.forEach([&W](const T &V) { writeValue(W, V); });
}

} // namespace cgen
} // namespace tessla

#endif // TESSLA_CODEGEN_RUNTIMESUPPORT_H
