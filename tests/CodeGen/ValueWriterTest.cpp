//===- tests/CodeGen/ValueWriterTest.cpp ------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// The writers generated monitors use to hand outputs to the host
/// (tessla::cgen::writeValue in CodeGen/RuntimeSupport.h) must produce
/// exactly the bytes bc::writeValue produces for the equal Value, since
/// the host decodes them with bc::readValue. Every C++ representation the
/// emitter uses is covered, and aggregates are built in two insertion
/// orders: the encoding is canonical, so the bytes must not depend on a
/// hash table's iteration order.
///
//===----------------------------------------------------------------------===//

#include "tessla/CodeGen/RuntimeSupport.h"
#include "tessla/Program/BinaryCodec.h"
#include "tessla/Runtime/Containers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

using namespace tessla;
using tessla::cgen::UnitHash;
using tessla::cgen::UnitV;

namespace {

using Bytes = std::vector<uint8_t>;

template <typename T> Bytes written(const T &X) {
  cgen::ValueWriter W;
  cgen::writeValue(W, X);
  return Bytes(W.data(), W.data() + W.size());
}

Bytes encoded(const Value &V) {
  bc::ByteWriter W;
  bc::writeValue(W, V);
  return W.take();
}

Value setOf(std::vector<Value> Elems) {
  SetCow D = Value::emptySet().setCow(true);
  for (Value &E : Elems)
    D.add(std::move(E));
  return std::move(D).finish();
}

Value mapOf(std::vector<std::pair<Value, Value>> Entries) {
  MapCow D = Value::emptyMap().mapCow(true);
  for (auto &[K, V] : Entries)
    D.put(std::move(K), std::move(V));
  return std::move(D).finish();
}

Value queueOf(std::vector<Value> Elems) {
  QueueCow D = Value::emptyQueue().queueCow(true);
  for (Value &E : Elems)
    D.enqueue(std::move(E));
  return std::move(D).finish();
}

Value str(const std::string &S) { return Value::string(S); }
Value i64(int64_t I) { return Value::integer(I); }

const std::vector<std::string> Strings = {
    "", "plain", "with \"quotes\"", "back\\slash", "new\nline\ttab",
    "gr\xc3\xbc\xc3\x9f" "e \xe2\x82\xac \xf0\x9f\x98\x80", "\x80\xff raw"};

} // namespace

TEST(ValueWriterTest, ScalarsMatchTheCodec) {
  for (int64_t I : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{-42},
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()})
    EXPECT_EQ(written(I), encoded(Value::integer(I))) << I;

  for (double D : {0.0, -0.0, 2.0, -1.5, 1e300, 5e-324,
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN(),
                   -std::numeric_limits<double>::quiet_NaN()})
    EXPECT_EQ(written(D), encoded(Value::floating(D))) << D;
  // -0.0 and 0.0 differ in their sign bit, so they must differ in bytes.
  EXPECT_NE(written(-0.0), written(0.0));

  EXPECT_EQ(written(true), encoded(Value::boolean(true)));
  EXPECT_EQ(written(false), encoded(Value::boolean(false)));
  EXPECT_EQ(written(UnitV{}), encoded(Value::unit()));

  for (const std::string &S : Strings)
    EXPECT_EQ(written(S), encoded(str(S))) << S;
}

TEST(ValueWriterTest, MutableContainersMatchTheCodecInAnyInsertionOrder) {
  std::vector<int64_t> Ints = {5, -3, 1000000007, 0, -1, 42, 7, 8, 9, 10};
  std::vector<Value> IntValues;
  for (int64_t I : Ints)
    IntValues.push_back(i64(I));
  Value IntSet = setOf(IntValues);

  // The same elements inserted forwards and backwards, into tables of
  // different bucket counts, iterate in different orders.
  auto Fwd = std::make_shared<std::unordered_set<int64_t>>(Ints.begin(),
                                                           Ints.end());
  auto Bwd = std::make_shared<std::unordered_set<int64_t>>(
      Ints.rbegin(), Ints.rend(), 1024);
  EXPECT_EQ(written(Fwd), encoded(IntSet));
  EXPECT_EQ(written(Bwd), encoded(IntSet));

  std::vector<Value> StringValues;
  for (const std::string &S : Strings)
    StringValues.push_back(str(S));
  std::unordered_set<std::string> StrSet(Strings.begin(), Strings.end());
  std::unordered_set<std::string> StrSetBack(Strings.rbegin(), Strings.rend(),
                                             512);
  EXPECT_EQ(written(StrSet), encoded(setOf(StringValues)));
  EXPECT_EQ(written(StrSetBack), encoded(setOf(StringValues)));

  std::unordered_set<bool> Bools = {true, false};
  EXPECT_EQ(written(Bools),
            encoded(setOf({Value::boolean(false), Value::boolean(true)})));
  std::unordered_set<double> Floats = {-0.5, 3.25, -1e9, 0.0};
  EXPECT_EQ(written(Floats),
            encoded(setOf({Value::floating(3.25), Value::floating(0.0),
                           Value::floating(-1e9), Value::floating(-0.5)})));
  std::unordered_set<UnitV, UnitHash> Units = {UnitV{}};
  EXPECT_EQ(written(Units), encoded(setOf({Value::unit()})));

  std::vector<std::pair<std::string, int64_t>> Entries = {
      {"b", 2}, {"a", -1}, {"\xc3\xa9t\xc3\xa9", 3}, {"", 0}, {"\"q\"", 9}};
  std::vector<std::pair<Value, Value>> EntryValues;
  for (const auto &[K, V] : Entries)
    EntryValues.push_back({str(K), i64(V)});
  auto MapFwd = std::make_shared<std::unordered_map<std::string, int64_t>>(
      Entries.begin(), Entries.end());
  auto MapBwd = std::make_shared<std::unordered_map<std::string, int64_t>>(
      Entries.rbegin(), Entries.rend(), 256);
  EXPECT_EQ(written(MapFwd), encoded(mapOf(EntryValues)));
  EXPECT_EQ(written(MapBwd), encoded(mapOf(EntryValues)));

  auto Q = std::make_shared<std::deque<int64_t>>(Ints.begin(), Ints.end());
  EXPECT_EQ(written(Q), encoded(queueOf(IntValues)));
  std::deque<std::string> StrQ(Strings.begin(), Strings.end());
  EXPECT_EQ(written(StrQ), encoded(queueOf(StringValues)));
}

TEST(ValueWriterTest, PersistentContainersMatchTheCodecInAnyInsertionOrder) {
  std::vector<int64_t> Ints;
  for (int64_t I = -40; I != 60; ++I)
    Ints.push_back(I * 7919 % 1000);
  std::vector<Value> IntValues;
  HamtSet<int64_t, std::hash<int64_t>> Fwd, Bwd;
  for (int64_t I : Ints) {
    IntValues.push_back(i64(I));
    Fwd = Fwd.insert(I);
  }
  for (auto It = Ints.rbegin(); It != Ints.rend(); ++It)
    Bwd = Bwd.insert(*It);
  EXPECT_EQ(written(Fwd), encoded(setOf(IntValues)));
  EXPECT_EQ(written(Bwd), encoded(setOf(IntValues)));

  HamtMap<int64_t, std::string, std::hash<int64_t>> MapFwd, MapBwd;
  std::vector<std::pair<Value, Value>> EntryValues;
  for (size_t I = 0; I != Ints.size(); ++I) {
    std::string V = Strings[I % Strings.size()];
    MapFwd = MapFwd.set(Ints[I], V);
    EntryValues.push_back({i64(Ints[I]), str(V)});
  }
  for (size_t I = Ints.size(); I-- != 0;)
    MapBwd = MapBwd.set(Ints[I], Strings[I % Strings.size()]);
  EXPECT_EQ(written(MapFwd), encoded(mapOf(EntryValues)));
  EXPECT_EQ(written(MapBwd), encoded(mapOf(EntryValues)));

  // Front and back lists both populated: dequeue moves the first half to
  // the front list, the rest stays reversed in the back list.
  PQueue<double> Q;
  std::vector<Value> QueueValues;
  for (int I = 0; I != 10; ++I)
    Q = Q.enqueue(I * 0.5 - 2);
  Q = Q.dequeue();
  for (int I = 10; I != 16; ++I)
    Q = Q.enqueue(I * 0.5 - 2);
  for (int I = 1; I != 16; ++I)
    QueueValues.push_back(Value::floating(I * 0.5 - 2));
  EXPECT_EQ(written(Q), encoded(queueOf(QueueValues)));
}

TEST(ValueWriterTest, EmptyAndNestedAggregatesMatchTheCodec) {
  EXPECT_EQ(written(std::unordered_set<int64_t>()), encoded(setOf({})));
  EXPECT_EQ(written(HamtSet<std::string, std::hash<std::string>>()),
            encoded(setOf({})));
  EXPECT_EQ((written(std::unordered_map<int64_t, bool>())),
            encoded(mapOf({})));
  EXPECT_EQ((written(HamtMap<bool, UnitV, std::hash<bool>>())),
            encoded(mapOf({})));
  EXPECT_EQ(written(std::deque<UnitV>()), encoded(queueOf({})));
  EXPECT_EQ(written(PQueue<int64_t>()), encoded(queueOf({})));

  // Map values and queue elements may themselves be aggregates; each
  // level orders its own elements.
  using Inner = std::shared_ptr<std::unordered_set<int64_t>>;
  std::unordered_map<std::string, Inner> Nested;
  Nested["odd"] = std::make_shared<std::unordered_set<int64_t>>(
      std::initializer_list<int64_t>{9, 1, 5, 3, 7});
  Nested["even"] = std::make_shared<std::unordered_set<int64_t>>(
      std::initializer_list<int64_t>{8, 2, 6, 4});
  Nested["none"] = std::make_shared<std::unordered_set<int64_t>>();
  Value Expected = mapOf(
      {{str("odd"), setOf({i64(1), i64(3), i64(5), i64(7), i64(9)})},
       {str("even"), setOf({i64(2), i64(4), i64(6), i64(8)})},
       {str("none"), setOf({})}});
  EXPECT_EQ(written(Nested), encoded(Expected));

  PQueue<HamtMap<int64_t, PQueue<int64_t>, std::hash<int64_t>>> Deep;
  HamtMap<int64_t, PQueue<int64_t>, std::hash<int64_t>> Level;
  Deep = Deep.enqueue(Level);
  Level = Level.set(3, PQueue<int64_t>().enqueue(30).enqueue(31));
  Level = Level.set(-3, PQueue<int64_t>());
  Deep = Deep.enqueue(Level);
  Value DeepExpected = queueOf(
      {mapOf({}), mapOf({{i64(3), queueOf({i64(30), i64(31)})},
                         {i64(-3), queueOf({})}})});
  EXPECT_EQ(written(Deep), encoded(DeepExpected));

  std::deque<std::shared_ptr<std::deque<std::string>>> QueueOfQueues;
  QueueOfQueues.push_back(std::make_shared<std::deque<std::string>>(
      std::initializer_list<std::string>{"x", "y"}));
  QueueOfQueues.push_back(std::make_shared<std::deque<std::string>>());
  EXPECT_EQ(written(QueueOfQueues),
            encoded(queueOf({queueOf({str("x"), str("y")}), queueOf({})})));
}

// One writer serves every output of a monitor: clear() and reuse must
// not leak bytes or ordering scratch from one value into the next.
TEST(ValueWriterTest, AReusedWriterStartsEachValueAfresh) {
  cgen::ValueWriter W;
  std::unordered_map<int64_t, std::shared_ptr<std::unordered_set<int64_t>>> M;
  for (int64_t K = 0; K != 20; ++K)
    M[K] = std::make_shared<std::unordered_set<int64_t>>(
        std::initializer_list<int64_t>{K, -K, K * K});
  cgen::writeValue(W, M);
  Bytes Big(W.data(), W.data() + W.size());
  EXPECT_EQ(Big, written(M));
  W.clear();
  cgen::writeValue(W, int64_t{7});
  EXPECT_EQ(Bytes(W.data(), W.data() + W.size()), encoded(i64(7)));
  W.clear();
  cgen::writeValue(W, M);
  EXPECT_EQ(Bytes(W.data(), W.data() + W.size()), Big);
}

// The bytes round-trip through the host's decoder with the right kind:
// an integral Float stays a Float, -0.0 keeps its sign.
TEST(ValueWriterTest, TheHostDecodesTheWrittenBytes) {
  for (double D : {2.0, -0.0, std::numeric_limits<double>::infinity()}) {
    Bytes B = written(D);
    bc::ByteReader R(B.data(), B.size());
    DiagnosticEngine Diags;
    bc::DecodeContext Ctx{Diags, "test"};
    Value V = bc::readValue(R, Ctx);
    ASSERT_TRUE(Ctx.Ok && !R.failed() && R.atEnd()) << Diags.str();
    ASSERT_EQ(V.kind(), Value::Kind::Float);
    EXPECT_EQ(std::signbit(V.getFloat()), std::signbit(D));
    EXPECT_EQ(V.getFloat(), D);
  }
}
