//===- tests/Runtime/ValueTest.cpp ------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "tessla/Runtime/Containers.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

using namespace tessla;

TEST(ValueTest, ScalarConstructionAndAccess) {
  EXPECT_EQ(Value::unit().kind(), Value::Kind::Unit);
  EXPECT_EQ(Value::boolean(true).getBool(), true);
  EXPECT_EQ(Value::integer(-7).getInt(), -7);
  EXPECT_DOUBLE_EQ(Value::floating(1.5).getFloat(), 1.5);
  EXPECT_EQ(Value::string("hi").getString(), "hi");
}

TEST(ValueTest, FromLiteral) {
  EXPECT_EQ(Value::fromLiteral(ConstantLit{int64_t{3}}).getInt(), 3);
  EXPECT_EQ(Value::fromLiteral(ConstantLit{std::monostate{}}).kind(),
            Value::Kind::Unit);
  EXPECT_EQ(Value::fromLiteral(ConstantLit{true}).getBool(), true);
}

TEST(ValueTest, ScalarEqualityAndOrder) {
  EXPECT_EQ(Value::integer(1), Value::integer(1));
  EXPECT_NE(Value::integer(1), Value::integer(2));
  EXPECT_NE(Value::integer(1), Value::floating(1.0)) << "kinds differ";
  EXPECT_LT(compareValues(Value::integer(1), Value::integer(2)), 0);
  EXPECT_GT(compareValues(Value::string("b"), Value::string("a")), 0);
  EXPECT_EQ(compareValues(Value::unit(), Value::unit()), 0);
}

TEST(ValueTest, ScalarRendering) {
  EXPECT_EQ(Value::unit().str(), "()");
  EXPECT_EQ(Value::boolean(false).str(), "false");
  EXPECT_EQ(Value::integer(42).str(), "42");
  EXPECT_EQ(Value::floating(2.5).str(), "2.5");
  EXPECT_EQ(Value::string("a\"b").str(), "\"a\\\"b\"");
}

namespace {

/// Builds a set through the destructive tier (unique handle + in-place
/// verdict: every update mutates nodes directly).
Value inPlaceSetOf(std::initializer_list<int64_t> Items) {
  Value S = Value::emptySet();
  for (int64_t I : Items) {
    SetCow C = S.setCow(true);
    C.add(Value::integer(I));
    S = std::move(C).finish();
  }
  return S;
}

/// Builds a set through the persistent tier (every update path-copies).
Value persistentSetOf(std::initializer_list<int64_t> Items) {
  Value S = Value::emptySet();
  for (int64_t I : Items) {
    SetCow C = S.setCow(false);
    C.add(Value::integer(I));
    S = std::move(C).finish();
  }
  return S;
}

} // namespace

TEST(ValueTest, AggregateEqualityAcrossUpdateTiers) {
  // The differential tests rely on tier-independent equality: a set
  // built destructively equals one built by path-copying updates.
  EXPECT_EQ(inPlaceSetOf({1, 2, 3}), persistentSetOf({3, 2, 1}));
  EXPECT_NE(inPlaceSetOf({1, 2}), persistentSetOf({1, 2, 3}));
  EXPECT_NE(inPlaceSetOf({1, 2}), persistentSetOf({1, 4}));
}

TEST(ValueTest, AggregateCanonicalRendering) {
  // Sorted element order regardless of hash iteration order and update
  // tier.
  EXPECT_EQ(inPlaceSetOf({10, 2, 35}).str(), "{2, 10, 35}");
  EXPECT_EQ(persistentSetOf({10, 2, 35}).str(), "{2, 10, 35}");
  EXPECT_EQ(inPlaceSetOf({}).str(), "{}");
}

TEST(ValueTest, MapRenderingAndEquality) {
  MapCow M1 = Value::emptyMap().mapCow(true);
  M1.put(Value::integer(2), Value::string("b"));
  M1.put(Value::integer(1), Value::string("a"));
  Value A = std::move(M1).finish();

  MapCow M2 = Value::emptyMap().mapCow(false);
  M2.put(Value::integer(1), Value::string("a"));
  M2.put(Value::integer(2), Value::string("b"));
  Value B = std::move(M2).finish();

  EXPECT_EQ(A, B);
  EXPECT_EQ(A.str(), "{1 -> \"a\", 2 -> \"b\"}");
}

TEST(ValueTest, QueueRenderingKeepsOrder) {
  QueueCow Q = Value::emptyQueue().queueCow(true);
  Q.enqueue(Value::integer(3));
  Q.enqueue(Value::integer(1));
  Q.enqueue(Value::integer(2));
  Value A = std::move(Q).finish();
  EXPECT_EQ(A.str(), "<3, 1, 2>");

  QueueCow P = Value::emptyQueue().queueCow(false);
  P.enqueue(Value::integer(3));
  P.enqueue(Value::integer(1));
  P.enqueue(Value::integer(2));
  EXPECT_EQ(std::move(P).finish(), A);

  // Different order -> unequal.
  QueueCow Q2 = Value::emptyQueue().queueCow(true);
  Q2.enqueue(Value::integer(1));
  Q2.enqueue(Value::integer(3));
  Q2.enqueue(Value::integer(2));
  EXPECT_NE(std::move(Q2).finish(), A);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(inPlaceSetOf({5, 6}).hash(), persistentSetOf({6, 5}).hash());
  EXPECT_EQ(Value::integer(9).hash(), Value::integer(9).hash());
  // Hash must distinguish kinds (no Int/Bool collisions by construction).
  EXPECT_NE(Value::integer(1).hash(), Value::boolean(true).hash());
}

TEST(ValueTest, CopySharesStructure) {
  // Copying a Value copies the handle, not the payload.
  Value A = inPlaceSetOf({1});
  Value B = A;
  EXPECT_EQ(A.aggregateIdentity(), B.aggregateIdentity());
  EXPECT_EQ(A.deepCopy().aggregateIdentity(), A.aggregateIdentity())
      << "deepCopy is the identity under COW";
}

TEST(ValueTest, SharedHandleForcesPathCopyEvenWithInPlaceVerdict) {
  // The destructive tier requires *both* the static verdict and dynamic
  // uniqueness. With the handle shared (use_count == 2), setCow(true)
  // must fall back to a fresh wrapper: the sharer is unaffected.
  Value A = inPlaceSetOf({1});
  Value B = A;
  SetCow C = B.setCow(true);
  C.add(Value::integer(2));
  Value B2 = std::move(C).finish();
  EXPECT_EQ(A.asSet().size(), 1u) << "sharer untouched";
  EXPECT_EQ(B2.asSet().size(), 2u);
  EXPECT_NE(A.aggregateIdentity(), B2.aggregateIdentity());
}

TEST(ValueTest, UniqueHandleWithInPlaceVerdictMutatesDestructively) {
  Value A = inPlaceSetOf({1});
  const void *Before = A.aggregateIdentity();
  SetCow C = A.setCow(true);
  C.add(Value::integer(2));
  Value A2 = std::move(C).finish();
  EXPECT_EQ(A2.aggregateIdentity(), Before) << "wrapper reused in place";
  EXPECT_EQ(A2.asSet().size(), 2u);
}

TEST(ValueTest, PersistentVerdictAlwaysCopiesWrapper) {
  // Without the static in-place verdict, even a dynamically unique
  // handle must path-copy (the program may re-read the source slot).
  Value A = inPlaceSetOf({1});
  const void *Before = A.aggregateIdentity();
  SetCow C = A.setCow(false);
  C.add(Value::integer(2));
  Value A2 = std::move(C).finish();
  EXPECT_NE(A2.aggregateIdentity(), Before);
  EXPECT_EQ(A2.asSet().size(), 2u);
}

TEST(ValueTest, ForEachAggregateNodeReportsWrapperAndSpine) {
  Value S = inPlaceSetOf({1, 2, 3, 4, 5, 6, 7, 8});
  size_t Nodes = 0, Bytes = 0;
  S.forEachAggregateNode([&](const void *P, size_t B, uint32_t Owners) {
    EXPECT_NE(P, nullptr);
    EXPECT_GT(B, 0u);
    EXPECT_GE(Owners, 1u);
    ++Nodes;
    Bytes += B;
    return true;
  });
  EXPECT_GE(Nodes, 2u) << "wrapper plus at least one trie node";
  EXPECT_GT(Bytes, sizeof(SetData));
  // Scalars have no aggregate payload.
  Value::integer(1).forEachAggregateNode(
      [](const void *, size_t, uint32_t) -> bool {
        ADD_FAILURE() << "scalar walked";
        return false;
      });
}

// --- Layout and lifetime of the two-word handle ---------------------------

namespace {

/// One value of every kind, aggregates non-empty.
std::vector<Value> oneOfEachKind() {
  MapCow M = Value::emptyMap().mapCow(true);
  M.put(Value::integer(1), Value::string("one"));
  QueueCow Q = Value::emptyQueue().queueCow(true);
  Q.enqueue(Value::integer(7));
  return {Value::unit(),
          Value::boolean(true),
          Value::integer(-3),
          Value::floating(2.5),
          Value::string("a string"),
          inPlaceSetOf({1, 2, 3}),
          std::move(M).finish(),
          std::move(Q).finish()};
}

/// The payload wrapper's handle count, as the memory walk reports it.
uint32_t handleCount(const Value &V) {
  uint32_t Count = 0;
  V.forEachAggregateNode([&Count](const void *, size_t, uint32_t Owners) {
    Count = Owners;
    return false; // the wrapper only
  });
  return Count;
}

} // namespace

TEST(ValueTest, SelfAssignmentKeepsTheValue) {
  for (const Value &Orig : oneOfEachKind()) {
    SCOPED_TRACE(Orig.str());
    Value V = Orig;
    Value &Alias = V; // keeps the compiler's self-assignment check quiet
    V = Alias;
    EXPECT_EQ(V, Orig);
    EXPECT_EQ(V.aggregateIdentity(), Orig.aggregateIdentity());
    V = std::move(Alias);
    EXPECT_EQ(V, Orig);
    EXPECT_EQ(V.aggregateIdentity(), Orig.aggregateIdentity());
    if (Orig.isAggregate()) {
      EXPECT_EQ(handleCount(Orig), 2u) << "self-assignment leaked a count";
    }
  }
}

TEST(ValueTest, MovedFromValueIsUnit) {
  for (const Value &Orig : oneOfEachKind()) {
    SCOPED_TRACE(Orig.str());
    Value A = Orig;
    Value B = std::move(A);
    EXPECT_EQ(A.kind(), Value::Kind::Unit);
    EXPECT_EQ(B, Orig);
    Value C = Value::integer(1);
    C = std::move(B);
    EXPECT_EQ(B.kind(), Value::Kind::Unit);
    EXPECT_EQ(C, Orig);
    if (Orig.isAggregate()) {
      EXPECT_EQ(handleCount(Orig), 2u) << "a move must not touch the count";
    }
  }
}

TEST(ValueTest, WrongKindAccessThrows) {
  // The word is only read as the tag's type, whatever the build type.
  EXPECT_THROW(Value::integer(5).getString(), std::logic_error);
  EXPECT_THROW(Value::string("5").getInt(), std::logic_error);
  EXPECT_THROW(Value::floating(1.0).getBool(), std::logic_error);
  EXPECT_THROW(Value::unit().getFloat(), std::logic_error);
  EXPECT_THROW(Value::integer(5).asSet(), std::logic_error);
  EXPECT_THROW(Value::emptySet().asMap(), std::logic_error);
  EXPECT_THROW(Value::emptyMap().queueCow(true), std::logic_error);
}

TEST(ValueTest, CopyingAStringSharesOnePayload) {
  Value A = Value::string("shared, not copied");
  Value B = A;
  EXPECT_EQ(&A.getString(), &B.getString());
  Value C = Value::unit();
  C = B;
  EXPECT_EQ(&C.getString(), &A.getString());
  EXPECT_EQ(C.hash(), Value::string("shared, not copied").hash());
}

TEST(ValueTest, CopyAddsOneHandleToTheAggregate) {
  for (Value &Elem : oneOfEachKind()) {
    if (!Elem.isAggregate())
      continue;
    SCOPED_TRACE(valueKindName(Elem.kind()));
    Value A = std::move(Elem); // the only handle
    EXPECT_EQ(handleCount(A), 1u);
    Value B = A;
    EXPECT_EQ(handleCount(A), 2u);
    EXPECT_EQ(handleCount(B), 2u);
    B = Value::unit();
    EXPECT_EQ(handleCount(A), 1u);
  }
}

TEST(ValueTest, InPlaceUpdateAfterCrossThreadRelease) {
  // A second holder reads the set on another thread and drops its handle
  // there, with no join before the owner's update. Handle retains are
  // relaxed, so the only edge that orders the reader's accesses before
  // the destructive write is the acquire load behind setCow's uniqueness
  // test, which reads the reader's release-decrement. CI runs this under
  // TSan.
  Value S = inPlaceSetOf({1, 2, 3, 4, 5, 6, 7, 8});
  const void *Identity = S.aggregateIdentity();
  size_t SeenSize = 0;
  bool SeenFive = false;
  std::thread Reader([Held = S, &SeenSize, &SeenFive]() mutable {
    SeenSize = Held.asSet().size();
    SeenFive = Held.asSet().contains(Value::integer(5));
    Held = Value::unit();
  });
  // Until the reader lets go, setCow(true) path-copies: discard that
  // result and retry until the update reuses the payload.
  for (;;) {
    SetCow C = S.setCow(true);
    C.add(Value::integer(9));
    C.remove(Value::integer(5));
    Value Next = std::move(C).finish();
    if (Next.aggregateIdentity() == Identity) {
      S = std::move(Next);
      break;
    }
    std::this_thread::yield();
  }
  Reader.join();
  EXPECT_EQ(SeenSize, 8u);
  EXPECT_TRUE(SeenFive);
  EXPECT_EQ(S.asSet().size(), 8u);
  EXPECT_TRUE(S.asSet().contains(Value::integer(9)));
  EXPECT_FALSE(S.asSet().contains(Value::integer(5)));
  EXPECT_EQ(handleCount(S), 1u);
}
