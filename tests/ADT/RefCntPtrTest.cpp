//===- tests/ADT/RefCntPtrTest.cpp ------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "tessla/ADT/RefCntPtr.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace tessla;

namespace {
struct Tracked : RefCountedBase<Tracked> {
  static int Alive;
  int Payload;
  explicit Tracked(int Payload) : Payload(Payload) { ++Alive; }
  Tracked(const Tracked &Other)
      : RefCountedBase<Tracked>(Other), Payload(Other.Payload) {
    ++Alive;
  }
  ~Tracked() { --Alive; }
};
int Tracked::Alive = 0;
} // namespace

TEST(RefCntPtrTest, LifetimeFollowsReferences) {
  ASSERT_EQ(Tracked::Alive, 0);
  {
    RefCntPtr<Tracked> P = makeRefCnt<Tracked>(7);
    EXPECT_EQ(Tracked::Alive, 1);
    EXPECT_EQ(P->Payload, 7);
    EXPECT_TRUE(P.unique());
    {
      RefCntPtr<Tracked> Q = P;
      EXPECT_EQ(Tracked::Alive, 1);
      EXPECT_FALSE(P.unique());
      EXPECT_EQ(Q.get(), P.get());
    }
    EXPECT_TRUE(P.unique());
  }
  EXPECT_EQ(Tracked::Alive, 0);
}

TEST(RefCntPtrTest, MoveTransfersOwnership) {
  RefCntPtr<Tracked> P = makeRefCnt<Tracked>(1);
  RefCntPtr<Tracked> Q = std::move(P);
  EXPECT_FALSE(P);
  EXPECT_TRUE(Q);
  EXPECT_EQ(Tracked::Alive, 1);
  Q.reset();
  EXPECT_EQ(Tracked::Alive, 0);
}

TEST(RefCntPtrTest, AssignmentReleasesOld) {
  RefCntPtr<Tracked> P = makeRefCnt<Tracked>(1);
  RefCntPtr<Tracked> Q = makeRefCnt<Tracked>(2);
  EXPECT_EQ(Tracked::Alive, 2);
  P = Q;
  EXPECT_EQ(Tracked::Alive, 1);
  EXPECT_EQ(P->Payload, 2);
  P = P; // self-assignment is safe
  EXPECT_EQ(Tracked::Alive, 1);
}

TEST(RefCntPtrTest, DetachHandsOverTheCount) {
  RefCntPtr<Tracked> P = makeRefCnt<Tracked>(4);
  Tracked *Raw = P.detach();
  EXPECT_FALSE(P);
  EXPECT_EQ(Raw->useCount(), 1u) << "detach neither retains nor releases";
  EXPECT_EQ(Tracked::Alive, 1);
  Raw->release();
  EXPECT_EQ(Tracked::Alive, 0);
}

TEST(RefCntPtrTest, CopyOfObjectGetsFreshCount) {
  RefCntPtr<Tracked> P = makeRefCnt<Tracked>(3);
  RefCntPtr<Tracked> Q = P;
  // Copy the pointee: the new object starts with a count of its own, 1.
  RefCntPtr<Tracked> Copy = makeRefCnt<Tracked>(*P);
  EXPECT_EQ(Copy->useCount(), 1u);
  EXPECT_EQ(P->useCount(), 2u);
  EXPECT_EQ(Copy->Payload, 3);
}

TEST(RefCntPtrTest, ConcurrentRetainReleaseIsExact) {
  // Forked sessions share aggregate nodes across shard threads: the
  // count must be atomic so concurrent handle copies on different
  // threads neither leak nor double-free.
  ASSERT_EQ(Tracked::Alive, 0);
  {
    RefCntPtr<Tracked> P = makeRefCnt<Tracked>(1);
    constexpr int Threads = 8;
    constexpr int Iters = 20000;
    std::vector<std::thread> Pool;
    for (int T = 0; T != Threads; ++T)
      Pool.emplace_back([&P] {
        for (int I = 0; I != Iters; ++I) {
          RefCntPtr<Tracked> Local = P; // retain
          RefCntPtr<Tracked> Second = Local;
          EXPECT_EQ(Second->Payload, 1);
        } // release
      });
    for (std::thread &T : Pool)
      T.join();
    EXPECT_EQ(Tracked::Alive, 1);
    EXPECT_TRUE(P.unique()) << "all transient references released";
  }
  EXPECT_EQ(Tracked::Alive, 0);
}

TEST(RefCntPtrTest, ConcurrentReleaseOfLastReferences) {
  // Hand one reference each to N threads and let them all drop at once:
  // exactly one destruction.
  for (int Round = 0; Round != 50; ++Round) {
    ASSERT_EQ(Tracked::Alive, 0);
    constexpr int Threads = 8;
    std::vector<RefCntPtr<Tracked>> Refs(
        Threads, makeRefCnt<Tracked>(Round));
    std::atomic<int> Gate{0};
    std::vector<std::thread> Pool;
    for (int T = 0; T != Threads; ++T)
      Pool.emplace_back([&Gate, &Refs, T] {
        Gate.fetch_add(1);
        while (Gate.load() != Threads) {
        }
        Refs[T].reset();
      });
    for (std::thread &T : Pool)
      T.join();
    EXPECT_EQ(Tracked::Alive, 0);
  }
}
