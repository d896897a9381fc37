//===- tests/Persistent/HamtTest.cpp ----------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "tessla/Persistent/HAMT.h"
#include "tessla/Runtime/Containers.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <random>
#include <set>
#include <string>
#include <thread>

using namespace tessla;

// --- Allocation accounting -------------------------------------------------
//
// While Counting is set on a thread, the replaced global allocation
// functions track the bytes that thread holds, so a test can compare
// what a trie allocated with what its node walk reports.

namespace {
thread_local bool Counting = false;
thread_local long long LiveBytes = 0;
} // namespace

void *operator new(std::size_t N) {
  void *P = std::malloc(N ? N : 1);
  if (!P)
    throw std::bad_alloc();
  if (Counting)
    LiveBytes += static_cast<long long>(N);
  return P;
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t N) noexcept {
  if (P && Counting)
    LiveBytes -= static_cast<long long>(N);
  std::free(P);
}

TEST(HamtMapTest, EmptyMap) {
  HamtMap<int, int> M;
  EXPECT_TRUE(M.empty());
  EXPECT_EQ(M.size(), 0u);
  EXPECT_EQ(M.find(1), nullptr);
}

TEST(HamtMapTest, SetAndFind) {
  HamtMap<int, std::string> M;
  M = M.set(1, "one").set(2, "two");
  EXPECT_EQ(M.size(), 2u);
  ASSERT_NE(M.find(1), nullptr);
  EXPECT_EQ(*M.find(1), "one");
  ASSERT_NE(M.find(2), nullptr);
  EXPECT_EQ(*M.find(2), "two");
  EXPECT_EQ(M.find(3), nullptr);
}

TEST(HamtMapTest, OverwriteKeepsSize) {
  HamtMap<int, int> M;
  M = M.set(7, 1).set(7, 2);
  EXPECT_EQ(M.size(), 1u);
  EXPECT_EQ(*M.find(7), 2);
}

TEST(HamtMapTest, EraseRemoves) {
  HamtMap<int, int> M;
  M = M.set(1, 10).set(2, 20).set(3, 30);
  M = M.erase(2);
  EXPECT_EQ(M.size(), 2u);
  EXPECT_EQ(M.find(2), nullptr);
  EXPECT_NE(M.find(1), nullptr);
  EXPECT_NE(M.find(3), nullptr);
  // Erasing an absent key is a no-op.
  M = M.erase(99);
  EXPECT_EQ(M.size(), 2u);
}

TEST(HamtMapTest, PersistenceOldVersionsValid) {
  HamtMap<int, int> V0;
  HamtMap<int, int> V1 = V0.set(1, 100);
  HamtMap<int, int> V2 = V1.set(2, 200);
  HamtMap<int, int> V3 = V2.erase(1);
  EXPECT_EQ(V0.size(), 0u);
  EXPECT_EQ(V1.size(), 1u);
  EXPECT_EQ(V2.size(), 2u);
  EXPECT_EQ(V3.size(), 1u);
  EXPECT_EQ(*V1.find(1), 100);
  EXPECT_EQ(*V2.find(1), 100);
  EXPECT_EQ(V3.find(1), nullptr);
  EXPECT_EQ(*V3.find(2), 200);
}

namespace {
/// Hash functor with deliberate collisions to exercise collision nodes.
struct BadHash {
  size_t operator()(int X) const { return static_cast<size_t>(X % 3); }
};
} // namespace

TEST(HamtMapTest, CollisionsHandled) {
  HamtMap<int, int, BadHash> M;
  // All keys with equal remainder collide completely under BadHash.
  for (int I = 0; I != 60; ++I)
    M = M.set(I * 3, I);
  EXPECT_EQ(M.size(), 60u);
  for (int I = 0; I != 60; ++I) {
    ASSERT_NE(M.find(I * 3), nullptr) << I;
    EXPECT_EQ(*M.find(I * 3), I);
  }
  for (int I = 0; I != 30; ++I)
    M = M.erase(I * 3);
  EXPECT_EQ(M.size(), 30u);
  for (int I = 30; I != 60; ++I)
    EXPECT_NE(M.find(I * 3), nullptr);
  for (int I = 0; I != 30; ++I)
    EXPECT_EQ(M.find(I * 3), nullptr);
}

TEST(HamtMapTest, ItemsEnumeratesAll) {
  HamtMap<int, int> M;
  for (int I = 0; I != 100; ++I)
    M = M.set(I, I * I);
  auto Items = M.items();
  EXPECT_EQ(Items.size(), 100u);
  std::map<int, int> Sorted(Items.begin(), Items.end());
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(Sorted[I], I * I);
}

/// Property: agrees with std::map under random operations; snapshots stay
/// intact (the persistence property the baseline monitors rely on).
TEST(HamtMapTest, MatchesStdMapUnderRandomOps) {
  std::mt19937 Rng(17);
  for (int Round = 0; Round != 10; ++Round) {
    HamtMap<int, int> M;
    std::map<int, int> Ref;
    std::vector<std::pair<HamtMap<int, int>, std::map<int, int>>> Snaps;
    for (int Op = 0; Op != 2000; ++Op) {
      int Key = static_cast<int>(Rng() % 500);
      if (Rng() % 3 != 0) {
        int Val = static_cast<int>(Rng());
        M = M.set(Key, Val);
        Ref[Key] = Val;
      } else {
        M = M.erase(Key);
        Ref.erase(Key);
      }
      ASSERT_EQ(M.size(), Ref.size());
      if (Op % 500 == 0)
        Snaps.push_back({M, Ref});
    }
    for (auto &[K, V] : Ref) {
      ASSERT_NE(M.find(K), nullptr);
      EXPECT_EQ(*M.find(K), V);
    }
    for (auto &[SnapM, SnapRef] : Snaps) {
      EXPECT_EQ(SnapM.size(), SnapRef.size());
      for (auto &[K, V] : SnapRef) {
        ASSERT_NE(SnapM.find(K), nullptr);
        EXPECT_EQ(*SnapM.find(K), V);
      }
    }
  }
}

TEST(HamtSetTest, InsertContainsErase) {
  HamtSet<std::string> S;
  S = S.insert("a").insert("b");
  EXPECT_EQ(S.size(), 2u);
  EXPECT_TRUE(S.contains("a"));
  EXPECT_FALSE(S.contains("c"));
  S = S.erase("a");
  EXPECT_FALSE(S.contains("a"));
  EXPECT_TRUE(S.contains("b"));
}

TEST(HamtSetTest, DuplicateInsertKeepsSize) {
  HamtSet<int> S;
  S = S.insert(1).insert(1).insert(1);
  EXPECT_EQ(S.size(), 1u);
}

TEST(HamtSetTest, MatchesStdSetUnderRandomOps) {
  std::mt19937 Rng(29);
  HamtSet<int> S;
  std::set<int> Ref;
  for (int Op = 0; Op != 5000; ++Op) {
    int V = static_cast<int>(Rng() % 1000);
    if (Rng() % 2) {
      S = S.insert(V);
      Ref.insert(V);
    } else {
      S = S.erase(V);
      Ref.erase(V);
    }
    ASSERT_EQ(S.size(), Ref.size());
  }
  for (int V : Ref)
    EXPECT_TRUE(S.contains(V));
  auto Items = S.items();
  EXPECT_EQ(std::set<int>(Items.begin(), Items.end()), Ref);
}

TEST(HamtSetTest, LargeScaleGrowShrink) {
  HamtSet<int> S;
  for (int I = 0; I != 20000; ++I)
    S = S.insert(I);
  EXPECT_EQ(S.size(), 20000u);
  for (int I = 0; I != 20000; I += 2)
    S = S.erase(I);
  EXPECT_EQ(S.size(), 10000u);
  for (int I = 0; I != 20000; ++I)
    EXPECT_EQ(S.contains(I), I % 2 == 1) << I;
}

// --- Transient (COW) operations --------------------------------------------

TEST(HamtMapTest, TransientSetMutatesUniqueNodesInPlace) {
  HamtMap<int, int> M;
  for (int I = 0; I != 100; ++I)
    M.setMut(I, I * 2);
  EXPECT_EQ(M.size(), 100u);
  for (int I = 0; I != 100; ++I) {
    ASSERT_NE(M.find(I), nullptr) << I;
    EXPECT_EQ(*M.find(I), I * 2);
  }
  for (int I = 0; I != 100; I += 2)
    EXPECT_TRUE(M.eraseMut(I));
  EXPECT_FALSE(M.eraseMut(0)) << "already erased";
  EXPECT_EQ(M.size(), 50u);
}

TEST(HamtMapTest, TransientOpsLeaveSnapshotsIntact) {
  // The COW guarantee: a transient update on a trie whose nodes are
  // shared with a snapshot must path-copy around the shared nodes, never
  // write through them.
  HamtMap<int, int> M;
  for (int I = 0; I != 500; ++I)
    M.setMut(I, I);
  HamtMap<int, int> Snap = M; // shares every node
  for (int I = 0; I != 500; ++I)
    M.setMut(I, -I);
  for (int I = 250; I != 300; ++I)
    M.eraseMut(I);
  EXPECT_EQ(Snap.size(), 500u);
  for (int I = 0; I != 500; ++I) {
    ASSERT_NE(Snap.find(I), nullptr) << I;
    EXPECT_EQ(*Snap.find(I), I) << "snapshot observed a transient write";
  }
  EXPECT_EQ(M.size(), 450u);
  ASSERT_NE(M.find(3), nullptr);
  EXPECT_EQ(*M.find(3), -3);
}

TEST(HamtMapTest, TransientMatchesPersistentUnderRandomOps) {
  std::mt19937 Rng(53);
  HamtMap<int, int> T;
  HamtMap<int, int> P;
  std::vector<HamtMap<int, int>> Snaps;
  for (int Op = 0; Op != 4000; ++Op) {
    int Key = static_cast<int>(Rng() % 400);
    if (Rng() % 3 != 0) {
      int Val = static_cast<int>(Rng());
      T.setMut(Key, Val);
      P = P.set(Key, Val);
    } else {
      bool Was = T.eraseMut(Key);
      EXPECT_EQ(Was, P.find(Key) != nullptr);
      P = P.erase(Key);
    }
    ASSERT_EQ(T.size(), P.size());
    if (Op % 1000 == 0)
      Snaps.push_back(T); // forces the shared-node fallback afterwards
  }
  for (auto &[K, V] : P.items()) {
    ASSERT_NE(T.find(K), nullptr);
    EXPECT_EQ(*T.find(K), V);
  }
}

TEST(HamtSetTest, TransientInsertEraseWithCollisions) {
  HamtSet<int, BadHash> S;
  for (int I = 0; I != 90; ++I)
    S.insertMut(I);
  EXPECT_EQ(S.size(), 90u);
  HamtSet<int, BadHash> Snap = S;
  for (int I = 0; I != 45; ++I)
    EXPECT_TRUE(S.eraseMut(I)) << I;
  EXPECT_EQ(S.size(), 45u);
  EXPECT_EQ(Snap.size(), 90u) << "collision-node snapshot mutated";
  for (int I = 0; I != 90; ++I) {
    EXPECT_EQ(S.contains(I), I >= 45) << I;
    EXPECT_TRUE(Snap.contains(I)) << I;
  }
}

TEST(HamtSetTest, ForEachNodeCountsSharing) {
  HamtSet<int> S;
  for (int I = 0; I != 1000; ++I)
    S.insertMut(I);
  size_t Nodes = 0, Bytes = 0;
  S.forEachNode([&](const void *P, size_t B, uint32_t Owners) {
    EXPECT_NE(P, nullptr);
    EXPECT_GT(B, 0u);
    EXPECT_EQ(Owners, 1u) << "unshared trie reports owner count 1";
    ++Nodes;
    Bytes += B;
    return true;
  });
  EXPECT_GT(Nodes, 1u);
  EXPECT_GT(Bytes, Nodes); // every node has a nonzero footprint

  // A full copy shares the root: the walk must now report owners > 1 at
  // the top, and a false return must prune the descent.
  HamtSet<int> Copy = S;
  size_t Visited = 0;
  bool SawShared = false;
  S.forEachNode([&](const void *, size_t, uint32_t Owners) {
    ++Visited;
    if (Owners > 1)
      SawShared = true;
    return false; // prune: only the root is visited
  });
  EXPECT_EQ(Visited, 1u);
  EXPECT_TRUE(SawShared);
  (void)Copy;
}

// --- CHAMP layout: toggles, canonical shape, allocation sizes -------------

namespace {

/// Node count of a trie: its shape, independent of capacity slack.
template <typename Trie> size_t nodeCount(const Trie &T) {
  size_t Nodes = 0;
  T.forEachNode([&Nodes](const void *, size_t, uint32_t) {
    ++Nodes;
    return true;
  });
  return Nodes;
}

/// Keys 2k and 2k + 1 share a hash whose low 40 bits are zero, so equal
/// hashes meet in a collision node and different ones part only deep in
/// the trie, below a chain of single-child nodes.
struct ChainHash {
  size_t operator()(int X) const {
    return static_cast<size_t>(X / 2) << 40;
  }
};

} // namespace

TEST(HamtSetTest, ToggleMutFlipsMembershipOnBothTiers) {
  std::mt19937 Rng(5);
  HamtSet<int> T;          // transient: unique nodes, edited in place
  HamtSet<int> P;          // persistent: every toggle path-copies
  std::set<int> Ref;
  std::vector<std::pair<HamtSet<int>, std::set<int>>> Snaps;
  for (int Op = 0; Op != 6000; ++Op) {
    int Key = static_cast<int>(Rng() % 700);
    bool Present = Ref.erase(Key) == 0;
    if (Present)
      Ref.insert(Key);
    EXPECT_EQ(T.toggleMut(Key), Present) << Key;
    HamtSet<int> Before = P; // shares the root: the toggle path-copies
    EXPECT_EQ(P.toggleMut(Key), Present) << Key;
    EXPECT_EQ(Before.contains(Key), !Present) << "a shared root was edited";
    ASSERT_EQ(T.size(), Ref.size());
    ASSERT_EQ(P.size(), Ref.size());
    if (Op % 1500 == 0)
      Snaps.push_back({T, Ref}); // T's next toggles path-copy around it
  }
  auto Items = T.items();
  EXPECT_EQ(std::set<int>(Items.begin(), Items.end()), Ref);
  Items = P.items();
  EXPECT_EQ(std::set<int>(Items.begin(), Items.end()), Ref);
  for (auto &[Snap, SnapRef] : Snaps) {
    auto SnapItems = Snap.items();
    EXPECT_EQ(std::set<int>(SnapItems.begin(), SnapItems.end()), SnapRef);
  }
}

TEST(HamtSetTest, ToggleMutThroughCollisionNodes) {
  for (bool Shared : {false, true}) {
    SCOPED_TRACE(Shared ? "persistent" : "transient");
    HamtSet<int, BadHash> S;
    std::vector<HamtSet<int, BadHash>> Holders;
    for (int I = 0; I != 90; ++I) {
      if (Shared)
        Holders.push_back(S);
      EXPECT_TRUE(S.toggleMut(I)) << I;
    }
    EXPECT_EQ(S.size(), 90u);
    for (int I = 0; I != 90; I += 2) {
      if (Shared)
        Holders.push_back(S);
      EXPECT_FALSE(S.toggleMut(I)) << I;
    }
    EXPECT_EQ(S.size(), 45u);
    for (int I = 0; I != 90; ++I)
      EXPECT_EQ(S.contains(I), I % 2 == 1) << I;
    // Every holder still sees the set it was copied from.
    for (size_t H = 0; H != Holders.size(); ++H) {
      size_t Expected = H < 90 ? H : 90 - (H - 90);
      EXPECT_EQ(Holders[H].size(), Expected) << H;
      EXPECT_EQ(Holders[H].items().size(), Expected) << H;
    }
  }
}

TEST(HamtSetTest, EraseRestoresTheCanonicalShape) {
  // Erasing back to earlier contents must leave exactly the nodes a
  // fresh build of those contents has, on both tiers and through
  // collision nodes, whatever order the keys came and went in.
  auto Check = [](auto Empty, int Range) {
    using Set = decltype(Empty);
    std::mt19937 Rng(71 + Range);
    std::vector<int> Base, Extra;
    for (int K = 0; K != Range; ++K)
      (Rng() % 3 ? Base : Extra).push_back(K);
    Set Fresh;
    for (int K : Base)
      Fresh.insertMut(K);
    for (bool Persistent : {false, true}) {
      SCOPED_TRACE(Persistent ? "persistent" : "transient");
      Set S;
      std::vector<int> All = Base;
      All.insert(All.end(), Extra.begin(), Extra.end());
      std::shuffle(All.begin(), All.end(), Rng);
      for (int K : All)
        S = Persistent ? S.insert(K) : (S.insertMut(K), S);
      std::shuffle(Extra.begin(), Extra.end(), Rng);
      for (int K : Extra) {
        if (Persistent)
          S = S.erase(K);
        else
          EXPECT_FALSE(S.toggleMut(K)) << K;
      }
      EXPECT_EQ(S.size(), Fresh.size());
      EXPECT_EQ(nodeCount(S), nodeCount(Fresh)) << "range " << Range;
    }
  };
  for (int Range : {3, 40, 2000})
    Check(HamtSet<int>(), Range);
  Check(HamtSet<int, BadHash>(), 60);
  Check(HamtSet<int, ChainHash>(), 3);
  Check(HamtSet<int, ChainHash>(), 200);
}

TEST(HamtSetTest, CollisionNodeMovesUpWhenItsChainEmpties) {
  // 0 and 1 share a hash; 2 parts from them only at bit 40, so adding it
  // hangs the collision node below a chain of single-child nodes.
  HamtSet<int, ChainHash> Fresh;
  Fresh.insertMut(0);
  Fresh.insertMut(1);
  ASSERT_EQ(nodeCount(Fresh), 2u) << "root and one collision node";
  for (bool Persistent : {false, true}) {
    HamtSet<int, ChainHash> S = Fresh.insert(2);
    EXPECT_GT(nodeCount(S), 3u) << "a chain down to bit 40";
    if (Persistent)
      S = S.erase(2);
    else
      EXPECT_TRUE(S.eraseMut(2));
    EXPECT_EQ(nodeCount(S), 2u) << (Persistent ? "persistent" : "transient");
    EXPECT_TRUE(S.contains(0));
    EXPECT_TRUE(S.contains(1));
  }
}

TEST(HamtSetTest, ForEachNodeReportsAllocationSizes) {
  // The node walk is the memory accounting of fork_scaling and the
  // checkpoint statistics: its sizes must add up to what the trie holds,
  // slack included, and every node must be freed with the size it was
  // allocated with.
  for (int Size : {1, 40, 3000}) {
    long long Held = 0;
    size_t Reported = 0, Nodes = 0;
    Counting = true;
    LiveBytes = 0;
    {
      HamtSet<int64_t> S;
      for (int64_t I = 0; I != Size; ++I)
        S.insertMut(I * 7919);
      for (int64_t I = 1; I < Size; I += 3)
        S.eraseMut(I * 7919);
      Held = LiveBytes;
      S.forEachNode([&](const void *, size_t Bytes, uint32_t) {
        Reported += Bytes;
        ++Nodes;
        return true;
      });
    }
    long long Left = LiveBytes;
    Counting = false;
    EXPECT_GT(Nodes, 0u);
    EXPECT_EQ(static_cast<long long>(Reported), Held) << Size;
    EXPECT_EQ(Left, 0) << "nodes not freed with their allocation size";
  }
  // A set's entry is the element alone.
  EXPECT_EQ((HamtSet<Value, ValueHash>::EntryBytes), sizeof(Value));
}

// --- Value elements: refcounted payloads inside nodes ---------------------

namespace {

struct ValueLess {
  bool operator()(const Value &A, const Value &B) const {
    return compareValues(A, B) < 0;
  }
};
using ValueSet = HamtSet<Value, ValueHash>;
using RefSet = std::set<Value, ValueLess>;

/// Ints, strings and small nested sets: strings and sets are payloads
/// the trie retains, relocates and releases inside its nodes.
std::vector<Value> valuePool() {
  std::vector<Value> Pool;
  for (int64_t I = 0; I != 120; ++I)
    Pool.push_back(Value::integer(I));
  for (int I = 0; I != 80; ++I)
    Pool.push_back(Value::string("s" + std::to_string(I)));
  for (int I = 0; I != 40; ++I) {
    SetCow C = Value::emptySet().setCow(true);
    for (int64_t E = 0; E <= I % 5; ++E)
      C.add(Value::integer(I / 5 + E));
    C.add(Value::string("n" + std::to_string(I % 7)));
    Pool.push_back(std::move(C).finish());
  }
  return Pool;
}

RefSet contents(const ValueSet &S) {
  RefSet Out;
  S.forEach([&Out](const Value &V) { Out.insert(V); });
  return Out;
}

} // namespace

TEST(HamtSetTest, ValueElementsMatchStdSetOnBothTiers) {
  std::vector<Value> Pool = valuePool();
  std::mt19937 Rng(97);
  ValueSet S;
  RefSet Ref;
  std::vector<std::pair<ValueSet, RefSet>> Snaps;
  for (int Op = 0; Op != 8000; ++Op) {
    const Value &V = Pool[Rng() % Pool.size()];
    unsigned Kind = Rng() % 6;
    // Every third step runs on a shared root: the persistent tier.
    ValueSet Holder;
    if (Rng() % 3 == 0)
      Holder = S;
    switch (Kind) {
    case 0:
    case 1:
      S.insertMut(V);
      Ref.insert(V);
      break;
    case 2:
      EXPECT_EQ(S.eraseMut(V), Ref.erase(V) == 1);
      break;
    case 3:
      S = S.insert(V);
      Ref.insert(V);
      break;
    case 4:
      S = S.erase(V);
      Ref.erase(V);
      break;
    default: {
      bool Now = Ref.erase(V) == 0;
      if (Now)
        Ref.insert(V);
      EXPECT_EQ(S.toggleMut(V), Now);
      break;
    }
    }
    ASSERT_EQ(S.size(), Ref.size()) << "op " << Op;
    if (Op % 400 == 0)
      Snaps.push_back({S, Ref});
  }
  EXPECT_EQ(contents(S), Ref);
  for (const Value &V : Pool)
    EXPECT_EQ(S.contains(V), Ref.count(V) == 1) << V.str();
  for (auto &[Snap, SnapRef] : Snaps) {
    EXPECT_EQ(Snap.size(), SnapRef.size());
    EXPECT_EQ(contents(Snap), SnapRef) << "a snapshot changed";
  }
}

TEST(HamtMapTest, ValueKeysMatchStdMapOnBothTiers) {
  std::vector<Value> Pool = valuePool();
  std::mt19937 Rng(101);
  HamtMap<Value, Value, ValueHash> M;
  std::map<Value, Value, ValueLess> Ref;
  std::vector<std::pair<HamtMap<Value, Value, ValueHash>,
                        std::map<Value, Value, ValueLess>>>
      Snaps;
  for (int Op = 0; Op != 6000; ++Op) {
    const Value &K = Pool[Rng() % Pool.size()];
    const Value &V = Pool[Rng() % Pool.size()];
    switch (Rng() % 4) {
    case 0:
      M.setMut(K, V);
      Ref[K] = V;
      break;
    case 1:
      M = M.set(K, V);
      Ref[K] = V;
      break;
    case 2:
      EXPECT_EQ(M.eraseMut(K), Ref.erase(K) == 1);
      break;
    default:
      M = M.erase(K);
      Ref.erase(K);
      break;
    }
    ASSERT_EQ(M.size(), Ref.size()) << "op " << Op;
    if (Op % 500 == 0)
      Snaps.push_back({M, Ref});
  }
  auto Check = [](const auto &Map, const auto &Expected) {
    EXPECT_EQ(Map.size(), Expected.size());
    for (const auto &[K, V] : Expected) {
      const Value *Found = Map.find(K);
      ASSERT_NE(Found, nullptr) << K.str();
      EXPECT_EQ(*Found, V) << K.str();
    }
  };
  Check(M, Ref);
  for (auto &[Snap, SnapRef] : Snaps)
    Check(Snap, SnapRef);
}

// --- Concurrent path copies -------------------------------------------------

TEST(HamtConcurrencyTest, TwoHandlesToggleOneSharedSetAtOnce) {
  // Two threads each hold a handle on one shared set and toggle
  // overlapping keys at the same time. Both path-copy the shared nodes;
  // once one has dropped its count on a node, the other may find it
  // unique and edit it in place, so a node copy must be complete before
  // its count falls. Each thread must end with exactly its own updates
  // and the snapshot (when kept) with the original contents. Run under
  // TSan in CI.
  std::vector<Value> Pool = valuePool();
  for (bool KeepSnapshot : {true, false}) {
    for (int Round = 0; Round != 8; ++Round) {
      SCOPED_TRACE(testing::Message()
                   << (KeepSnapshot ? "with" : "without") << " snapshot, "
                   << "round " << Round);
      auto Shared = std::make_unique<ValueSet>();
      for (size_t I = 0; I < Pool.size(); I += 2)
        Shared->insertMut(Pool[I]);
      RefSet Original = contents(*Shared);
      ValueSet Handles[2] = {*Shared, *Shared};
      if (!KeepSnapshot)
        Shared.reset(); // the two handles are the only holders
      // Thread T toggles the pool elements from T * Pool.size() / 4 on,
      // so the ranges overlap in the middle half.
      RefSet Expected[2];
      std::atomic<int> Ready{0};
      std::vector<std::thread> Threads;
      for (int T = 0; T != 2; ++T) {
        Expected[T] = Original;
        size_t From = T * Pool.size() / 4, To = From + 3 * Pool.size() / 4;
        for (size_t I = From; I != To; ++I)
          if (Expected[T].erase(Pool[I]) == 0)
            Expected[T].insert(Pool[I]);
        Threads.emplace_back([&, T, From, To] {
          Ready.fetch_add(1);
          while (Ready.load() != 2) {
          }
          for (size_t I = From; I != To; ++I)
            Handles[T].toggleMut(Pool[I]);
        });
      }
      for (std::thread &Th : Threads)
        Th.join();
      for (int T = 0; T != 2; ++T) {
        EXPECT_EQ(contents(Handles[T]), Expected[T]) << "thread " << T;
      }
      if (KeepSnapshot) {
        EXPECT_EQ(contents(*Shared), Original) << "the snapshot changed";
      }
    }
  }
}
