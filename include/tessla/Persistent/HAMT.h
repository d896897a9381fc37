//===- tessla/Persistent/HAMT.h - Hash-array mapped trie -------*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Persistent hash map/set as a bitmap-compressed hash-array mapped trie
/// (HAMT) in Steindorfer & Vinju's CHAMP layout — Bagwell's "Ideal Hash
/// Trees" and CHAMP are the paper's references [24] and [25], and the
/// structure behind Scala's immutable HashSet/HashMap that the paper's
/// baseline monitors use.
///
/// A node is one sized allocation: the intrusive count, a data bitmap, a
/// node bitmap and an entry area. Inline entries (a set's elements, a
/// map's key/value pairs) are packed from the front of the area in bit
/// order and child pointers from its back, so an entry carries no tag —
/// the two bitmaps say what each one is — and a set entry is the element
/// alone. The gap between the two packs is capacity slack: an in-place
/// insert fills it instead of reallocating the node.
///
/// Updates copy the O(log32 n) path from the root and share everything
/// else; old versions remain valid and unchanged. This "restructuring
/// after a modification" is precisely the overhead the aggregate-update
/// optimization removes for mutable variables (§V-A). The transient
/// operations (setMut/eraseMut/toggleMut) edit a node in place while this
/// trie owns it alone — its count is 1 and so is every count above it on
/// the path — and path-copy from the first shared node down, so a
/// subtree reachable from any other root is never written. Erasing keeps
/// the trie canonical: a subtree left with a single element collapses
/// into its parent, and one left with only a collision node is replaced
/// by it, so equal contents have equal shapes whatever the history.
///
//===----------------------------------------------------------------------===//

#ifndef TESSLA_PERSISTENT_HAMT_H
#define TESSLA_PERSISTENT_HAMT_H

#include "tessla/ADT/Relocatable.h"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

namespace tessla {

namespace hamt_detail {
/// Population count by bit tricks: the standard library's popcount is a
/// libgcc call on baseline x86-64, which has no popcnt instruction, and
/// the trie counts bits at every level of every walk.
inline unsigned popcount(uint32_t X) {
  X -= (X >> 1) & 0x55555555u;
  X = (X & 0x33333333u) + ((X >> 2) & 0x33333333u);
  X = (X + (X >> 4)) & 0x0f0f0f0fu;
  return (X * 0x01010101u) >> 24;
}
} // namespace hamt_detail

/// Persistent hash map with structural sharing. Copying is O(1).
///
/// \tparam K key type (copyable, hashable via \p Hash, comparable via \p Eq)
/// \tparam V mapped type (copyable; an empty type costs no bytes)
template <typename K, typename V, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
class HamtMap {
  static constexpr unsigned BitsPerLevel = 5;
  static constexpr uint64_t LevelMask = 31;
  // With a 64-bit hash, shifts 0,5,...,60 are usable; below that, equal
  // hashes collide into a collision node.
  static constexpr unsigned MaxShift = 60;

  struct Leaf {
    K Key;
    [[no_unique_address]] V Val;
  };

  // The header of a node; the entry area of Cap bytes follows it in the
  // same allocation. Bitmap nodes: popcount(DataMap) leaves from the
  // front in bit order, popcount(NodeMap) child pointers (each owning one
  // count) from the back in reverse bit order, so that neither pack's
  // position depends on the other's size. Collision nodes: DataMap
  // leaves whose keys share one full hash, and no children.
  struct Node {
    mutable std::atomic<uint32_t> RefCount{1};
    uint32_t Cap : 31;
    uint32_t Collision : 1;
    uint32_t DataMap;
    uint32_t NodeMap;
  };

  static constexpr size_t LeafBytes = sizeof(Leaf);
  static constexpr bool LeafMemmove = IsTriviallyRelocatable<K>::value &&
                                      IsTriviallyRelocatable<V>::value;
  static constexpr size_t KidBytes = sizeof(Node *);
  static constexpr size_t AreaAlign =
      alignof(Leaf) > alignof(Node *) ? alignof(Leaf) : alignof(Node *);
  static constexpr size_t HeaderBytes =
      (sizeof(Node) + AreaAlign - 1) / AreaAlign * AreaAlign;
  // A bitmap node never needs more than 32 entries of the larger kind.
  static constexpr size_t MaxBitmapCap =
      32 * (LeafBytes > KidBytes ? LeafBytes : KidBytes);
  static_assert(AreaAlign <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "entries must fit the default allocation alignment");

  static constexpr size_t excess(size_t A, size_t B) {
    return A > B ? A - B : 0;
  }

  // --- Node storage ------------------------------------------------------

  static char *area(const Node *N) {
    return reinterpret_cast<char *>(const_cast<Node *>(N)) + HeaderBytes;
  }
  static Leaf *leaves(const Node *N) {
    return reinterpret_cast<Leaf *>(area(N));
  }
  /// One past the kid pack: child I (in bit order) is kidEnd(N)[-1 - I].
  static Node **kidEnd(const Node *N) {
    return reinterpret_cast<Node **>(area(N) + N->Cap);
  }
  static Node *&kid(const Node *N, unsigned I) {
    return kidEnd(N)[-1 - static_cast<std::ptrdiff_t>(I)];
  }
  static unsigned numLeaves(const Node *N) {
    return N->Collision ? N->DataMap : hamt_detail::popcount(N->DataMap);
  }
  static unsigned numKids(const Node *N) {
    return hamt_detail::popcount(N->NodeMap);
  }
  static size_t usedBytes(const Node *N) {
    return numLeaves(N) * LeafBytes + numKids(N) * KidBytes;
  }

  /// A node with count 1, empty maps and at least \p Cap entry bytes.
  static Node *allocNode(size_t Cap, bool Collision) {
    Cap = (Cap + KidBytes - 1) / KidBytes * KidBytes; // align the kid pack
    Node *N = ::new (::operator new(HeaderBytes + Cap)) Node;
    N->Cap = static_cast<uint32_t>(Cap);
    N->Collision = Collision;
    N->DataMap = 0;
    N->NodeMap = 0;
    return N;
  }
  /// Frees \p N's storage; its entries must already be gone or moved.
  static void freeNode(Node *N) {
    size_t Bytes = HeaderBytes + N->Cap;
    N->~Node();
    ::operator delete(static_cast<void *>(N), Bytes);
  }
  static void destroyNode(Node *N) {
    Leaf *L = leaves(N);
    for (unsigned I = 0, E = numLeaves(N); I != E; ++I)
      L[I].~Leaf();
    for (unsigned I = 0, E = numKids(N); I != E; ++I)
      release(kid(N, I));
    freeNode(N);
  }

  // Relaxed increments and acq-rel decrements, as RefCntPtr: the acquire
  // load in unique() orders a sharer's last reads of a node (on any
  // thread) before this trie's in-place writes to it.
  static void retain(const Node *N) {
    N->RefCount.fetch_add(1, std::memory_order_relaxed);
  }
  static void release(Node *N) {
    assert(N->RefCount.load(std::memory_order_relaxed) > 0 && "over-release");
    if (N->RefCount.fetch_sub(1, std::memory_order_acq_rel) == 1)
      destroyNode(N);
  }
  static bool unique(const Node *N) {
    return N->RefCount.load(std::memory_order_acquire) == 1;
  }

  /// A copy of \p N with \p Extra free bytes that holds its own counts:
  /// leaves are copied and children retained, except child \p SkipKid,
  /// whose pointer is copied without a count for the caller to replace.
  static Node *clone(const Node *N, size_t Extra, int SkipKid = -1) {
    Node *M = allocNode(usedBytes(N) + Extra, N->Collision);
    M->DataMap = N->DataMap;
    M->NodeMap = N->NodeMap;
    const Leaf *SL = leaves(N);
    Leaf *DL = leaves(M);
    for (unsigned I = 0, E = numLeaves(N); I != E; ++I)
      ::new (static_cast<void *>(DL + I)) Leaf(SL[I]);
    for (unsigned I = 0, E = numKids(N); I != E; ++I) {
      kid(M, I) = kid(N, I);
      if (static_cast<int>(I) != SkipKid)
        retain(kid(N, I));
    }
    return M;
  }

  /// Makes room for \p Need more bytes in \p N, which this trie owns;
  /// a full node is reallocated with half its capacity again as slack
  /// (N is then freed). Returns the node to use.
  static Node *reserve(Node *N, size_t Need) {
    size_t Used = usedBytes(N);
    if (N->Cap - Used >= Need)
      return N;
    size_t Want = Used + Need, Grown = N->Cap + N->Cap / 2;
    if (!N->Collision && Grown > MaxBitmapCap)
      Grown = MaxBitmapCap;
    Node *M = allocNode(Want > Grown ? Want : Grown, N->Collision);
    M->DataMap = N->DataMap;
    M->NodeMap = N->NodeMap;
    relocate(leaves(M), leaves(N), numLeaves(N));
    unsigned Kids = numKids(N);
    std::memcpy(kidEnd(M) - Kids, kidEnd(N) - Kids, Kids * KidBytes);
    freeNode(N);
    return M;
  }

  /// Moves the \p Len leaves at \p Src into storage at \p Dst (the
  /// ranges may overlap) and ends the ones left behind.
  static void relocate(Leaf *Dst, Leaf *Src, unsigned Len) {
    if (Dst == Src || Len == 0)
      return;
    if constexpr (LeafMemmove) {
      std::memmove(static_cast<void *>(Dst), static_cast<void *>(Src),
                   Len * LeafBytes);
    } else if (Dst < Src) {
      for (unsigned I = 0; I != Len; ++I) {
        ::new (static_cast<void *>(Dst + I)) Leaf(std::move(Src[I]));
        Src[I].~Leaf();
      }
    } else {
      for (unsigned I = Len; I-- != 0;) {
        ::new (static_cast<void *>(Dst + I)) Leaf(std::move(Src[I]));
        Src[I].~Leaf();
      }
    }
  }

  // In-place edits of a node this trie owns. The caller has reserved the
  // room an insert needs.

  static void insertLeaf(Node *N, uint32_t Bit, Leaf &&New) {
    unsigned Len = hamt_detail::popcount(N->DataMap);
    unsigned Idx = index(N->DataMap, Bit);
    Leaf *L = leaves(N);
    relocate(L + Idx + 1, L + Idx, Len - Idx);
    ::new (static_cast<void *>(L + Idx)) Leaf(std::move(New));
    N->DataMap |= Bit;
  }
  /// Ends leaf \p Idx of \p N (Len leaves) and closes the gap.
  static void removeLeafAt(Node *N, unsigned Len, unsigned Idx) {
    Leaf *L = leaves(N);
    L[Idx].~Leaf();
    relocate(L + Idx, L + Idx + 1, Len - Idx - 1);
  }
  static void insertKid(Node *N, uint32_t Bit, Node *Kid) {
    unsigned Idx = index(N->NodeMap, Bit), Len = numKids(N);
    Node **End = kidEnd(N);
    std::memmove(End - Len - 1, End - Len, (Len - Idx) * KidBytes);
    N->NodeMap |= Bit;
    kid(N, Idx) = Kid;
  }
  /// Drops child slot \p Bit without releasing the pointer in it.
  static void removeKid(Node *N, uint32_t Bit) {
    unsigned Idx = index(N->NodeMap, Bit), Len = numKids(N);
    Node **End = kidEnd(N);
    std::memmove(End - Len + 1, End - Len, (Len - 1 - Idx) * KidBytes);
    N->NodeMap &= ~Bit;
  }

  static uint32_t bitpos(uint64_t HashValue, unsigned Shift) {
    return uint32_t{1} << ((HashValue >> Shift) & LevelMask);
  }
  static unsigned index(uint32_t Bitmap, uint32_t Bit) {
    return hamt_detail::popcount(Bitmap & (Bit - 1));
  }

  static Node *singleLeafNode(Leaf &&L, uint64_t HashValue, unsigned Shift) {
    Node *N = allocNode(LeafBytes, false);
    ::new (static_cast<void *>(leaves(N))) Leaf(std::move(L));
    N->DataMap = bitpos(HashValue, Shift);
    return N;
  }

  /// Builds the smallest subtree containing two distinct keys.
  static Node *mergeLeaves(Leaf &&A, uint64_t HashA, Leaf &&B,
                           uint64_t HashB, unsigned Shift) {
    if (Shift > MaxShift || HashA == HashB) {
      assert(HashA == HashB && "hash fragments exhausted before full hash");
      Node *N = allocNode(2 * LeafBytes, true);
      ::new (static_cast<void *>(leaves(N))) Leaf(std::move(A));
      ::new (static_cast<void *>(leaves(N) + 1)) Leaf(std::move(B));
      N->DataMap = 2;
      return N;
    }
    uint32_t BitA = bitpos(HashA, Shift), BitB = bitpos(HashB, Shift);
    if (BitA == BitB) {
      Node *N = allocNode(KidBytes, false);
      N->NodeMap = BitA;
      kid(N, 0) = mergeLeaves(std::move(A), HashA, std::move(B), HashB,
                              Shift + BitsPerLevel);
      return N;
    }
    Node *N = allocNode(2 * LeafBytes, false);
    N->DataMap = BitA | BitB;
    // Leaves in bit order.
    unsigned IdxA = BitA < BitB ? 0 : 1;
    ::new (static_cast<void *>(leaves(N) + IdxA)) Leaf(std::move(A));
    ::new (static_cast<void *>(leaves(N) + (IdxA ^ 1))) Leaf(std::move(B));
    return N;
  }

  const V *findImpl(const Node *N, uint64_t HashValue, const K &Key) const {
    for (unsigned Shift = 0; N; Shift += BitsPerLevel) {
      if (N->Collision) {
        const Leaf *L = leaves(N);
        for (unsigned I = 0; I != N->DataMap; ++I)
          if (Eq{}(L[I].Key, Key))
            return &L[I].Val;
        return nullptr;
      }
      uint32_t Bit = bitpos(HashValue, Shift);
      if (N->DataMap & Bit) {
        const Leaf &L = leaves(N)[index(N->DataMap, Bit)];
        return Eq{}(L.Key, Key) ? &L.Val : nullptr;
      }
      if (!(N->NodeMap & Bit))
        return nullptr;
      N = kid(N, index(N->NodeMap, Bit));
    }
    return nullptr;
  }

  // --- Updates: one walker for every tier and operation -------------------

  enum class Op : uint8_t { Insert, Erase, Toggle };

  /// What an update did to one subtree.
  enum class Change : uint8_t {
    None,     // nothing: Erase of an absent key, Insert of a set element
              // already there
    Replaced, // Insert of a present key: its value replaced
    Added,
    Removed,  // the subtree is still a node
    Lifted,   // removed, and the subtree shrank to the one leaf in Lift
    Emptied,  // removed the last entry (the root only)
  };

  /// One update's operands, shared by every level of its descent.
  struct Update {
    Op Kind;
    uint64_t HashValue;
    const K &Key;
    Leaf *New; // Insert/Toggle: the leaf to add, moved from when added
    std::optional<Leaf> Lift;
  };

  /// Applies \p U to the subtree \p N at \p Shift. \p Owned: N may be
  /// edited in place (this trie owns it and every node above it). On a
  /// change other than Lifted and Emptied, \p Out is the subtree's node
  /// afterwards: N or its reallocation when Owned (which then also takes
  /// over the caller's count on N), a fresh copy otherwise (N untouched
  /// and still the caller's). An Owned N that Lifted or Emptied is freed.
  static Change update(Node *N, bool Owned, unsigned Shift, Update &U,
                       Node *&Out) {
    if (N->Collision)
      return updateCollision(N, Owned, Shift, U, Out);
    uint32_t Bit = bitpos(U.HashValue, Shift);

    if (N->DataMap & Bit) {
      unsigned Idx = index(N->DataMap, Bit);
      Leaf &L = leaves(N)[Idx];
      if (Eq{}(L.Key, U.Key)) {
        if (U.Kind == Op::Insert)
          return replaceValue(N, Owned, Idx, U, Out);
        unsigned Len = hamt_detail::popcount(N->DataMap);
        unsigned Entries = Len + numKids(N);
        if (Entries == 1) {
          if (Owned)
            destroyNode(N);
          return Change::Emptied;
        }
        if (Entries == 2 && N->NodeMap == 0 && Shift > 0) {
          // The sibling leaf is all that is left: collapse into it.
          liftLeaf(N, Owned, Idx ^ 1, U);
          return Change::Lifted;
        }
        if (Entries == 2 && Len == 1 && Shift > 0 && kid(N, 0)->Collision) {
          // Only a collision node would be left: it replaces this node.
          Out = kid(N, 0);
          if (!Owned) {
            retain(Out);
          } else {
            leaves(N)[0].~Leaf();
            freeNode(N);
          }
          return Change::Removed;
        }
        Node *M = Owned ? N : clone(N, 0);
        removeLeafAt(M, Len, Idx);
        M->DataMap &= ~Bit;
        Out = M;
        return Change::Removed;
      }
      if (U.Kind == Op::Erase)
        return Change::None;
      // Push the resident leaf and the new one down into a subtree.
      Node *M = Owned ? N : clone(N, excess(KidBytes, LeafBytes));
      Leaf &Resident = leaves(M)[Idx];
      uint64_t ResidentHash = Hash{}(Resident.Key);
      Node *Sub = mergeLeaves(std::move(Resident), ResidentHash,
                              std::move(*U.New), U.HashValue,
                              Shift + BitsPerLevel);
      removeLeafAt(M, hamt_detail::popcount(M->DataMap), Idx);
      M->DataMap &= ~Bit;
      M = reserve(M, KidBytes);
      insertKid(M, Bit, Sub);
      Out = M;
      return Change::Added;
    }

    if (N->NodeMap & Bit) {
      unsigned Idx = index(N->NodeMap, Bit);
      Node *Kid = kid(N, Idx);
      bool KidOwned = Owned && unique(Kid);
      Node *NewKid = nullptr;
      Change C = update(Kid, KidOwned, Shift + BitsPerLevel, U, NewKid);
      if (C == Change::None)
        return C;
      assert(C != Change::Emptied && "a child subtree holds two entries");
      if (Owned && !KidOwned)
        release(Kid); // this node's count on the old child
      if (C != Change::Lifted) {
        if (NewKid->Collision && N->DataMap == 0 && numKids(N) == 1 &&
            Shift > 0) {
          // A collision node that lost its sibling moves up in place of
          // this node, as a fresh build would have placed it.
          if (Owned)
            freeNode(N);
          Out = NewKid;
          return C;
        }
        Node *M = Owned ? N : clone(N, 0, static_cast<int>(Idx));
        kid(M, Idx) = NewKid;
        Out = M;
        return C;
      }
      if (N->DataMap == 0 && numKids(N) == 1 && Shift > 0) {
        // The child was this node's only entry: pass the leaf up.
        if (Owned)
          freeNode(N);
        return Change::Lifted;
      }
      // Inline the child's last leaf here.
      Node *M = Owned ? N : clone(N, excess(LeafBytes, KidBytes),
                                  static_cast<int>(Idx));
      removeKid(M, Bit);
      M = reserve(M, LeafBytes);
      insertLeaf(M, Bit, std::move(*U.Lift));
      U.Lift.reset();
      Out = M;
      return Change::Removed;
    }

    if (U.Kind == Op::Erase)
      return Change::None;
    Node *M = Owned ? reserve(N, LeafBytes) : clone(N, LeafBytes);
    insertLeaf(M, Bit, std::move(*U.New));
    Out = M;
    return Change::Added;
  }

  static Change updateCollision(Node *N, bool Owned, unsigned Shift,
                                Update &U, Node *&Out) {
    unsigned Len = N->DataMap;
    uint64_t Shared = Hash{}(leaves(N)[0].Key);
    if (Shared != U.HashValue) {
      if (U.Kind == Op::Erase)
        return Change::None;
      // Split: hang this node below a bitmap node at its own fragment and
      // update that (the hashes part at some level below MaxShift). The
      // new parent takes over an Owned caller's count, or retains N.
      Node *P = allocNode(KidBytes, false);
      P->NodeMap = bitpos(Shared, Shift);
      kid(P, 0) = N;
      if (!Owned)
        retain(N);
      return update(P, true, Shift, U, Out);
    }
    for (unsigned I = 0; I != Len; ++I) {
      if (!Eq{}(leaves(N)[I].Key, U.Key))
        continue;
      if (U.Kind == Op::Insert)
        return replaceValue(N, Owned, I, U, Out);
      if (Len == 2) {
        liftLeaf(N, Owned, I ^ 1, U);
        return Change::Lifted;
      }
      Node *M = Owned ? N : clone(N, 0);
      removeLeafAt(M, Len, I);
      --M->DataMap;
      Out = M;
      return Change::Removed;
    }
    if (U.Kind == Op::Erase)
      return Change::None;
    Node *M = Owned ? reserve(N, LeafBytes) : clone(N, LeafBytes);
    ::new (static_cast<void *>(leaves(M) + Len)) Leaf(std::move(*U.New));
    ++M->DataMap;
    Out = M;
    return Change::Added;
  }

  static Change replaceValue(Node *N, bool Owned, unsigned Idx, Update &U,
                             Node *&Out) {
    if constexpr (std::is_empty_v<V>) {
      return Change::None; // a set element is its own value
    } else {
      Node *M = Owned ? N : clone(N, 0);
      leaves(M)[Idx].Val = std::move(U.New->Val);
      Out = M;
      return Change::Replaced;
    }
  }

  /// Leaves leaf \p Idx of \p N, whose other entries are being removed,
  /// in U.Lift: moved out of an Owned N (then destroyed), copied
  /// otherwise.
  static void liftLeaf(Node *N, bool Owned, unsigned Idx, Update &U) {
    if (!Owned) {
      U.Lift.emplace(leaves(N)[Idx]);
      return;
    }
    U.Lift.emplace(std::move(leaves(N)[Idx]));
    destroyNode(N);
  }

  /// Runs \p U from the root. The root is edited in place when this map
  /// owns it alone; a map that shares it path-copies.
  Change apply(Update &U) {
    if (!Root) {
      if (U.Kind == Op::Erase)
        return Change::None;
      Root = singleLeafNode(std::move(*U.New), U.HashValue, 0);
      ++Count;
      return Change::Added;
    }
    bool Owned = unique(Root);
    Node *Out = nullptr;
    Change C = update(Root, Owned, 0, U, Out);
    if (C == Change::None)
      return C;
    if (!Owned)
      release(Root);
    if (C == Change::Emptied) {
      Out = nullptr;
    } else if (C == Change::Lifted) {
      // Unreachable from a canonical root, which never collapses.
      uint64_t H = Hash{}(U.Lift->Key);
      Out = singleLeafNode(std::move(*U.Lift), H, 0);
    }
    Root = Out;
    if (C == Change::Added)
      ++Count;
    else if (C != Change::Replaced)
      --Count;
    return C;
  }

  template <typename Fn> static void forEachImpl(const Node *N, Fn &Callback) {
    const Leaf *L = leaves(N);
    for (unsigned I = 0, E = numLeaves(N); I != E; ++I)
      Callback(L[I].Key, L[I].Val);
    for (unsigned I = 0, E = numKids(N); I != E; ++I)
      forEachImpl(kid(N, I), Callback);
  }

  // Node walk for memory accounting. Callback(node pointer, allocation
  // bytes, refcount) returns true to descend into the node's children —
  // returning false lets a cross-value walker skip subtrees it has
  // already visited through another root.
  template <typename Fn>
  static void forEachNodeImpl(const Node *N, Fn &Callback) {
    if (!Callback(static_cast<const void *>(N), HeaderBytes + N->Cap,
                  N->RefCount.load(std::memory_order_acquire)))
      return;
    for (unsigned I = 0, E = numKids(N); I != E; ++I)
      forEachNodeImpl(kid(N, I), Callback);
  }

  Node *Root = nullptr;
  size_t Count = 0;

public:
  /// Bytes one entry takes inside a node (a set's: the element alone).
  static constexpr size_t EntryBytes = LeafBytes;

  /// The empty map.
  HamtMap() = default;
  HamtMap(const HamtMap &O) : Root(O.Root), Count(O.Count) {
    if (Root)
      retain(Root);
  }
  HamtMap(HamtMap &&O) noexcept : Root(O.Root), Count(O.Count) {
    O.Root = nullptr;
    O.Count = 0;
  }
  HamtMap &operator=(HamtMap O) noexcept {
    std::swap(Root, O.Root);
    std::swap(Count, O.Count);
    return *this;
  }
  ~HamtMap() {
    if (Root)
      release(Root);
  }

  bool empty() const { return Count == 0; }
  size_t size() const { return Count; }

  /// Pointer to the value mapped to \p Key, or nullptr. O(log32 n).
  const V *find(const K &Key) const {
    return findImpl(Root, Hash{}(Key), Key);
  }

  bool contains(const K &Key) const { return find(Key) != nullptr; }

  /// Returns a map where \p Key maps to \p Value (inserted or replaced).
  /// This map is unchanged. O(log32 n) copied nodes.
  HamtMap set(K Key, V Value) const {
    HamtMap R(*this); // shares the root, so the update path-copies
    R.setMut(std::move(Key), std::move(Value));
    return R;
  }

  /// Returns a map without \p Key (sharing this map's root if absent).
  HamtMap erase(const K &Key) const {
    HamtMap R(*this);
    R.eraseMut(Key);
    return R;
  }

  /// Transient insert-or-replace: mutates this map, reusing every node
  /// this map owns exclusively and path-copying shared ones. Other maps
  /// sharing structure with this one are never affected. O(log32 n).
  void setMut(K Key, V Value) {
    // Hash before building the Leaf: the move must not race the hashing.
    uint64_t H = Hash{}(Key);
    Leaf New{std::move(Key), std::move(Value)};
    Update U{Op::Insert, H, New.Key, &New, std::nullopt};
    apply(U);
  }

  /// Transient erase with the same sharing discipline as setMut.
  /// Returns true when the key was present.
  bool eraseMut(const K &Key) {
    Update U{Op::Erase, Hash{}(Key), Key, nullptr, std::nullopt};
    return apply(U) != Change::None;
  }

  /// Transient toggle for a map of an empty value type (a set): inserts
  /// \p Key when absent and erases it when present, in one descent.
  /// Returns true when the key is present afterwards.
  bool toggleMut(K Key) {
    static_assert(std::is_empty_v<V>, "toggle needs a set-like map");
    uint64_t H = Hash{}(Key);
    Leaf New{std::move(Key), V{}};
    Update U{Op::Toggle, H, New.Key, &New, std::nullopt};
    return apply(U) == Change::Added;
  }

  /// Calls Callback(key, value) for every entry (unspecified order).
  template <typename Fn> void forEach(Fn &&Callback) const {
    if (Root)
      forEachImpl(Root, Callback);
  }

  /// Walks the trie nodes for memory accounting; see forEachNodeImpl.
  template <typename Fn> void forEachNode(Fn &&Callback) const {
    if (Root)
      forEachNodeImpl(Root, Callback);
  }

  /// Collects all entries into a vector (unspecified order).
  std::vector<std::pair<K, V>> items() const {
    std::vector<std::pair<K, V>> Out;
    Out.reserve(Count);
    forEach([&Out](const K &Key, const V &Val) {
      Out.emplace_back(Key, Val);
    });
    return Out;
  }
};

/// Persistent hash set on top of HamtMap; an entry is the element alone.
template <typename K, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
class HamtSet {
  struct Unit {};
  using Map = HamtMap<K, Unit, Hash, Eq>;
  Map Elems;

  explicit HamtSet(Map Elems) : Elems(std::move(Elems)) {}

public:
  /// Bytes one element takes inside a node.
  static constexpr size_t EntryBytes = Map::EntryBytes;

  HamtSet() = default;

  bool empty() const { return Elems.empty(); }
  size_t size() const { return Elems.size(); }
  bool contains(const K &Key) const { return Elems.contains(Key); }

  /// Returns a set containing \p Key.
  HamtSet insert(K Key) const { return HamtSet(Elems.set(std::move(Key), {})); }
  /// Returns a set without \p Key.
  HamtSet erase(const K &Key) const { return HamtSet(Elems.erase(Key)); }

  /// Transient insert/erase/toggle (see HamtMap::setMut/eraseMut/
  /// toggleMut). toggleMut returns true when \p Key is now an element.
  void insertMut(K Key) { Elems.setMut(std::move(Key), {}); }
  bool eraseMut(const K &Key) { return Elems.eraseMut(Key); }
  bool toggleMut(K Key) { return Elems.toggleMut(std::move(Key)); }

  template <typename Fn> void forEach(Fn &&Callback) const {
    Elems.forEach([&Callback](const K &Key, const Unit &) { Callback(Key); });
  }

  /// Walks the trie nodes for memory accounting.
  template <typename Fn> void forEachNode(Fn &&Callback) const {
    Elems.forEachNode(std::forward<Fn>(Callback));
  }

  std::vector<K> items() const {
    std::vector<K> Out;
    Out.reserve(size());
    forEach([&Out](const K &Key) { Out.push_back(Key); });
    return Out;
  }
};

} // namespace tessla

#endif // TESSLA_PERSISTENT_HAMT_H
