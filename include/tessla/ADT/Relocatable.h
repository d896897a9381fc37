//===- tessla/ADT/Relocatable.h - Trivial relocation trait -----*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whether an object may be moved to new storage by copying its bytes,
/// the old storage then being dropped without running its destructor.
/// Containers that shift elements (the HAMT's node entries) use it to
/// move a run of elements with one memmove. Trivially copyable types
/// qualify; a type whose move only copies its bytes and empties the
/// source (such as tessla::Value) opts in by specializing.
///
//===----------------------------------------------------------------------===//

#ifndef TESSLA_ADT_RELOCATABLE_H
#define TESSLA_ADT_RELOCATABLE_H

#include <type_traits>

namespace tessla {

template <typename T>
struct IsTriviallyRelocatable : std::is_trivially_copyable<T> {};

} // namespace tessla

#endif // TESSLA_ADT_RELOCATABLE_H
