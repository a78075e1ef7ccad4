//===- Memory.h - Abstract memory and opaque call semantics -----*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Execution-side state for Nona-compiled loops: abstract memory objects
/// (named int64 arrays) and the deterministic semantics of opaque Call
/// instructions. Calls with a memory object model stateful external work
/// (e.g. a PRNG); their state update is a commutative mix so that
/// commutativity-annotated reorderings leave the final state unchanged —
/// which is exactly the property the semantic-equivalence tests check.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_INTERP_MEMORY_H
#define PARCAE_INTERP_MEMORY_H

#include "ir/IR.h"

#include <cstdint>
#include <map>
#include <span>
#include <vector>

namespace parcae::ir {

/// Abstract memory: object id -> growable array of int64 cells.
class Memory {
public:
  /// The backing array of an object, grown to at least \p MinSize.
  std::vector<std::int64_t> &object(int Id, std::size_t MinSize = 0);

  std::int64_t load(int Id, std::int64_t Index);
  void store(int Id, std::int64_t Index, std::int64_t Value);

  bool operator==(const Memory &O) const { return Objects == O.Objects; }

  /// A 64-bit FNV-1a-style digest (one xor-multiply step per 64-bit word)
  /// of every object's id, size and cells, in object-id order: equal
  /// memories have equal digests.
  std::uint64_t digest() const;

  /// Wipes everything (fresh run).
  void clear() { Objects.clear(); }

private:
  std::map<int, std::vector<std::int64_t>> Objects;
};

/// Deterministic value mixer used by Call semantics.
std::int64_t mixValues(std::int64_t Callee, std::span<const std::int64_t> Args);

/// Executes a Call instruction: returns its result and applies its
/// (commutative) side effect on the call's memory object, if any.
std::int64_t evalCall(const Instruction &I, std::span<const std::int64_t> Args,
                      Memory &M);

} // namespace parcae::ir

#endif // PARCAE_INTERP_MEMORY_H
