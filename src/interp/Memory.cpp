//===- Memory.cpp - Abstract memory and opaque call semantics --------------===//

#include "interp/Memory.h"

#include <cassert>

using namespace parcae::ir;

std::vector<std::int64_t> &Memory::object(int Id, std::size_t MinSize) {
  auto &V = Objects[Id];
  if (V.size() < MinSize)
    V.resize(MinSize, 0);
  return V;
}

std::int64_t Memory::load(int Id, std::int64_t Index) {
  assert(Index >= 0 && "negative memory index");
  auto &V = object(Id, static_cast<std::size_t>(Index) + 1);
  return V[static_cast<std::size_t>(Index)];
}

void Memory::store(int Id, std::int64_t Index, std::int64_t Value) {
  assert(Index >= 0 && "negative memory index");
  auto &V = object(Id, static_cast<std::size_t>(Index) + 1);
  V[static_cast<std::size_t>(Index)] = Value;
}

std::uint64_t Memory::digest() const {
  std::uint64_t H = 0xcbf29ce484222325ull;
  auto Mix = [&H](std::uint64_t W) {
    H ^= W;
    H *= 0x100000001b3ull;
  };
  for (const auto &[Id, Cells] : Objects) {
    Mix(static_cast<std::uint64_t>(Id));
    Mix(Cells.size());
    for (std::int64_t C : Cells)
      Mix(static_cast<std::uint64_t>(C));
  }
  return H;
}

std::int64_t parcae::ir::mixValues(std::int64_t Callee,
                                   std::span<const std::int64_t> Args) {
  std::uint64_t H = 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(Callee + 1);
  for (std::int64_t A : Args) {
    H ^= static_cast<std::uint64_t>(A) + 0x9e3779b97f4a7c15ull + (H << 6) +
         (H >> 2);
    H *= 0xbf58476d1ce4e5b9ull;
  }
  H ^= H >> 31;
  // Keep results in a tame range so repeated sums do not overflow.
  return static_cast<std::int64_t>(H % 1000003ull);
}

std::int64_t parcae::ir::evalCall(const Instruction &I,
                                  std::span<const std::int64_t> Args,
                                  Memory &M) {
  assert(I.Op == Opcode::Call && "evalCall on a non-call");
  std::int64_t Result = mixValues(I.Imm, Args);
  if (I.MemObject >= 0) {
    // Commutative state update: addition, so any execution order of the
    // call's dynamic instances produces the same final state.
    std::int64_t Old = M.load(I.MemObject, 0);
    M.store(I.MemObject, 0, Old + Result);
  }
  return Result;
}
