//===- Compile.cpp - The Nona compiler driver --------------------------------===//

#include "nona/Compile.h"

#include "ir/Dominators.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>

using namespace parcae::ir;
namespace rt = parcae::rt;
namespace sim = parcae::sim;

//===----------------------------------------------------------------------===//
// PS-DSWP partitioning (Section 4.3.2)
//===----------------------------------------------------------------------===//

namespace {

/// Transitive closure over the SCC condensation.
std::vector<std::vector<bool>> reachability(const PDG &P) {
  unsigned N = static_cast<unsigned>(P.sccs().size());
  std::vector<std::vector<bool>> R(N, std::vector<bool>(N, false));
  for (auto [A, B] : P.sccEdges())
    R[A][B] = true;
  // Edges are topologically ordered (A < B), so one backward sweep closes.
  for (unsigned A = N; A-- > 0;)
    for (unsigned B = A + 1; B < N; ++B)
      if (R[A][B])
        for (unsigned C = B + 1; C < N; ++C)
          R[A][C] = R[A][C] || R[B][C];
  return R;
}

/// Whether merging \p Set (parallel SCCs) into one parallel task keeps
/// Invariant 4.3.1(3): no dependency chain between two members passes
/// through a non-member of \p Set drawn from \p Universe.
bool mergeable(const std::vector<unsigned> &Set,
               const std::vector<unsigned> &Universe,
               const std::vector<std::vector<bool>> &Reach) {
  auto InSet = [&](unsigned X) {
    return std::find(Set.begin(), Set.end(), X) != Set.end();
  };
  for (unsigned A : Set)
    for (unsigned B : Set) {
      if (A == B || !Reach[A][B])
        continue;
      for (unsigned M : Universe) {
        if (InSet(M))
          continue;
        if (Reach[A][M] && Reach[M][B])
          return false;
      }
    }
  return true;
}

/// Minimum estimated cycles for a subgraph to be pipelined further;
/// lighter subgraphs coalesce into a single task (the paper's SCCmin
/// aggregation heuristic).
constexpr double SccMinWeight = 40.0;

/// Recursive partitioning: extract the heaviest mergeable parallel set,
/// split the rest into predecessor/successor subgraphs, recurse.
void partitionRec(const PDG &P, const std::vector<std::vector<bool>> &Reach,
                  std::vector<unsigned> Subgraph, std::vector<TaskPlan> &Out) {
  if (Subgraph.empty())
    return;
  const auto &Sccs = P.sccs();

  double Total = 0;
  std::vector<unsigned> Parallel;
  for (unsigned S : Subgraph) {
    Total += Sccs[S].Weight;
    if (!Sccs[S].Sequential)
      Parallel.push_back(S);
  }

  auto MakeSingleTask = [&](bool Par) {
    TaskPlan T;
    T.Sccs = Subgraph;
    T.Parallel = Par;
    T.Weight = Total;
    for (unsigned S : Subgraph)
      for (unsigned I : Sccs[S].InstIds)
        T.InstIds.push_back(I);
    std::sort(T.InstIds.begin(), T.InstIds.end());
    Out.push_back(std::move(T));
  };

  // Too light to pipeline further, or nothing parallel: one task. It may
  // itself be parallel if every member SCC is.
  if (Parallel.empty() || Total < SccMinWeight) {
    MakeSingleTask(Parallel.size() == Subgraph.size());
    return;
  }

  // Greedy: seed with the heaviest parallel SCC, grow while mergeable.
  std::sort(Parallel.begin(), Parallel.end(), [&](unsigned A, unsigned B) {
    return Sccs[A].Weight > Sccs[B].Weight;
  });
  std::vector<unsigned> Merged = {Parallel[0]};
  for (std::size_t I = 1; I < Parallel.size(); ++I) {
    std::vector<unsigned> Trial = Merged;
    Trial.push_back(Parallel[I]);
    if (mergeable(Trial, Subgraph, Reach))
      Merged = std::move(Trial);
  }
  auto InMerged = [&](unsigned X) {
    return std::find(Merged.begin(), Merged.end(), X) != Merged.end();
  };

  // Split the rest into predecessors, successors, and free nodes.
  std::vector<unsigned> Preds, Succs;
  double PredW = 0, SuccW = 0;
  std::vector<unsigned> Free;
  for (unsigned S : Subgraph) {
    if (InMerged(S))
      continue;
    bool ToMerged = false, FromMerged = false;
    for (unsigned M : Merged) {
      ToMerged |= Reach[S][M];
      FromMerged |= Reach[M][S];
    }
    assert(!(ToMerged && FromMerged) && "cycle through the merged task");
    if (ToMerged) {
      Preds.push_back(S);
      PredW += Sccs[S].Weight;
    } else if (FromMerged) {
      Succs.push_back(S);
      SuccW += Sccs[S].Weight;
    } else {
      Free.push_back(S);
    }
  }
  // Balance free nodes by weight (Section 4.3.2).
  for (unsigned S : Free) {
    if (PredW <= SuccW) {
      Preds.push_back(S);
      PredW += Sccs[S].Weight;
    } else {
      Succs.push_back(S);
      SuccW += Sccs[S].Weight;
    }
  }
  std::sort(Preds.begin(), Preds.end());
  std::sort(Succs.begin(), Succs.end());

  partitionRec(P, Reach, std::move(Preds), Out);
  {
    TaskPlan T;
    T.Sccs = Merged;
    std::sort(T.Sccs.begin(), T.Sccs.end());
    T.Parallel = true;
    for (unsigned S : T.Sccs) {
      T.Weight += Sccs[S].Weight;
      for (unsigned I : Sccs[S].InstIds)
        T.InstIds.push_back(I);
    }
    std::sort(T.InstIds.begin(), T.InstIds.end());
    Out.push_back(std::move(T));
  }
  partitionRec(P, Reach, std::move(Succs), Out);
}

} // namespace

PartitionPlan parcae::ir::psdswpPartition(const PDG &P) {
  PartitionPlan Plan;
  Plan.S = rt::Scheme::PsDswp;
  std::vector<unsigned> All(P.sccs().size());
  for (unsigned I = 0; I < All.size(); ++I)
    All[I] = I;
  auto Reach = reachability(P);
  partitionRec(P, Reach, std::move(All), Plan.Tasks);
  return Plan;
}

bool parcae::ir::checkCoalescenceInvariant(const PDG &P,
                                           const PartitionPlan &Plan,
                                           std::string *Why) {
  auto Fail = [&](const std::string &Msg) {
    if (Why)
      *Why = Msg;
    return false;
  };

  // 1. Exactly-once assignment.
  std::map<unsigned, unsigned> TaskOf;
  for (unsigned T = 0; T < Plan.Tasks.size(); ++T)
    for (unsigned I : Plan.Tasks[T].InstIds) {
      if (!TaskOf.emplace(I, T).second)
        return Fail("instruction assigned to two tasks");
    }
  for (const Instruction *N : P.nodes())
    if (!TaskOf.count(N->Id))
      return Fail("instruction not assigned to any task");

  // 2. Dependencies flow forward.
  for (const PDGEdge &E : P.edges()) {
    if (E.removable())
      continue;
    unsigned A = TaskOf.at(E.From), B = TaskOf.at(E.To);
    if (A > B)
      return Fail("dependence flows backwards in the pipeline");
  }

  // 3. No through-outside chain between members of a parallel task.
  auto Reach = reachability(P);
  for (const TaskPlan &T : Plan.Tasks) {
    if (!T.Parallel)
      continue;
    std::vector<unsigned> Universe(P.sccs().size());
    for (unsigned I = 0; I < Universe.size(); ++I)
      Universe[I] = I;
    if (!mergeable(T.Sccs, Universe, Reach))
      return Fail("dependency chain escapes a parallel task");
    for (unsigned S : T.Sccs)
      if (P.sccs()[S].Sequential)
        return Fail("sequential SCC inside a parallel task");
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Execution engine shared by all lowered variants
//===----------------------------------------------------------------------===//
//
// Everything the interpreter would look up by key is resolved to a dense
// index when the loop is lowered: values live in a register file indexed
// by ValueId, recurrences in a table indexed by instruction id, and join
// points in a table indexed by block id (DESIGN.md, "Nona execution
// engine").

namespace {

constexpr unsigned MaxSlots = 64;

struct ReductionState {
  RecurrenceInfo Info;
  std::int64_t Init = 0;
  std::vector<std::int64_t> Partials = std::vector<std::int64_t>(MaxSlots, 0);
  std::vector<char> Used = std::vector<char>(MaxSlots, 0);

  void apply(unsigned Slot, std::int64_t V) {
    assert(Slot < MaxSlots);
    if (!Used[Slot]) {
      Used[Slot] = 1;
      Partials[Slot] = V;
      return;
    }
    switch (Info.Kind) {
    case Opcode::Add:
      Partials[Slot] += V;
      break;
    case Opcode::Min:
      Partials[Slot] = std::min(Partials[Slot], V);
      break;
    case Opcode::Max:
      Partials[Slot] = std::max(Partials[Slot], V);
      break;
    default:
      assert(false && "unsupported reduction kind");
    }
  }

  std::int64_t merged() const {
    std::int64_t Acc = Init;
    for (unsigned S = 0; S < MaxSlots; ++S) {
      if (!Used[S])
        continue;
      switch (Info.Kind) {
      case Opcode::Add:
        Acc += Partials[S];
        break;
      case Opcode::Min:
        Acc = std::min(Acc, Partials[S]);
        break;
      case Opcode::Max:
        Acc = std::max(Acc, Partials[S]);
        break;
      default:
        assert(false && "unsupported reduction kind");
      }
    }
    return Acc;
  }

  void reset() {
    Partials.assign(MaxSlots, 0);
    Used.assign(MaxSlots, 0);
  }
};

/// How the interpreter treats one instruction.
enum class InstKind : std::uint8_t {
  Plain,           ///< evaluated by the task that owns it
  InductionPhi,    ///< recomputed by every task from the iteration index
  ReductionPhi,    ///< its value lives in the privatized partials
  CarriedPhi,      ///< any other header phi: the previous iteration's value
  ReductionUpdate, ///< accumulated into the privatized partials
};

/// Recurrence data of one instruction.
struct InstInfo {
  InstKind Kind = InstKind::Plain;
  /// Induction phis: the step value; reduction updates: the non-phi
  /// operand.
  ValueId Operand = NoValue;
  std::int64_t Init = 0;         ///< induction and carried phis
  std::int64_t Step = 0;         ///< induction phis
  std::int64_t Carried = 0;      ///< carried phis: the last committed value
  bool HasCarried = false;       ///< carried phis: committed since seedState
  ReductionState *Red = nullptr; ///< reduction phis and updates
};

/// Shared execution state of one compiled loop (persists across scheme
/// switches, exactly like the program's heap does in the real system).
struct ExecState {
  const Function &F;
  Memory Mem;
  double WorkScale = 1.0;

  std::deque<ReductionState> Reductions; ///< stable: InstInfo::Red points in
  std::vector<InstInfo> Insts;            ///< by instruction id
  /// Immediate post-dominator of each loop block, by block id (null for
  /// other blocks): where a task that cannot evaluate a branch resumes.
  std::vector<const BasicBlock *> IPDomInLoop;
  /// The register file every iteration starts from: the preheader's
  /// values (the body of Tinit), by ValueId.
  std::vector<std::int64_t> LiveIns;
  std::vector<char> LiveInDefined;

  explicit ExecState(const Function &F) : F(F) {}
  ExecState(const ExecState &) = delete;
  ExecState &operator=(const ExecState &) = delete;
};

/// Per-task lowering data captured by the task's functor, plus the task's
/// scratch register file. One TaskLower serves every instance of its task
/// (all DOANY workers, say). Sharing the scratch state is safe because the
/// simulator is single-threaded and a functor always runs to completion
/// before another starts, so no two iterations ever use it at once.
struct TaskLower {
  std::shared_ptr<ExecState> St;
  bool IsHead = false;
  std::vector<char> Owned;                    ///< by instruction id
  std::vector<std::vector<ValueId>> InVals;   ///< per in-link payload
  std::vector<std::vector<ValueId>> OutVals;  ///< per out-link payload

  // Scratch, overwritten by every iteration.
  std::vector<std::int64_t> Regs; ///< by ValueId
  std::vector<char> Defined;      ///< by ValueId: Regs holds a value
  std::vector<std::int64_t> Args; ///< operands of the current Call

  TaskLower(std::shared_ptr<ExecState> S, bool IsHead, bool OwnsAll)
      : St(std::move(S)), IsHead(IsHead),
        Owned(St->F.numInsts(), OwnsAll ? 1 : 0),
        Regs(St->F.numValues(), 0), Defined(St->F.numValues(), 0) {}
};

/// Executes iteration Ctx.Seq of this task's slice; fills cost, critical
/// sections, output payloads, and the end-of-stream flag.
void runIteration(TaskLower &T, rt::IterationContext &Ctx) {
  ExecState &St = *T.St;
  const Loop &L = St.F.TheLoop;
  T.Regs = St.LiveIns;
  T.Defined = St.LiveInDefined;

  auto Get = [&T](ValueId V) {
    assert(T.Defined[V] && "value not available in this task");
    return T.Regs[V];
  };
  auto Set = [&T](ValueId V, std::int64_t X) {
    T.Regs[V] = X;
    T.Defined[V] = 1;
  };

  // Ingest payloads (head tasks receive the raw work token instead).
  if (!T.IsHead) {
    assert(Ctx.In.size() == T.InVals.size() && "in-link payload mismatch");
    for (std::size_t I = 0; I < Ctx.In.size(); ++I) {
      const auto *Vals =
          static_cast<const std::vector<std::int64_t> *>(Ctx.In[I].Ref.get());
      assert(Vals && Vals->size() == T.InVals[I].size());
      for (std::size_t J = 0; J < T.InVals[I].size(); ++J)
        Set(T.InVals[I][J], (*Vals)[J]);
    }
  }

  auto Mine = [&T](const Instruction &I) { return T.Owned[I.Id] != 0; };

  // One critical section per lock, in ascending lock-id order: the order
  // in which the worker replays them.
  const std::size_t FirstCrit = Ctx.Criticals.size();
  auto Critical = [&Ctx, FirstCrit](int Lock, sim::SimTime Cycles) {
    auto It = std::lower_bound(
        Ctx.Criticals.begin() + static_cast<std::ptrdiff_t>(FirstCrit),
        Ctx.Criticals.end(), Lock,
        [](const rt::CriticalSection &C, int L) { return C.LockId < L; });
    if (It != Ctx.Criticals.end() && It->LockId == Lock)
      It->Cycles += Cycles;
    else
      Ctx.Criticals.insert(It, {Lock, Cycles});
  };

  std::int64_t Seq = static_cast<std::int64_t>(Ctx.Seq);
  sim::SimTime Cost = 0;
  bool ContinueCond = true;
  bool SawTailCond = false;

  const BasicBlock *B = L.Header;
  [[maybe_unused]] unsigned Guard = 0;
  while (true) {
    assert(++Guard < 100000 && "runaway iteration walk");
    for (const auto &IP : B->Insts) {
      const Instruction &I = *IP;
      if (I.isBranch())
        break;

      InstInfo &Info = St.Insts[I.Id];
      switch (Info.Kind) {
      case InstKind::InductionPhi:
        // Every task recomputes it locally from the iteration index (the
        // relaxed recurrence of Section 4.1).
        Set(I.Def, Info.Init + Info.Step * Seq);
        if (Mine(I))
          Cost += I.Latency;
        continue;
      case InstKind::ReductionPhi:
        continue;
      case InstKind::CarriedPhi:
        if (Mine(I)) {
          // Sequential task, iterations in order.
          assert((Ctx.Seq == 0 || Info.HasCarried) &&
                 "carried phi read before its first commit");
          Set(I.Def, Ctx.Seq == 0 ? Info.Init : Info.Carried);
          Cost += I.Latency;
        }
        continue;
      case InstKind::ReductionUpdate:
        if (Mine(I)) {
          Info.Red->apply(Ctx.Slot, Get(Info.Operand));
          Cost += I.Latency;
        }
        continue;
      case InstKind::Plain:
        break;
      }

      if (!Mine(I))
        continue; // value arrives by payload if this task needs it

      switch (I.Op) {
      case Opcode::Const:
        Set(I.Def, I.Imm);
        break;
      case Opcode::Add:
        Set(I.Def, Get(I.Uses[0]) + Get(I.Uses[1]));
        break;
      case Opcode::Sub:
        Set(I.Def, Get(I.Uses[0]) - Get(I.Uses[1]));
        break;
      case Opcode::Mul:
        Set(I.Def, Get(I.Uses[0]) * Get(I.Uses[1]));
        break;
      case Opcode::Mod: {
        std::int64_t D = Get(I.Uses[1]);
        assert(D > 0 && "mod by non-positive divisor");
        Set(I.Def, Get(I.Uses[0]) % D);
        break;
      }
      case Opcode::Min:
        Set(I.Def, std::min(Get(I.Uses[0]), Get(I.Uses[1])));
        break;
      case Opcode::Max:
        Set(I.Def, std::max(Get(I.Uses[0]), Get(I.Uses[1])));
        break;
      case Opcode::CmpLt:
        Set(I.Def, Get(I.Uses[0]) < Get(I.Uses[1]) ? 1 : 0);
        break;
      case Opcode::Load: {
        std::int64_t Idx = I.Uses.empty() ? 0 : Get(I.Uses[0]);
        Set(I.Def, St.Mem.load(I.MemObject, Idx));
        if (I.Commutative)
          Critical(I.MemObject, I.Latency);
        else
          Cost += I.Latency;
        break;
      }
      case Opcode::Store: {
        std::int64_t Idx = I.Uses.size() < 2 ? 0 : Get(I.Uses[0]);
        std::int64_t V = Get(I.Uses.back());
        St.Mem.store(I.MemObject, Idx, V);
        if (I.Commutative)
          Critical(I.MemObject, I.Latency);
        else
          Cost += I.Latency;
        break;
      }
      case Opcode::Call: {
        T.Args.clear();
        for (ValueId U : I.Uses)
          T.Args.push_back(Get(U));
        Set(I.Def, evalCall(I, T.Args, St.Mem));
        auto Lat = static_cast<sim::SimTime>(
            static_cast<double>(I.Latency) * St.WorkScale);
        if (I.Commutative && I.MemObject >= 0)
          Critical(I.MemObject, Lat);
        else
          Cost += Lat;
        break;
      }
      case Opcode::Phi:
      case Opcode::Br:
      case Opcode::CondBr:
      case Opcode::Ret:
        assert(false && "terminators and phis handled elsewhere");
      }
    }

    const Instruction *Term = B->terminator();
    if (B == L.Tail) {
      if (Mine(*Term)) {
        ContinueCond = Get(Term->Uses[0]) != 0;
        SawTailCond = true;
        Cost += Term->Latency;
      }
      break;
    }
    if (Term->Op == Opcode::Br) {
      B = B->Succs[0];
      continue;
    }
    // In-loop conditional: follow it if the condition is available,
    // otherwise no instruction of this task lives inside the region —
    // jump straight to the join point.
    ValueId Cond = Term->Uses[0];
    if (T.Defined[Cond]) {
      if (Mine(*Term))
        Cost += Term->Latency;
      B = T.Regs[Cond] != 0 ? B->Succs[0] : B->Succs[1];
    } else {
      B = St.IPDomInLoop[B->Id];
      assert(B && "in-loop branch without a post-dominator");
    }
  }

  // Commit carried phis this task owns.
  for (const auto &IP : L.Header->Insts) {
    const Instruction &I = *IP;
    InstInfo &Info = St.Insts[I.Id];
    if (Info.Kind != InstKind::CarriedPhi || !Mine(I))
      continue;
    assert(T.Defined[I.Uses[1]] && "carried value not computed by its task");
    Info.Carried = T.Regs[I.Uses[1]];
    Info.HasCarried = true;
  }

  // Uncounted loops: the task owning the exit branch ends the stream.
  if (SawTailCond && T.IsHead && !ContinueCond)
    Ctx.EndOfStream = true;

  // Emit output payloads.
  assert(Ctx.Out.size() == T.OutVals.size() && "out-link payload mismatch");
  for (std::size_t K = 0; K < T.OutVals.size(); ++K) {
    auto Vals = std::make_shared<std::vector<std::int64_t>>();
    Vals->reserve(T.OutVals[K].size());
    // Values defined on untaken paths are never read downstream.
    for (ValueId V : T.OutVals[K])
      Vals->push_back(T.Defined[V] ? T.Regs[V] : 0);
    Ctx.Out[K].Ref = std::move(Vals);
  }

  Ctx.Cost = Cost;
}

/// Evaluates the preheader once (the body of Tinit) into the live-in
/// register image, and seeds recurrence/carried-phi initial values.
void seedState(ExecState &St) {
  const Loop &L = St.F.TheLoop;
  std::fill(St.LiveIns.begin(), St.LiveIns.end(), 0);
  std::fill(St.LiveInDefined.begin(), St.LiveInDefined.end(), 0);
  auto Get = [&St](ValueId V) {
    assert(St.LiveInDefined[V] && "value is not a loop live-in");
    return St.LiveIns[V];
  };
  auto Set = [&St](ValueId V, std::int64_t X) {
    St.LiveIns[V] = X;
    St.LiveInDefined[V] = 1;
  };
  if (L.Preheader) {
    for (const auto &IP : L.Preheader->Insts) {
      const Instruction &I = *IP;
      switch (I.Op) {
      case Opcode::Const:
        Set(I.Def, I.Imm);
        break;
      case Opcode::Add:
        Set(I.Def, Get(I.Uses[0]) + Get(I.Uses[1]));
        break;
      case Opcode::Load: {
        std::int64_t Idx = I.Uses.empty() ? 0 : Get(I.Uses[0]);
        Set(I.Def, St.Mem.load(I.MemObject, Idx));
        break;
      }
      case Opcode::Br:
        break;
      default:
        assert(false && "unsupported preheader instruction");
      }
    }
  }

  for (ReductionState &Red : St.Reductions)
    Red.reset();
  for (const auto &IP : L.Header->Insts) {
    const Instruction &I = *IP;
    if (!I.isPhi())
      continue;
    std::int64_t Init = Get(I.Uses[0]);
    InstInfo &Info = St.Insts[I.Id];
    switch (Info.Kind) {
    case InstKind::InductionPhi:
      Info.Init = Init;
      Info.Step = Get(Info.Operand);
      break;
    case InstKind::ReductionPhi:
      Info.Red->Init = Init;
      break;
    case InstKind::CarriedPhi:
      Info.Init = Init;
      Info.HasCarried = false;
      break;
    case InstKind::Plain:
    case InstKind::ReductionUpdate:
      assert(false && "header phi without a recurrence kind");
    }
  }
}

/// The one construction path of a loop's execution state, shared by the
/// lowered variants and the reference interpreter: the per-instruction
/// recurrence table, the in-loop post-dominators, and the live-in image.
std::shared_ptr<ExecState> makeExecState(const Function &F, const PDG &P) {
  auto St = std::make_shared<ExecState>(F);
  St->Insts.resize(F.numInsts());
  for (const RecurrenceInfo &R : P.recurrences()) {
    InstInfo &Phi = St->Insts[R.PhiId];
    if (R.IsInduction) {
      Phi.Kind = InstKind::InductionPhi;
      Phi.Operand = R.StepValue;
      continue;
    }
    ReductionState &Red = St->Reductions.emplace_back();
    Red.Info = R;
    Phi.Kind = InstKind::ReductionPhi;
    Phi.Red = &Red;
    InstInfo &Upd = St->Insts[R.UpdateId];
    Upd.Kind = InstKind::ReductionUpdate;
    Upd.Red = &Red;
    const Instruction *UpdI = F.instById(R.UpdateId);
    ValueId PhiDef = F.instById(R.PhiId)->Def;
    Upd.Operand = UpdI->Uses[0] == PhiDef ? UpdI->Uses[1] : UpdI->Uses[0];
  }
  for (const auto &IP : F.TheLoop.Header->Insts)
    if (IP->isPhi() && St->Insts[IP->Id].Kind == InstKind::Plain)
      St->Insts[IP->Id].Kind = InstKind::CarriedPhi;

  // Intra-loop immediate post-dominators for path skipping.
  const BasicBlock *Sink = nullptr;
  for (const auto &B : F.blocks())
    if (B->Succs.empty())
      Sink = B.get();
  PostDominators PD(F, Sink);
  St->IPDomInLoop.assign(F.blocks().size(), nullptr);
  for (const BasicBlock *B : F.TheLoop.Blocks)
    St->IPDomInLoop[B->Id] = PD.ipdom(B);

  St->LiveIns.assign(F.numValues(), 0);
  St->LiveInDefined.assign(F.numValues(), 0);
  seedState(*St);
  return St;
}

} // namespace

//===----------------------------------------------------------------------===//
// CompiledLoop
//===----------------------------------------------------------------------===//

struct CompiledLoop::Impl {
  std::shared_ptr<ExecState> St;
  std::vector<std::shared_ptr<TaskLower>> Lowerings;
  std::string Report;
};

CompiledLoop::CompiledLoop(const Function &F, AliasOracle AA,
                           std::uint64_t TripCount)
    : I(std::make_unique<Impl>()), F(F), Region(F.name()),
      TripCount(TripCount) {
  F.verify();
  P = std::make_unique<PDG>(F, AA);

  auto St = makeExecState(F, *P);
  I->St = St;

  std::string &Rep = I->Report;
  Rep = "Nona compilation of '" + F.name() + "'\n";
  Rep += "  PDG: " + std::to_string(P->nodes().size()) + " nodes, " +
         std::to_string(P->edges().size()) + " edges, " +
         std::to_string(P->sccs().size()) + " SCCs, " +
         std::to_string(P->inhibitors().size()) +
         " non-removable carried deps\n";

  auto MakeVariantTask = [&](std::shared_ptr<TaskLower> TL, std::string Name,
                             rt::TaskType Type) {
    rt::Task T(std::move(Name), Type,
               [TL](rt::IterationContext &Ctx) { runIteration(*TL, Ctx); });
    return T;
  };

  // --- SEQ variant (always) -------------------------------------------
  {
    auto TL = std::make_shared<TaskLower>(St, /*IsHead=*/true,
                                          /*OwnsAll=*/true);
    I->Lowerings.push_back(TL);
    rt::RegionDesc D;
    D.Name = F.name() + "-seq";
    D.S = rt::Scheme::Seq;
    D.Tasks.push_back(MakeVariantTask(TL, "loop", rt::TaskType::Seq));
    Region.addVariant(std::move(D));
    Rep += "  SEQ: 1 task\n";
  }

  // --- DOANY variant (Section 4.3.1) ----------------------------------
  if (P->inhibitors().empty()) {
    auto TL = std::make_shared<TaskLower>(St, /*IsHead=*/true,
                                          /*OwnsAll=*/true);
    I->Lowerings.push_back(TL);
    rt::RegionDesc D;
    D.Name = F.name() + "-doany";
    D.S = rt::Scheme::DoAny;
    D.Tasks.push_back(MakeVariantTask(TL, "doany", rt::TaskType::Par));
    Region.addVariant(std::move(D));
    Rep += "  DOANY: applicable\n";
  } else {
    Rep += "  DOANY: rejected (" +
           std::to_string(P->inhibitors().size()) +
           " inhibiting dependencies)\n";
  }

  // --- PS-DSWP variant (Sections 4.3.2-4.5) ---------------------------
  PartitionPlan Plan = psdswpPartition(*P);
  std::string Why;
  bool Valid = checkCoalescenceInvariant(*P, Plan, &Why);
  assert(Valid && "partitioner violated Invariant 4.3.1");
  (void)Valid;
  bool AnyParallel = false;
  for (const TaskPlan &T : Plan.Tasks)
    AnyParallel |= T.Parallel;
  if (Plan.Tasks.size() >= 2 && AnyParallel) {
    // Task of each instruction.
    std::map<unsigned, unsigned> TaskOf;
    for (unsigned T = 0; T < Plan.Tasks.size(); ++T)
      for (unsigned Id : Plan.Tasks[T].InstIds)
        TaskOf[Id] = T;

    // Cross-task links and payloads (MTCG, Section 4.4: one
    // point-to-point channel set per communicating task pair).
    std::map<std::pair<unsigned, unsigned>, std::vector<ValueId>> LinkVals;
    for (const PDGEdge &E : P->edges()) {
      if (E.removable())
        continue;
      unsigned A = TaskOf.at(E.From), B = TaskOf.at(E.To);
      if (A == B)
        continue;
      assert(A < B && "pipeline order violated");
      auto &Vals = LinkVals[{A, B}];
      const Instruction *From = F.instById(E.From);
      ValueId V = NoValue;
      if (E.Kind == DepKind::Reg) {
        // Induction-phi values are recomputed locally, never sent.
        if (St->Insts[From->Id].Kind != InstKind::InductionPhi)
          V = From->Def;
      } else if (E.Kind == DepKind::Control) {
        V = From->Uses.empty() ? NoValue : From->Uses[0];
      } // Mem edges synchronize through the channel itself.
      if (V != NoValue &&
          std::find(Vals.begin(), Vals.end(), V) == Vals.end())
        Vals.push_back(V);
    }

    rt::RegionDesc D;
    D.Name = F.name() + "-psdswp";
    D.S = rt::Scheme::PsDswp;
    std::vector<std::shared_ptr<TaskLower>> TLs;
    for (unsigned T = 0; T < Plan.Tasks.size(); ++T) {
      auto TL = std::make_shared<TaskLower>(St, /*IsHead=*/T == 0,
                                            /*OwnsAll=*/false);
      for (unsigned Id : Plan.Tasks[T].InstIds)
        TL->Owned[Id] = 1;
      I->Lowerings.push_back(TL);
      TLs.push_back(TL);
      D.Tasks.push_back(MakeVariantTask(
          TL, "stage" + std::to_string(T),
          Plan.Tasks[T].Parallel ? rt::TaskType::Par : rt::TaskType::Seq));
    }
    for (auto &[Pair, Vals] : LinkVals) {
      std::sort(Vals.begin(), Vals.end());
      D.Links.push_back({Pair.first, Pair.second});
      TLs[Pair.first]->OutVals.push_back(Vals);
      TLs[Pair.second]->InVals.push_back(Vals);
    }
    Rep += "  PS-DSWP: " + std::to_string(Plan.Tasks.size()) + " stages (";
    for (unsigned T = 0; T < Plan.Tasks.size(); ++T)
      Rep += std::string(Plan.Tasks[T].Parallel ? "P" : "S");
    Rep += "), " + std::to_string(D.Links.size()) + " channels\n";
    Region.addVariant(std::move(D));
  } else {
    Rep += "  PS-DSWP: degenerate (no pipeline parallelism)\n";
  }
}

CompiledLoop::~CompiledLoop() = default;

std::unique_ptr<rt::CountedWorkSource> CompiledLoop::makeSource() const {
  return std::make_unique<rt::CountedWorkSource>(TripCount);
}

void CompiledLoop::resetState() {
  I->St->Mem.clear();
  seedState(*I->St);
}

Memory &CompiledLoop::memory() { return I->St->Mem; }

std::int64_t CompiledLoop::reductionValue(unsigned PhiId) const {
  const InstInfo &Info = I->St->Insts[PhiId];
  assert(Info.Kind == InstKind::ReductionPhi && "not a reduction phi");
  return Info.Red->merged();
}

void CompiledLoop::setWorkScale(double S) {
  assert(S > 0);
  I->St->WorkScale = S;
}

std::string CompiledLoop::report() const { return I->Report; }

Memory CompiledLoop::interpret(
    const Function &F, std::uint64_t TripCount,
    std::map<unsigned, std::int64_t> *ReductionsOut) {
  F.verify();
  AliasOracle AA; // conservative: fine for reference interpretation
  PDG P(F, AA);
  TaskLower TL(makeExecState(F, P), /*IsHead=*/true, /*OwnsAll=*/true);
  ExecState &St = *TL.St;

  rt::IterationContext Ctx;
  for (std::uint64_t Iter = 0; Iter < TripCount; ++Iter) {
    Ctx.Seq = Iter;
    Ctx.Criticals.clear();
    runIteration(TL, Ctx);
    if (Ctx.EndOfStream)
      break;
  }
  if (ReductionsOut) {
    ReductionsOut->clear();
    for (unsigned Id = 0; Id < St.Insts.size(); ++Id)
      if (St.Insts[Id].Kind == InstKind::ReductionPhi)
        (*ReductionsOut)[Id] = St.Insts[Id].Red->merged();
  }
  return std::move(St.Mem);
}
