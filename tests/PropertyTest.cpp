//===- PropertyTest.cpp - Parameterized property sweeps ----------------------===//
//
// Property-style invariants swept across configuration spaces with
// parameterized gtest:
//
//  * WidthSchedule ownership partitioning under random epoch histories;
//  * end-to-end order/loss/duplication freedom of pipeline execution
//    across (DoP, cores, reconfiguration cadence) combinations;
//  * semantic equivalence of every Nona benchmark under every exposed
//    scheme at several DoPs;
//  * machine conservation laws (busy-core time vs. work performed);
//  * machine schedules of random spawn/block/wake/gang mixes, pinned to
//    the per-quantum scheduler's results.
//
//===----------------------------------------------------------------------===//

#include "core/Region.h"
#include "core/WidthSchedule.h"
#include "core/WorkSource.h"
#include "morta/RegionExec.h"
#include "apps/LaneApps.h"
#include "nona/Programs.h"
#include "nona/Run.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <set>
#include <string>

using namespace parcae;
using namespace parcae::rt;
namespace ir = parcae::ir;

//===----------------------------------------------------------------------===//
// WidthSchedule partition property under random histories
//===----------------------------------------------------------------------===//

class WidthScheduleProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(WidthScheduleProperty, RandomEpochsPartitionIterationSpace) {
  Rng R(GetParam() * 7919 + 17);
  WidthSchedule S(1 + static_cast<unsigned>(R.nextBelow(8)));
  std::uint64_t Start = 0;
  for (int E = 0; E < 12; ++E) {
    Start += R.nextBelow(40);
    S.append(Start, 1 + static_cast<unsigned>(R.nextBelow(8)));
  }
  // Property 1: slotOf is consistent with widthAt.
  for (std::uint64_t I = 0; I < 400; ++I)
    EXPECT_EQ(S.slotOf(I), I % S.widthAt(I));
  // Property 2: the union of every slot's firstSeqFor-enumeration covers
  // each iteration exactly once.
  std::set<std::uint64_t> Seen;
  for (unsigned Slot = 0; Slot < 8; ++Slot) {
    std::uint64_t I = S.firstSeqFor(Slot, 0);
    while (I != NoSeq && I < 400) {
      EXPECT_TRUE(Seen.insert(I).second) << "duplicate owner for " << I;
      I = S.nextSeqFor(Slot, I);
    }
  }
  EXPECT_EQ(Seen.size(), 400u);
  // Property 3: epochs never change ownership of earlier iterations.
  std::vector<unsigned> Before;
  for (std::uint64_t I = 0; I < 400; ++I)
    Before.push_back(S.slotOf(I));
  S.append(Start + 100, 5);
  for (std::uint64_t I = 0; I < std::min<std::uint64_t>(400, Start + 100);
       ++I)
    EXPECT_EQ(S.slotOf(I), Before[I]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WidthScheduleProperty,
                         ::testing::Range(0u, 12u));

//===----------------------------------------------------------------------===//
// Pipeline order preservation across the configuration space
//===----------------------------------------------------------------------===//

struct PipeSweep {
  unsigned Cores;
  unsigned MidDoP;
  unsigned ReconfigEveryMs; // 0: no reconfigurations
};

class PipelineOrderProperty : public ::testing::TestWithParam<PipeSweep> {};

TEST_P(PipelineOrderProperty, NoLossNoDupNoReorder) {
  const PipeSweep P = GetParam();
  sim::Simulator Sim;
  sim::Machine M(Sim, P.Cores);
  RuntimeCosts Costs;
  CountedWorkSource Src(500);
  std::vector<std::int64_t> Tail;

  RegionDesc D;
  D.Name = "prop";
  D.S = Scheme::PsDswp;
  D.Tasks.emplace_back("src", TaskType::Seq, [](IterationContext &C) {
    C.Cost = 1500;
    C.Out[0].Value = static_cast<std::int64_t>(C.Seq) * 3 + 1;
  });
  D.Tasks.emplace_back("mid", TaskType::Par, [](IterationContext &C) {
    // Deterministically variable cost: stresses out-of-order production
    // into the ordered consumer.
    C.Cost = 8000 + (C.Seq % 7) * 4000;
    C.Out[0].Value = C.In[0].Value;
  });
  D.Tasks.emplace_back("sink", TaskType::Seq, [&Tail](IterationContext &C) {
    C.Cost = 1200;
    Tail.push_back(C.In[0].Value);
  });
  D.Links.push_back({0, 1});
  D.Links.push_back({1, 2});
  FlexibleRegion Region("prop");
  Region.addVariant(std::move(D));
  RegionRunner Runner(M, Costs, Region, Src);
  RegionConfig C;
  C.S = Scheme::PsDswp;
  C.DoP = {1, P.MidDoP, 1};
  Runner.start(C);

  if (P.ReconfigEveryMs > 0) {
    Rng R(P.Cores * 131 + P.MidDoP);
    for (int K = 1; K <= 20; ++K) {
      unsigned NewD = 1 + static_cast<unsigned>(R.nextBelow(P.Cores - 1));
      Sim.schedule(static_cast<sim::SimTime>(K) * P.ReconfigEveryMs *
                       sim::MSec,
                   [&Runner, NewD] {
                     RegionConfig N;
                     N.S = Scheme::PsDswp;
                     N.DoP = {1, NewD, 1};
                     Runner.reconfigure(std::move(N));
                   });
    }
  }
  Sim.run();
  EXPECT_TRUE(Runner.completed());
  ASSERT_EQ(Tail.size(), 500u) << "iterations lost or duplicated";
  for (std::int64_t I = 0; I < 500; ++I)
    ASSERT_EQ(Tail[static_cast<std::size_t>(I)], I * 3 + 1)
        << "reordered at " << I;
}

INSTANTIATE_TEST_SUITE_P(
    Space, PipelineOrderProperty,
    ::testing::Values(PipeSweep{2, 1, 0}, PipeSweep{4, 2, 0},
                      PipeSweep{8, 6, 0}, PipeSweep{16, 12, 0},
                      PipeSweep{4, 2, 1}, PipeSweep{8, 3, 1},
                      PipeSweep{8, 6, 2}, PipeSweep{16, 8, 1},
                      PipeSweep{16, 14, 3}, PipeSweep{6, 5, 1}));

//===----------------------------------------------------------------------===//
// Nona semantic equivalence across the (program, scheme, DoP) space
//===----------------------------------------------------------------------===//

struct SemSweep {
  int Program; // index into benchmarkSuite
  Scheme S;
  unsigned DoP;
};

class NonaSemanticsProperty : public ::testing::TestWithParam<SemSweep> {};

TEST_P(NonaSemanticsProperty, MatchesReference) {
  const SemSweep P = GetParam();
  auto Suite = ir::benchmarkSuite(250);
  ASSERT_LT(static_cast<std::size_t>(P.Program), Suite.size());

  ir::LoopProgram Ref = Suite[P.Program]();
  std::map<unsigned, std::int64_t> Reds;
  ir::Memory RefMem =
      ir::CompiledLoop::interpret(*Ref.F, Ref.TripCount, &Reds);

  ir::LoopProgram Prog = Suite[P.Program]();
  ir::CompiledLoop CL(*Prog.F, Prog.AA, Prog.TripCount);
  if (!CL.region().hasVariant(P.S))
    GTEST_SKIP() << "variant not exposed for this program";

  RegionConfig C;
  C.S = P.S;
  for (const Task &T : CL.region().variant(P.S).Tasks)
    C.DoP.push_back(T.isParallel() ? P.DoP : 1);
  ir::CompiledRunResult R = ir::runCompiled(CL, C, 16);
  EXPECT_TRUE(R.Completed);
  EXPECT_TRUE(CL.memory() == RefMem) << Prog.Name;
  for (unsigned Phi : Prog.ReductionPhis)
    EXPECT_EQ(CL.reductionValue(Phi), Reds.at(Phi)) << Prog.Name;
}

INSTANTIATE_TEST_SUITE_P(
    Space, NonaSemanticsProperty,
    ::testing::Values(
        SemSweep{0, Scheme::DoAny, 3}, SemSweep{0, Scheme::DoAny, 13},
        SemSweep{1, Scheme::DoAny, 5}, SemSweep{1, Scheme::PsDswp, 3},
        SemSweep{2, Scheme::DoAny, 8}, SemSweep{2, Scheme::PsDswp, 5},
        SemSweep{3, Scheme::DoAny, 10}, SemSweep{4, Scheme::PsDswp, 2},
        SemSweep{4, Scheme::PsDswp, 9}, SemSweep{5, Scheme::DoAny, 6},
        SemSweep{5, Scheme::PsDswp, 4}, SemSweep{6, Scheme::PsDswp, 1},
        SemSweep{7, Scheme::DoAny, 11}, SemSweep{8, Scheme::PsDswp, 6}));

//===----------------------------------------------------------------------===//
// Machine conservation laws
//===----------------------------------------------------------------------===//

class MachineConservation : public ::testing::TestWithParam<unsigned> {};

namespace {
class FixedWork : public sim::ThreadBody {
public:
  FixedWork(int Bursts, sim::SimTime Cycles)
      : Remaining(Bursts), Cycles(Cycles) {}
  sim::Action resume(sim::Machine &, sim::SimThread &) override {
    if (Remaining-- > 0)
      return sim::Action::compute(Cycles);
    return sim::Action::finish();
  }
  int Remaining;
  sim::SimTime Cycles;
};
} // namespace

TEST_P(MachineConservation, BusyTimeEqualsWorkDone) {
  unsigned Threads = GetParam();
  sim::Simulator Sim;
  sim::Machine M(Sim, 4);
  sim::SimTime TotalWork = 0;
  for (unsigned T = 0; T < Threads; ++T) {
    int Bursts = 3 + static_cast<int>(T % 4);
    sim::SimTime Cycles = 1000 * (T + 1);
    TotalWork += static_cast<sim::SimTime>(Bursts) * Cycles;
    M.spawn("w", std::make_unique<FixedWork>(Bursts, Cycles));
  }
  Sim.run();
  // Work conservation: busy-core time >= pure work; the excess is only
  // scheduler overhead (context switches).
  EXPECT_GE(M.busyCoreTime(), TotalWork);
  EXPECT_LE(M.busyCoreTime(), TotalWork + Threads * 64 * sim::USec);
  // Makespan bounds: no faster than perfectly parallel, no slower than
  // fully serial (+ overheads).
  EXPECT_GE(Sim.now(), TotalWork / 4);
  EXPECT_LE(Sim.now(), TotalWork + Threads * 64 * sim::USec);
  EXPECT_EQ(M.threadsAlive(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, MachineConservation,
                         ::testing::Values(1u, 2u, 3u, 4u, 6u, 9u, 16u));

//===----------------------------------------------------------------------===//
// Inner-scalability model sanity across all lane applications
//===----------------------------------------------------------------------===//

namespace {
/// Parameter wrapper that prints as the application's name, so each
/// instance is listed under a stable name rather than under the address of
/// the parameter function, which changes from build to build.
struct LaneApp {
  LaneAppParams (*Make)();
  friend void PrintTo(const LaneApp &A, std::ostream *OS) {
    *OS << A.Make().Name;
  }
};
} // namespace

class ScalabilityProperty : public ::testing::TestWithParam<LaneApp> {};

TEST_P(ScalabilityProperty, CurveIsSane) {
  LaneAppParams P = GetParam().Make();
  const InnerScalability &S = P.Scal;
  EXPECT_DOUBLE_EQ(S.speedup(1), 1.0);
  for (unsigned L = 1; L <= 32; ++L) {
    EXPECT_GT(S.speedup(L), 0.0);
    EXPECT_LE(S.speedup(L), static_cast<double>(L))
        << P.Name << ": superlinear speedup at " << L;
  }
  EXPECT_GE(S.dPmax(), 1u);
  EXPECT_GE(S.dPmin(), 1u);
  EXPECT_LE(S.dPmin(), S.dPmax() + 1);
}

INSTANTIATE_TEST_SUITE_P(Apps, ScalabilityProperty,
                         ::testing::Values(LaneApp{&x264Params},
                                           LaneApp{&swaptionsParams},
                                           LaneApp{&bzipParams},
                                           LaneApp{&oilifyParams}));

//===----------------------------------------------------------------------===//
// Pinned machine schedules under random spawn/block/wake/gang mixes
//===----------------------------------------------------------------------===//

namespace {
/// One randomized machine world: threads scripted from a seeded RNG run
/// sub-quantum, multi-quantum and exact-quantum-multiple computes, gang
/// computes, block on shared gates and notify them; timers spawn more
/// threads and notify gates at times on a 1 ms grid (plus switch-cost
/// offsets), so wakes land exactly on quantum boundaries as well as
/// inside quanta.
struct MixWorld {
  sim::Simulator Sim;
  sim::Machine M;
  std::array<sim::Waitable, 3> Gates;
  std::vector<sim::SimTime> Finish;
  unsigned Live = 0;
  MixWorld(unsigned Cores) : M(Sim, Cores) {}
};

/// A grid-aligned delay: whole milliseconds plus 0, 1 or 2 switch costs.
sim::SimTime gridDelay(Rng &R, unsigned MaxMs) {
  return static_cast<sim::SimTime>(1 + R.nextBelow(MaxMs)) * sim::MSec +
         static_cast<sim::SimTime>(R.nextBelow(3)) * 5 * sim::USec;
}

class MixBody : public sim::ThreadBody {
public:
  MixBody(MixWorld &W, std::uint64_t Seed, unsigned Id, unsigned Cores)
      : W(W), R(Seed), Id(Id), Cores(Cores),
        Steps(40 + static_cast<int>(R.nextBelow(80))) {}
  sim::Action resume(sim::Machine &M, sim::SimThread &) override {
    if (Steps-- <= 0) {
      W.Finish[Id] = M.sim().now();
      --W.Live;
      return sim::Action::finish();
    }
    const sim::SimTime Q = 4 * sim::MSec;
    std::uint64_t K = R.nextBelow(100);
    if (K < 20) // sub-quantum
      return sim::Action::compute(
          static_cast<sim::SimTime>(1 + R.nextBelow(Q - 1)));
    if (K < 45) // several quanta plus a remainder
      return sim::Action::compute(
          static_cast<sim::SimTime>(1 + R.nextBelow(12)) * Q +
          static_cast<sim::SimTime>(R.nextBelow(Q)));
    if (K < 57) // an exact quantum multiple
      return sim::Action::compute(
          static_cast<sim::SimTime>(1 + R.nextBelow(10)) * Q);
    if (K < 65 && Cores > 1)
      return sim::Action::gangCompute(
          2 + static_cast<unsigned>(R.nextBelow(Cores - 1)),
          static_cast<sim::SimTime>(1 + R.nextBelow(3)) * Q +
              static_cast<sim::SimTime>(R.nextBelow(Q)));
    if (K < 90)
      return sim::Action::block(W.Gates[R.nextBelow(W.Gates.size())]);
    sim::Waitable &G = W.Gates[R.nextBelow(W.Gates.size())];
    if (R.nextBelow(2))
      G.notifyAll();
    else
      G.notifyOne();
    return sim::Action::compute(static_cast<sim::SimTime>(
        (1 + R.nextBelow(20)) * 50 * sim::USec));
  }

private:
  MixWorld &W;
  Rng R;
  unsigned Id;
  unsigned Cores;
  int Steps;
};

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t H = 1469598103934665603ull;
  void add(std::uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 1099511628211ull;
    }
  }
};

/// Runs one world and digests every thread's finish time, the final clock
/// and the machine's slice and context-switch counts.
std::uint64_t runMix(std::uint64_t Seed, unsigned Cores) {
  MixWorld W(Cores);
  Rng R(Seed * 1000003 + Cores);
  unsigned Next = 0;
  auto Spawn = [&](std::uint64_t BodySeed) {
    unsigned Id = Next++;
    W.Finish.push_back(0);
    ++W.Live;
    W.M.spawn("mix" + std::to_string(Id),
              std::make_unique<MixBody>(W, BodySeed, Id, Cores));
  };
  // Up to one thread more than cores: slices both contend and run
  // uncontended for many quanta.
  unsigned Initial = 1 + static_cast<unsigned>(R.nextBelow(Cores + 1));
  for (unsigned I = 0; I < Initial; ++I)
    Spawn(R.next());
  unsigned Late = static_cast<unsigned>(R.nextBelow(7));
  unsigned Total = Initial + Late;
  for (unsigned I = 0; I < Late; ++I) {
    std::uint64_t BodySeed = R.next();
    W.Sim.schedule(gridDelay(R, 400), [&, BodySeed] { Spawn(BodySeed); });
  }
  for (unsigned I = 0; I < 120; ++I) {
    std::size_t G = R.nextBelow(W.Gates.size());
    bool All = R.nextBelow(2) != 0;
    W.Sim.schedule(gridDelay(R, 1200), [&W, G, All] {
      if (All)
        W.Gates[G].notifyAll();
      else
        W.Gates[G].notifyOne();
    });
  }
  // A sweeper keeps every gate live until all threads have finished, so a
  // thread that blocks after the last random notification still ends.
  std::function<void()> Sweep = [&] {
    for (sim::Waitable &G : W.Gates)
      G.notifyAll();
    if (W.Live > 0 || Next < Total)
      W.Sim.schedule(7 * sim::MSec, Sweep);
  };
  W.Sim.schedule(7 * sim::MSec, Sweep);
  W.Sim.run();
  EXPECT_EQ(W.M.threadsAlive(), 0u);
  Digest D;
  for (sim::SimTime F : W.Finish)
    D.add(F);
  D.add(W.Sim.now());
  D.add(W.M.counts().Slices);
  D.add(W.M.counts().CtxSwitches);
  return D.H;
}
} // namespace

class PinnedScheduleProperty : public ::testing::TestWithParam<unsigned> {};

/// Every thread's finish time and the slice/switch counts are pinned to
/// the values the per-quantum scheduler produced (one table row per seed,
/// one column per core count 1..6): quantum coalescing must reproduce the
/// per-quantum schedule exactly, ties at quantum boundaries included.
TEST_P(PinnedScheduleProperty, MatchesPerQuantumSchedule) {
  static const std::uint64_t Pinned[3][6] = {
      {7706306163628915601ull, 16507681033498873728ull,
       18358118897176029192ull, 7567694013698940442ull,
       13429736303873524762ull, 17868154327530420377ull},
      {3042679271217680068ull, 15491025106431362714ull,
       199558957142858738ull, 10795582804686059214ull,
       17473062417505809387ull, 15397541691660489509ull},
      {670173379272738743ull, 16027523271865138485ull,
       15307793658273743307ull, 8835421040402462655ull,
       16489886459413107814ull, 6590157984263914389ull},
  };
  unsigned SeedIdx = GetParam();
  for (unsigned Cores = 1; Cores <= 6; ++Cores)
    EXPECT_EQ(runMix(SeedIdx + 1, Cores), Pinned[SeedIdx][Cores - 1])
        << "seed " << SeedIdx + 1 << ", " << Cores << " cores";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PinnedScheduleProperty,
                         ::testing::Values(0u, 1u, 2u));
