//===- Nona.cpp - The nona workload: the Section 8.3 suite ----------------===//
//
// Part of the Parcae reproduction's whole-stack benchmark.
//
// All nine Nona programs, compiled, each run on 16 cores under SEQ,
// DOANY and PS-DSWP at several DoPs, under a seeded schedule of forced
// reconfigurations, and under the Chapter 6 controller on a longer input;
// plus the Fig 8.9 two-program PlatformDaemon run. Every completed run's
// memory and reductions are checked against CompiledLoop::interpret. Each
// iteration's task functor interprets IR, so the interpreter,
// reconfiguration and the controller dominate host time.
//
// Known defect kept in on purpose: dualpipe under the controller stalls
// after an in-place DoP move and never retires again; only controller
// ticks fire until the run's virtual-time bound. It counts as a failed
// operation here; it is never skipped, resized or re-seeded away.
//
// The compositions mirror nona/Run.cpp; the warm-up pass cross-checks one
// controller run against runControlled.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "morta/Controller.h"
#include "morta/Platform.h"
#include "nona/Programs.h"
#include "nona/Run.h"

#include <algorithm>
#include <functional>
#include <memory>

using namespace parcae;
using namespace parcae::ir;
using namespace parcae::rt;

namespace wsbench {
namespace {

constexpr unsigned Cores = 16;
constexpr unsigned PlatformCores = 24;
const unsigned DoPs[] = {2, 6, 14};
/// SEQ runs have no earlier run to scale from; the slowest SEQ run at
/// these sizes takes about 0.3 s of virtual time.
constexpr sim::SimTime SeqBound = 5 * sim::Sec;
/// Every other run may take this many times its program's SEQ makespan.
constexpr sim::SimTime BoundFactor = 10;

/// A program compiled once per pass with its reference result.
struct Compiled {
  LoopProgram Prog;
  std::unique_ptr<CompiledLoop> CL;
  Memory RefMem;
  std::map<unsigned, std::int64_t> RefReds;
};

std::unique_ptr<Compiled> compile(Pass &P,
                                  const std::function<LoopProgram()> &Make,
                                  double &CompileSec) {
  auto C = std::make_unique<Compiled>();
  double Sec = 0; // of the last call: set-up may run more than once
  P.setup([&] {
    C->CL.reset(); // compiled from the program about to be replaced
    C->Prog = Make();
    std::int64_t T0 = nowNs();
    C->CL = std::make_unique<CompiledLoop>(*C->Prog.F, C->Prog.AA,
                                           C->Prog.TripCount);
    Sec = static_cast<double>(nowNs() - T0) * 1e-9;
    C->RefMem =
        CompiledLoop::interpret(*C->Prog.F, C->Prog.TripCount, &C->RefReds);
  });
  CompileSec += Sec;
  return C;
}

/// Checks a finished run's memory and reductions against the reference.
std::string checkAgainstRef(Compiled &C) {
  if (!(C.CL->memory() == C.RefMem))
    return "memory differs from CompiledLoop::interpret";
  for (unsigned Phi : C.Prog.ReductionPhis)
    if (C.CL->reductionValue(Phi) != C.RefReds.at(Phi))
      return "reduction differs from CompiledLoop::interpret";
  return "";
}

/// How one run drives its region after construction.
enum class Drive { Fixed, Chaotic, Controlled };

struct RunOut {
  bool Done = false;
  std::string Wrong;
  sim::SimTime End = 0;    ///< clock after the run (last event when drained)
  sim::SimTime DoneAt = 0; ///< region completion time
  sim::SimTime Bound = 0;  ///< the virtual-time bound it ran under
  std::uint64_t Retired = 0;
  RegionConfig Final;
  std::vector<RegionController::TraceEntry> Trace;
};

/// One Nona run on its own simulator, as nona/Run.cpp composes it.
RunOut runOne(Pass &P, Compiled &C, Drive D, RegionConfig Fixed,
              std::uint64_t Seed, sim::SimTime Bound) {
  struct Op {
    sim::Simulator Sim;
    sim::Machine M;
    RuntimeCosts Costs;
    std::unique_ptr<CountedWorkSource> Src;
    std::unique_ptr<ProbedSource> Probed;
    FlexibleRegion Wrapped;
    std::unique_ptr<RegionRunner> Runner;
    std::unique_ptr<RegionController> Ctrl;
    sim::SimTime DoneAt = 0;
    Op(CompiledLoop &CL, Probe *Pr)
        : M(Sim, Cores), Wrapped(CL.region().name()) {
      CL.resetState();
      Src = CL.makeSource();
      if (Pr) {
        Wrapped = wrapRegion(CL.region(), *Pr);
        Probed = std::make_unique<ProbedSource>(*Src, *Pr);
      }
      Runner = std::make_unique<RegionRunner>(
          M, Costs, Pr ? Wrapped : CL.region(),
          Probed ? static_cast<WorkSource &>(*Probed) : *Src);
      if (Probed)
        Probed->watch(Runner.get());
      Runner->OnComplete = [this] { DoneAt = Sim.now(); };
    }
  };

  RunOut Out;
  Out.Bound = Bound;
  std::unique_ptr<Op> O;
  P.setup([&] {
    O = std::make_unique<Op>(*C.CL, P.traced() ? &P.Pr : nullptr);
    if (D == Drive::Controlled)
      O->Ctrl = std::make_unique<RegionController>(*O->Runner);
  });
  P.simulate([&] {
    switch (D) {
    case Drive::Fixed:
      O->Runner->start(Fixed);
      break;
    case Drive::Controlled:
      O->Ctrl->start(Cores);
      break;
    case Drive::Chaotic: {
      // runCompiledChaotic's schedule: candidate configurations across
      // every variant, then 12 forced reconfigurations 400 us apart.
      Rng R0(Seed);
      std::vector<RegionConfig> Configs;
      for (const RegionDesc &V : C.CL->region().variants())
        for (unsigned Rep = 0; Rep < 4; ++Rep) {
          RegionConfig K;
          K.S = V.S;
          for (const Task &T : V.Tasks)
            K.DoP.push_back(T.isParallel()
                                ? 1 + static_cast<unsigned>(
                                          R0.nextBelow(std::min(Cores, 8u)))
                                : 1);
          Configs.push_back(std::move(K));
        }
      O->Runner->start(Configs[R0.nextBelow(Configs.size())]);
      RegionRunner *Runner = O->Runner.get();
      for (unsigned K = 1; K <= 12; ++K) {
        RegionConfig Next = Configs[R0.nextBelow(Configs.size())];
        O->Sim.schedule(static_cast<sim::SimTime>(K) * 400 * sim::USec,
                        [Runner, Next = std::move(Next)]() mutable {
                          if (!Runner->completed())
                            Runner->reconfigure(std::move(Next));
                        });
      }
      break;
    }
    }
    Out.Done = runBounded(O->Sim, Bound) && O->Runner->completed();
  });
  P.check([&] {
    Out.End = O->Sim.now();
    Out.DoneAt = O->DoneAt;
    Out.Retired = O->Runner->totalRetired();
    Out.Final = O->Runner->config();
    if (Out.Done)
      Out.Wrong = checkAgainstRef(C);
    // A failed run is charged its bound: past it, the clock depends on
    // which event happened to cross it.
    P.T.addSim(O->Sim, O->M, Out.Done ? O->DoneAt : Bound);
    P.T.addRunner(*O->Runner);
    if (O->Ctrl) {
      Out.Trace = O->Ctrl->trace();
      P.T.addController(*O->Ctrl);
    }
  });
  P.teardown([&] { O.reset(); });
  return Out;
}

RegionConfig configWith(CompiledLoop &CL, Scheme S, unsigned Par) {
  RegionConfig C;
  C.S = S;
  for (const Task &T : CL.region().variant(S).Tasks)
    C.DoP.push_back(T.isParallel() ? Par : 1);
  return C;
}

/// The Fig 8.9 run: histogram alone, then montecarlo joins and the
/// PlatformDaemon re-partitions the 24 threads between their controllers.
RunOut runPlatform(Pass &P, Compiled &A, Compiled &B, sim::SimTime JoinAt,
                   sim::SimTime Bound) {
  struct Op {
    sim::Simulator Sim;
    sim::Machine M;
    RuntimeCosts Costs;
    std::unique_ptr<CountedWorkSource> SrcA, SrcB;
    std::unique_ptr<ProbedSource> ProbedA, ProbedB;
    FlexibleRegion WrappedA, WrappedB;
    std::unique_ptr<RegionRunner> RunA, RunB;
    std::unique_ptr<RegionController> CtrlA, CtrlB;
    PlatformDaemon Daemon{PlatformCores};
    sim::SimTime DoneA = 0, DoneB = 0;
    Op(CompiledLoop &A, CompiledLoop &B, Probe *Pr)
        : M(Sim, PlatformCores), WrappedA(A.region().name()),
          WrappedB(B.region().name()) {
      A.resetState();
      B.resetState();
      SrcA = A.makeSource();
      SrcB = B.makeSource();
      if (Pr) {
        WrappedA = wrapRegion(A.region(), *Pr);
        WrappedB = wrapRegion(B.region(), *Pr);
        ProbedA = std::make_unique<ProbedSource>(*SrcA, *Pr);
        ProbedB = std::make_unique<ProbedSource>(*SrcB, *Pr);
      }
      RunA = std::make_unique<RegionRunner>(
          M, Costs, Pr ? WrappedA : A.region(),
          ProbedA ? static_cast<WorkSource &>(*ProbedA) : *SrcA);
      RunB = std::make_unique<RegionRunner>(
          M, Costs, Pr ? WrappedB : B.region(),
          ProbedB ? static_cast<WorkSource &>(*ProbedB) : *SrcB);
      if (ProbedA) {
        ProbedA->watch(RunA.get());
        ProbedB->watch(RunB.get());
      }
      CtrlA = std::make_unique<RegionController>(*RunA);
      CtrlB = std::make_unique<RegionController>(*RunB);
      RunA->OnComplete = [this] { DoneA = Sim.now(); };
      RunB->OnComplete = [this] { DoneB = Sim.now(); };
    }
  };

  RunOut Out;
  Out.Bound = Bound;
  std::unique_ptr<Op> O;
  P.setup([&] {
    O = std::make_unique<Op>(*A.CL, *B.CL, P.traced() ? &P.Pr : nullptr);
  });
  P.simulate([&] {
    O->Daemon.addProgram(*O->CtrlA);
    O->Sim.runUntil(JoinAt);
    O->Daemon.addProgram(*O->CtrlB);
    Out.Done = runBounded(O->Sim, Bound) && O->RunA->completed() &&
               O->RunB->completed();
  });
  P.check([&] {
    Out.End = O->Sim.now();
    Out.DoneAt = std::max(O->DoneA, O->DoneB);
    Out.Retired = O->RunA->totalRetired() + O->RunB->totalRetired();
    if (Out.Done) {
      Out.Wrong = checkAgainstRef(A);
      if (Out.Wrong.empty())
        Out.Wrong = checkAgainstRef(B);
    }
    P.T.addSim(O->Sim, O->M, Out.Done ? Out.DoneAt : Bound);
    P.T.addRunner(*O->RunA);
    P.T.addRunner(*O->RunB);
    P.T.addController(*O->CtrlA);
    P.T.addController(*O->CtrlB);
    P.T.SloTransfers += O->Daemon.sloTransfers().size();
  });
  P.teardown([&] { O.reset(); });
  return Out;
}

} // namespace

void runNona(Pass &P) {
  const std::uint64_t N = P.quick() ? 400 : 3000;
  const std::uint64_t NCtrl = P.quick() ? 3000 : 6000;
  const std::uint64_t NPlat = P.quick() ? 3000 : 20000;
  P.bound("nona SEQ run", "5 s virtual, over 15x the slowest SEQ "
                          "makespan at these sizes");
  P.bound("nona other runs", "10x the same program's SEQ makespan on the "
                             "same input");
  P.bound("nona platform run", "10x the sum of both programs' SEQ "
                               "makespans, scaled to the platform input");

  double CompileSec = 0;
  SampleSet JobSec;
  std::uint64_t Retired = 0;
  double VirtualSec = 0;
  std::vector<double> VsOracle;
  Rng Root(P.seed());
  std::vector<sim::SimTime> SeqOf;

  auto Suite = benchmarkSuite(N);
  auto SuiteCtrl = benchmarkSuite(NCtrl);
  auto Record = [&](const std::string &Name, const RunOut &R) {
    P.op(Name, !R.Done, R.Wrong);
    Retired += R.Retired;
    if (R.Done) {
      JobSec.add(sim::toSeconds(R.DoneAt));
      VirtualSec += sim::toSeconds(R.DoneAt);
    } else {
      VirtualSec += sim::toSeconds(R.Bound);
    }
  };

  for (std::size_t BI = 0; BI < Suite.size(); ++BI) {
    std::unique_ptr<Compiled> C = compile(P, Suite[BI], CompileSec);
    const std::string &Name = C->Prog.Name;
    CompiledLoop &CL = *C->CL;

    RunOut Seq = runOne(P, *C, Drive::Fixed, configWith(CL, Scheme::Seq, 1), 0,
                        SeqBound);
    Record(Name + " SEQ", Seq);
    sim::SimTime SeqT = Seq.Done ? Seq.DoneAt : SeqBound;
    SeqOf.push_back(SeqT);
    sim::SimTime Bound = BoundFactor * SeqT;

    double BestStatic = 1.0;
    for (Scheme S : {Scheme::DoAny, Scheme::PsDswp}) {
      if (!CL.region().hasVariant(S))
        continue;
      for (unsigned D : DoPs) {
        RegionConfig K = configWith(CL, S, D);
        if (K.totalThreads() > Cores)
          continue;
        RunOut R = runOne(P, *C, Drive::Fixed, K, 0, Bound);
        Record(Name + " " + K.str(), R);
        if (R.Done)
          BestStatic = std::max(BestStatic, static_cast<double>(SeqT) /
                                                static_cast<double>(R.DoneAt));
      }
    }
    RunOut Chaos = runOne(P, *C, Drive::Chaotic, {}, Root.next(), Bound);
    Record(Name + " chaotic", Chaos);

    // The controller on the longer input, against SEQ on that input.
    std::unique_ptr<Compiled> Big = compile(P, SuiteCtrl[BI], CompileSec);
    RunOut BigSeq = runOne(P, *Big, Drive::Fixed,
                           configWith(*Big->CL, Scheme::Seq, 1), 0, SeqBound);
    Record(Name + " SEQ (controller input)", BigSeq);
    sim::SimTime BigSeqT = BigSeq.Done ? BigSeq.DoneAt : SeqBound;
    sim::SimTime CtrlBound = BoundFactor * BigSeqT;
    RunOut Ctrl = runOne(P, *Big, Drive::Controlled, {}, 0, CtrlBound);
    Record(Name + " controller", Ctrl);
    // A stalled controller run is charged the rate it achieved by its
    // bound, so the failure lowers sim_vs_oracle instead of vanishing.
    double Rate =
        static_cast<double>(std::max<std::uint64_t>(Ctrl.Retired, 1)) /
        static_cast<double>(CtrlBound);
    double CtrlT = Ctrl.Done ? static_cast<double>(Ctrl.DoneAt)
                             : static_cast<double>(NCtrl) / Rate;
    VsOracle.push_back(static_cast<double>(BigSeqT) / CtrlT / BestStatic);

    if (P.CrossCheck && Name == "histogram") {
      P.check([&] {
        ControlledRunResult H = runControlled(*Big->CL, Cores);
        if (H.Completed != Ctrl.Done || H.Time != Ctrl.End ||
            !(H.Final == Ctrl.Final) || H.Trace.size() != Ctrl.Trace.size())
          P.gate("nona: " + Name + " controller run differs from "
                                   "runControlled");
      });
    }
  }

  // Fig 8.9: histogram (suite index 2) alone, montecarlo (3) joins.
  {
    std::unique_ptr<Compiled> A =
        compile(P, [NPlat] { return makeHistogram(NPlat, 64); }, CompileSec);
    std::unique_ptr<Compiled> B =
        compile(P, [NPlat] { return makeMonteCarlo(NPlat); }, CompileSec);
    sim::SimTime Bound =
        BoundFactor * (SeqOf[2] + SeqOf[3]) * static_cast<sim::SimTime>(NPlat) /
        static_cast<sim::SimTime>(N);
    // montecarlo joins after a tenth of the two programs' SEQ time, once
    // histogram's controller has had time to settle alone.
    RunOut R = runPlatform(P, *A, *B, Bound / BoundFactor / 10, Bound);
    Record("platform histogram+montecarlo", R);
  }

  P.hostFigure("nona.compile_s", CompileSec);
  P.outcome("sim_resp_mean_s", JobSec.count() ? JobSec.mean() : 0);
  P.outcome("sim_resp_p50_s", pct(JobSec, 50));
  P.outcome("sim_resp_p99_s", pct(JobSec, 99));
  P.count("sim_resp_samples", static_cast<double>(JobSec.count()));
  P.outcome("sim_goodput_rps",
            VirtualSec > 0 ? static_cast<double>(Retired) / VirtualSec : 0);
  P.outcome("sim_vs_oracle", geomean(VsOracle));
}

} // namespace wsbench
