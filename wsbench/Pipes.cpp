//===- Pipes.cpp - The pipes workload: pipelines under contention ---------===//
//
// Part of the Parcae reproduction's whole-stack benchmark.
//
// ferret and dedup at saturating Poisson arrivals on 24 cores under
// Pthreads-Baseline (even split), Pthreads-OS (oversubscribed) and TBF
// (Table 8.5), plus the resilience pipeline of bench_resilience's burst
// scenario: 3 stages on 8 cores with a straggler window, a failure-domain
// burst and repair, and seeded transient faults, under the Watchdog, and
// the same pipeline without faults. Every item crosses every link and
// slices are genuinely contended; this is the only workload that drives
// watchdog recovery.
//
// The pipeline runs mirror runPipelineExperiment (workloads/Experiment.cpp);
// the warm-up pass cross-checks one against it.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "morta/Controller.h"
#include "morta/Watchdog.h"
#include "sim/Faults.h"
#include "workloads/Experiment.h"

#include <algorithm>
#include <functional>
#include <memory>

using namespace parcae;
using namespace parcae::rt;

namespace wsbench {
namespace {

constexpr unsigned AppCores = 24;
constexpr sim::SimTime MechPeriod = 250 * sim::MSec;

enum Setting { Baseline, Oversub, Tbf, NumSettings };
const char *SettingNames[NumSettings] = {"Pthreads-Baseline", "Pthreads-OS",
                                         "TBF"};

struct AppDesc {
  const char *Name;
  std::function<PipelineApp()> Make;
  sim::SimTime CacheRefill; ///< per-app cache-refill cost (Table 8.5)
  /// Poisson arrival rate: twice the best throughput any of the three
  /// settings reaches (ferret about 55/s, dedup about 175/s), so every
  /// setting runs saturated while the arrival times still follow the seed.
  double ArrivalsPerSec;
};

struct PipeOut {
  bool Done = false;
  std::string Wrong;
  ServerRunResult R;   ///< as runPipelineExperiment reports it
  sim::SimTime LastDone = 0; ///< the last item's completion time
};

/// Initial configuration of \p S: the even split of the 24 hardware
/// threads, or 24 threads per parallel stage.
RegionConfig initialFor(const PipelineApp &App, Setting S) {
  unsigned Par = 0;
  for (const StageParams &St : App.Stages)
    Par += St.Type == TaskType::Par;
  unsigned Even = std::max(1u, (AppCores - (App.numStages() - Par)) / Par);
  return evenConfig(App, Scheme::PsDswp, S == Oversub ? AppCores : Even);
}

/// Virtual-time bound of one pipeline run: every item through every
/// stage back to back on one core at 1.25x the mean stage cost (the top
/// of the cost jitter), plus one mechanism period per reconfiguration the
/// run could need (one per stage).
sim::SimTime pipeBound(const PipelineApp &App, std::uint64_t Items) {
  sim::SimTime PerItem = 0;
  for (const StageParams &St : App.Stages)
    PerItem += St.MeanCost + St.CritCost;
  return PerItem * 5 / 4 * static_cast<sim::SimTime>(Items) +
         MechPeriod * static_cast<sim::SimTime>(App.numStages() + 1);
}

PipeOut runPipe(Pass &P, const AppDesc &A, Setting S, std::uint64_t Items,
                std::uint64_t Seed, SampleSet *Pool) {
  struct Op {
    sim::Simulator Sim;
    sim::Machine M;
    RuntimeCosts Costs;
    QueueWorkSource Queue;
    PipelineApp App;
    FlexibleRegion Wrapped;
    std::unique_ptr<ProbedSource> Probed;
    TbfMechanism Tbf{true};
    std::unique_ptr<TimedPipeMech> Timed;
    std::unique_ptr<RegionRunner> Runner;
    std::unique_ptr<MechanismDriver> Driver;
    PoissonLoadGen Gen;
    Op(const AppDesc &A, Probe *Pr, std::uint64_t Items, std::uint64_t Seed)
        : M(Sim, AppCores, machineConfig(A)), App(A.Make()),
          Wrapped(App.Name),
          Gen(Sim, Queue, A.ArrivalsPerSec, Items, Seed, [](Request &R, Rng &) {
            R.Work = 0;
            R.UnitsRemaining = 1;
          }) {
      if (Pr) {
        Wrapped = wrapRegion(App.Region, *Pr);
        Probed = std::make_unique<ProbedSource>(Queue, *Pr);
        Timed = std::make_unique<TimedPipeMech>(Tbf, *Pr);
      }
      Runner = std::make_unique<RegionRunner>(
          M, Costs, Pr ? Wrapped : App.Region,
          Probed ? static_cast<WorkSource &>(*Probed) : Queue);
      if (Probed)
        Probed->watch(Runner.get());
    }
    static sim::MachineConfig machineConfig(const AppDesc &A) {
      sim::MachineConfig MC;
      MC.CacheRefillCost = A.CacheRefill;
      return MC;
    }
  };

  PipeOut Out;
  std::unique_ptr<Op> O;
  P.setup([&] {
    O = std::make_unique<Op>(A, P.traced() ? &P.Pr : nullptr, Items, Seed);
    if (S == Tbf)
      O->Driver = std::make_unique<MechanismDriver>(
          *O->Runner,
          O->Timed ? static_cast<PipeMechanism &>(*O->Timed) : O->Tbf,
          AppCores, MechPeriod);
  });
  sim::SimTime Bound = pipeBound(O->App, Items);
  P.simulate([&] {
    RegionConfig Init = initialFor(O->App, S);
    if (O->Driver)
      O->Driver->start(Init);
    else
      O->Runner->start(Init);
    O->Gen.start();
    Out.Done = runBounded(O->Sim, Bound);
  });
  P.check([&] {
    const auto &Reqs = O->Gen.requests();
    Out.R.Resp = ResponseStats::collect(Reqs);
    Out.R.MeanResponseSec = Out.R.Resp.meanResponseSec();
    Out.R.Makespan = O->Sim.now();
    Out.R.ThroughputPerSec = static_cast<double>(Out.R.Resp.Completed) /
                             sim::toSeconds(Out.R.Makespan);
    Out.R.Reconfigurations = O->Driver ? O->Driver->decisions() : 0;
    for (const auto &R : Reqs)
      if (R->completed()) {
        Out.LastDone = std::max(Out.LastDone, R->CompleteTime);
        if (Pool)
          Pool->add(sim::toSeconds(R->responseTime()));
      }
    // Every item reached the tail exactly once.
    if (!O->Runner->completed())
      Out.Wrong = "region did not complete";
    else if (Out.R.Resp.Completed != Items || Out.R.Resp.Pending != 0 ||
             O->Runner->totalRetired() != Items)
      Out.Wrong = "items lost or duplicated";
    // The last completion, not the clock: a counters pass's telemetry
    // schedules flush events after the last item.
    P.T.addSim(O->Sim, O->M, Out.LastDone);
    P.T.addRunner(*O->Runner);
    if (O->Driver)
      P.T.MechDecisions += O->Driver->decisions();
  });
  P.teardown([&] { O.reset(); });
  return Out;
}

// --- The resilience pipeline (bench_resilience --burst) ------------------

constexpr std::uint64_t ResilIters = 20000;
constexpr unsigned ResilCores = 8;
constexpr sim::SimTime ResilBound = 2 * sim::Sec;

FlexibleRegion makeResilRegion(std::vector<std::int64_t> *Tail) {
  FlexibleRegion R("resil");
  {
    RegionDesc D;
    D.Name = "resil-pipe";
    D.S = Scheme::PsDswp;
    D.Tasks.emplace_back("produce", TaskType::Seq, [](IterationContext &C) {
      C.Cost = 1500;
      C.Out[0].Value = static_cast<std::int64_t>(C.Seq);
    });
    D.Tasks.emplace_back("work", TaskType::Par, [](IterationContext &C) {
      C.Cost = 24000;
      C.Out[0].Value = C.In[0].Value;
    });
    D.Tasks.emplace_back("commit", TaskType::Seq, [Tail](IterationContext &C) {
      C.Cost = 1000;
      Tail->push_back(C.In[0].Value);
    });
    D.Links.push_back({0, 1});
    D.Links.push_back({1, 2});
    R.addVariant(std::move(D));
  }
  {
    RegionDesc D;
    D.Name = "resil-seq";
    D.S = Scheme::Seq;
    D.Tasks.emplace_back("all", TaskType::Seq, [Tail](IterationContext &C) {
      C.Cost = 26500;
      Tail->push_back(static_cast<std::int64_t>(C.Seq));
    });
    R.addVariant(std::move(D));
  }
  return R;
}

sim::FaultPlan makeBurstPlan(std::uint64_t Seed) {
  sim::FaultPlan Plan;
  Plan.addStraggler(/*Core=*/1, /*At=*/20 * sim::MSec,
                    /*Duration=*/15 * sim::MSec, /*Dilation=*/4.0);
  Plan.addDomain("socket1", {4, 5, 6}, 40 * sim::MSec + 130 * sim::USec,
                 30 * sim::MSec);
  Plan.scatterTransients(Seed, "work", /*SeqBegin=*/2000, /*SeqEnd=*/18000,
                         /*Count=*/40, /*MaxFailCount=*/2);
  return Plan;
}

struct ResilOut {
  bool Done = false;
  std::string Wrong;
  sim::SimTime Makespan = 0;
};

ResilOut runResil(Pass &P, bool Faults, std::uint64_t Seed) {
  struct Op {
    sim::Simulator Sim;
    sim::Machine M;
    std::vector<std::int64_t> Tail;
    FlexibleRegion Region;
    CountedWorkSource Src;
    std::unique_ptr<ProbedSource> Probed;
    RuntimeCosts Costs;
    std::unique_ptr<RegionRunner> Runner;
    std::unique_ptr<RegionController> Ctrl;
    std::unique_ptr<Watchdog> Dog;
    sim::SimTime DoneAt = 0;
    Op(bool Faults, std::uint64_t Seed, Probe *Pr)
        : M(Sim, ResilCores), Region(makeResilRegion(&Tail)), Src(ResilIters) {
      if (Faults)
        M.installFaultPlan(makeBurstPlan(Seed));
      if (Pr) {
        Region = wrapRegion(Region, *Pr);
        Probed = std::make_unique<ProbedSource>(Src, *Pr);
      }
      Runner = std::make_unique<RegionRunner>(
          M, Costs, Region,
          Probed ? static_cast<WorkSource &>(*Probed) : Src);
      if (Probed)
        Probed->watch(Runner.get());
      Ctrl = std::make_unique<RegionController>(*Runner);
      Dog = std::make_unique<Watchdog>(*Ctrl);
      Runner->OnComplete = [this] { DoneAt = Sim.now(); };
    }
  };

  ResilOut Out;
  std::unique_ptr<Op> O;
  P.setup([&] {
    O = std::make_unique<Op>(Faults, Seed, P.traced() ? &P.Pr : nullptr);
  });
  P.simulate([&] {
    O->Ctrl->start(ResilCores);
    O->Dog->start();
    runBounded(O->Sim, ResilBound);
    Out.Done = O->Runner->completed();
  });
  P.check([&] {
    Out.Makespan = O->DoneAt;
    // The tail is exactly-once and in order.
    if (O->Tail.size() != ResilIters)
      Out.Wrong = "tail output incomplete or duplicated";
    else
      for (std::size_t I = 0; I < O->Tail.size(); ++I)
        if (O->Tail[I] != static_cast<std::int64_t>(I)) {
          Out.Wrong = "tail output out of order";
          break;
        }
    P.T.addSim(O->Sim, O->M, Out.Done ? O->DoneAt : ResilBound);
    P.T.addRunner(*O->Runner);
    P.T.addController(*O->Ctrl);
    P.T.WdDetections += O->Dog->detections();
    P.T.WdRecoveries += O->Dog->recoveriesCompleted();
    P.T.WdSurgical += O->Dog->surgicalRestarts();
    P.T.WdSpeculations += O->Dog->speculationsIssued();
    P.T.WdMttrMs += sim::toSeconds(O->Dog->lastMttr()) * 1e3;
  });
  P.teardown([&] { O.reset(); });
  return Out;
}

} // namespace

void runPipes(Pass &P) {
  std::uint64_t Items = P.quick() ? 150 : 700;
  const AppDesc Apps[] = {{"ferret", makeFerret, 500 * sim::USec, 110},
                          {"dedup", makeDedup, 4 * sim::MSec, 350}};
  P.bound("pipeline run", "every item through every stage back to back on "
                          "one core at 1.25x mean cost, plus one mechanism "
                          "period per stage and one more");
  P.bound("resilience run", "2 s virtual, as bench_resilience: over 10x the "
                            "faulted makespan");

  SampleSet TbfResp;
  std::uint64_t Completions = 0;
  double VirtualSec = 0;
  std::vector<double> Gain, VsOracle;
  Rng Root(P.seed());
  for (const AppDesc &A : Apps) {
    std::uint64_t Seed = Root.next();
    double Thr[NumSettings];
    for (int S = 0; S < NumSettings; ++S) {
      PipeOut R = runPipe(P, A, static_cast<Setting>(S), Items, Seed,
                          S == Tbf ? &TbfResp : nullptr);
      std::string Name = std::string(A.Name) + " " + SettingNames[S];
      P.op(Name, !R.Done, R.Wrong);
      double Sec = sim::toSeconds(R.LastDone);
      Thr[S] = Sec > 0 ? static_cast<double>(R.R.Resp.Completed) / Sec : 0;
      Completions += R.R.Resp.Completed;
      VirtualSec += Sec;

      if (P.CrossCheck && S == Tbf && &A == &Apps[0]) {
        P.check([&] {
          TbfMechanism Ref(true);
          PipelineRunSpec Spec;
          Spec.Cores = AppCores;
          Spec.ArrivalsPerSec = A.ArrivalsPerSec;
          Spec.Requests = Items;
          Spec.Seed = Seed;
          Spec.Mech = &Ref;
          Spec.Initial = initialFor(A.Make(), Tbf);
          Spec.MechPeriod = MechPeriod;
          Spec.MC.CacheRefillCost = A.CacheRefill;
          ServerRunResult H = runPipelineExperiment(A.Make, Spec).Server;
          if (H.MeanResponseSec != R.R.MeanResponseSec ||
              H.Makespan != R.R.Makespan ||
              H.Resp.Completed != R.R.Resp.Completed ||
              H.Reconfigurations != R.R.Reconfigurations)
            P.gate("pipes: " + Name + " differs from runPipelineExperiment");
        });
      }
    }
    if (Thr[Baseline] > 0 && Thr[Tbf] > 0) {
      Gain.push_back(Thr[Tbf] / Thr[Baseline]);
      VsOracle.push_back(Thr[Tbf] / std::max(Thr[Baseline], Thr[Oversub]));
    }
  }

  std::uint64_t ResilSeed = Root.next();
  ResilOut Faulted = runResil(P, true, ResilSeed);
  P.op("resilience faulted", !Faulted.Done, Faulted.Wrong);
  ResilOut Clean = runResil(P, false, ResilSeed);
  P.op("resilience clean", !Clean.Done, Clean.Wrong);

  P.outcome("sim_resp_mean_s", TbfResp.count() ? TbfResp.mean() : 0);
  P.outcome("sim_resp_p50_s", pct(TbfResp, 50));
  P.outcome("sim_resp_p99_s", pct(TbfResp, 99));
  P.count("sim_resp_samples", static_cast<double>(TbfResp.count()));
  P.outcome("sim_goodput_rps",
            VirtualSec > 0 ? static_cast<double>(Completions) / VirtualSec : 0);
  P.outcome("sim_vs_oracle", geomean(VsOracle));
  P.outcome("sim_tput_gain", geomean(Gain));
  P.outcome("sim_fault_slowdown",
            Clean.Makespan > 0 ? static_cast<double>(Faulted.Makespan) /
                                     static_cast<double>(Clean.Makespan)
                               : 0);
}

} // namespace wsbench
