//===- Lanes.cpp - The lanes workload: the Figs 8.1-8.4 lane server -------===//
//
// Part of the Parcae reproduction's whole-stack benchmark.
//
// x264 and bzip lane servers on 24 simulated cores, Poisson arrivals at
// loads {0.3, 0.9, 1.1} of the maximum sustainable throughput, each under
// Static<outer>, Static<inner> and WQ-Linear. Long sequential bursts are
// cut into 4 ms quanta on mostly uncontended cores, so machine slice
// dispatch and the event core do most of the host work; the Nona
// interpreter, links, serve and the watchdog are not involved.
//
// The composition mirrors runLaneExperiment (workloads/Experiment.cpp)
// step for step; the warm-up pass cross-checks one cell against it.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Table.h"
#include "workloads/Experiment.h"

#include <algorithm>
#include <memory>

using namespace parcae;
using namespace parcae::rt;

namespace wsbench {
namespace {

constexpr unsigned Cores = 24;
const double Loads[] = {0.3, 0.9, 1.1};
enum MechKind { StaticOuter, StaticInner, WqLinearM, NumMechs };
const char *MechNames[NumMechs] = {"Static<outer>", "Static<inner>",
                                   "WQ-Linear"};

struct CellOut {
  bool Done = false;
  std::string Wrong;
  ServerRunResult R;   ///< as runLaneExperiment reports it
  sim::SimTime LastDone = 0; ///< the last request's completion time
};

/// The mechanisms of one application, as LaneBenchCommon.h sets them up.
std::unique_ptr<LaneMechanism> makeMech(const LaneAppParams &A, MechKind M) {
  unsigned DPmax = A.Scal.dPmax(), DPmin = A.Scal.dPmin();
  unsigned KPar = std::max(1u, Cores / DPmax);
  switch (M) {
  case StaticOuter:
    return std::make_unique<StaticLane>(LaneConfig{Cores, false, 1});
  case StaticInner:
    return std::make_unique<StaticLane>(LaneConfig{KPar, true, DPmax});
  default:
    return std::make_unique<WqLinear>(Cores, DPmax, DPmin, 4.0 * KPar);
  }
}

/// Virtual-time bound of one cell: every request served back to back on
/// a single lane at twice its mean work, after the last arrival. Any
/// configuration that keeps one lane busy finishes well inside it.
sim::SimTime cellBound(const LaneAppParams &A, double Load,
                       std::uint64_t Requests) {
  double ArrivalSpan = static_cast<double>(Requests) /
                       (Load * laneMaxThroughput(A, Cores));
  return sim::fromSeconds(ArrivalSpan * 4) +
         2 * A.MeanWork * static_cast<sim::SimTime>(Requests);
}

/// One cell: app \p A under \p M at \p Load.
/// Response times of completed requests go to \p Pool when it is set.
CellOut runCell(Pass &P, const LaneAppParams &A, LaneMechanism &Mech,
                double Load, std::uint64_t Requests, std::uint64_t Seed,
                SampleSet *Pool) {
  struct Op {
    sim::Simulator Sim;
    sim::Machine M;
    RuntimeCosts Costs;
    QueueWorkSource Queue;
    std::unique_ptr<TimedLaneMech> Timed;
    LaneServerApp App;
    LaneMechanismDriver Driver;
    PoissonLoadGen Gen;
    Op(const LaneAppParams &A, LaneMechanism &Mech, Probe *Pr, double Load,
       std::uint64_t Requests, std::uint64_t Seed)
        : M(Sim, Cores),
          Timed(Pr ? std::make_unique<TimedLaneMech>(Mech, *Pr) : nullptr),
          App(M, Costs, A, Queue),
          Driver(App, Timed ? static_cast<LaneMechanism &>(*Timed) : Mech),
          Gen(Sim, Queue, Load * laneMaxThroughput(A, Cores), Requests, Seed,
              [MeanWork = A.MeanWork, Jitter = A.WorkJitter](Request &R,
                                                             Rng &Rand) {
                R.Work = static_cast<sim::SimTime>(Rand.nextNormal(
                    static_cast<double>(MeanWork),
                    Jitter * static_cast<double>(MeanWork)));
                R.UnitsRemaining = 1;
              }) {}
  };

  CellOut Out;
  std::unique_ptr<Op> O;
  P.setup([&] {
    O = std::make_unique<Op>(A, Mech, P.traced() ? &P.Pr : nullptr, Load,
                             Requests, Seed);
  });
  sim::SimTime Bound = cellBound(A, Load, Requests);
  P.simulate([&] {
    O->Driver.start();
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
    Out.R.Reconfigurations = O->Driver.reconfigurations();
    for (const auto &R : Reqs)
      if (R->completed()) {
        Out.LastDone = std::max(Out.LastDone, R->CompleteTime);
        if (Pool)
          Pool->add(sim::toSeconds(R->responseTime()));
      }
    // Every admitted request completes exactly once and the machine
    // drains: the runner retired each request once, none is pending, the
    // queue is empty and closed, and no thread is left alive.
    if (Reqs.size() != Requests || O->Gen.dropped() != 0)
      Out.Wrong = "arrivals lost";
    else if (Out.R.Resp.Completed != Requests || Out.R.Resp.Pending != 0)
      Out.Wrong = "requests left incomplete";
    else if (O->App.completedRequests() != Requests)
      Out.Wrong = "runner retired a request more or less than once";
    else if (O->Queue.size() != 0 || !O->Queue.closed() ||
             O->M.threadsAlive() != 0)
      Out.Wrong = "machine did not drain";
    // The last completion, not the clock: a counters pass's telemetry
    // schedules flush events after the last request.
    P.T.addSim(O->Sim, O->M, Out.LastDone);
    P.T.addRunner(O->App.runner());
    P.T.MechDecisions += O->Driver.reconfigurations();
  });
  P.teardown([&] { O.reset(); });
  return Out;
}

} // namespace

void runLanes(Pass &P) {
  std::uint64_t Requests = P.quick() ? 60 : 170;
  // Independent arrival streams per (app, load): WQ-Linear's choices flip
  // with the stream, and two streams halve that seed sensitivity.
  unsigned Streams = P.quick() ? 1 : 2;
  const LaneAppParams Apps[] = {x264Params(), bzipParams()};
  P.bound("lanes cell",
          "4x the expected arrival span plus every request back to back on "
          "one lane at 2x its mean work");

  SampleSet WqResp;
  std::uint64_t Completions = 0;
  double VirtualSec = 0;
  std::vector<double> VsOracle;
  Rng Root(P.seed());

  // The three mechanisms on one arrival stream of app A at Load.
  auto RunGroup = [&](const LaneAppParams &A, double Load, unsigned Stream) {
    std::uint64_t CellSeed = Root.next();
    double Mean[NumMechs];
    for (int MI = 0; MI < NumMechs; ++MI) {
      std::unique_ptr<LaneMechanism> Mech;
      P.setup([&] { Mech = makeMech(A, static_cast<MechKind>(MI)); });
      CellOut C = runCell(P, A, *Mech, Load, Requests, CellSeed,
                          MI == WqLinearM ? &WqResp : nullptr);
      std::string Name = A.Name + "@" + Table::num(Load, 1) + " " +
                         MechNames[MI] + " #" + std::to_string(Stream);
      P.op(Name, !C.Done, C.Wrong);
      Mean[MI] = C.R.MeanResponseSec;
      Completions += C.R.Resp.Completed;
      VirtualSec += sim::toSeconds(C.LastDone);

      // Cross-check one cell against the figures' helper.
      if (P.CrossCheck && Stream == 0 && MI == WqLinearM &&
          &A == &Apps[0] && Load == Loads[1]) {
        P.check([&] {
          std::unique_ptr<LaneMechanism> Ref = makeMech(A, WqLinearM);
          ServerRunResult H =
              runLaneExperiment(A, *Ref, Cores, Load, Requests, CellSeed);
          if (H.MeanResponseSec != C.R.MeanResponseSec ||
              H.Makespan != C.R.Makespan ||
              H.Resp.Completed != C.R.Resp.Completed ||
              H.Reconfigurations != C.R.Reconfigurations)
            P.gate("lanes: cell " + Name + " differs from runLaneExperiment");
        });
      }
    }
    if (Mean[WqLinearM] > 0)
      VsOracle.push_back(std::min(Mean[StaticOuter], Mean[StaticInner]) /
                         Mean[WqLinearM]);
  };
  for (unsigned Stream = 0; Stream < Streams; ++Stream)
    for (const LaneAppParams &A : Apps)
      for (double Load : Loads)
        RunGroup(A, Load, Stream);

  P.outcome("sim_resp_mean_s", WqResp.count() ? WqResp.mean() : 0);
  P.outcome("sim_resp_p50_s", pct(WqResp, 50));
  P.outcome("sim_resp_p99_s", pct(WqResp, 99));
  P.count("sim_resp_samples", static_cast<double>(WqResp.count()));
  P.outcome("sim_goodput_rps",
            VirtualSec > 0 ? static_cast<double>(Completions) / VirtualSec : 0);
  P.outcome("sim_vs_oracle", geomean(VsOracle));
}

} // namespace wsbench
