//===- Bench.h - Passes, tallies and checks of the benchmark ----*- C++ -*-===//
//
// Part of the Parcae reproduction's whole-stack benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A pass runs every operation of one workload once. Each operation owns
/// its Simulator, so the pass can bound its virtual time and read its
/// event count. Host time is split three ways: set-up (everything before
/// an operation's first simulated event: programs, compilation, apps,
/// machines), the simulated phase plus teardown (host_s), and the output
/// checks. Deterministic results — the simulated outcomes and the
/// per-layer counts — are collected by name so passes can be compared bit
/// for bit.
///
//===----------------------------------------------------------------------===//

#ifndef WSBENCH_BENCH_H
#define WSBENCH_BENCH_H

#include "Spans.h"
#include "Wrappers.h"

#include "morta/Controller.h"
#include "morta/RegionRunner.h"
#include "sim/Machine.h"
#include "sim/Simulator.h"
#include "support/Stats.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wsbench {

namespace sim = parcae::sim;
namespace rt = parcae::rt;

/// What a pass records besides its own host time.
enum class Kind {
  Plain,   ///< nothing: the end-to-end host figures come from these
  Traced,  ///< benchmark spans and interface wrappers
  Counters ///< the program's metrics registry, with no trace events kept
};

inline const char *kindName(Kind K) {
  switch (K) {
  case Kind::Plain:
    return "plain";
  case Kind::Traced:
    return "traced";
  case Kind::Counters:
    return "counters";
  }
  return "?";
}

/// Runs \p Sim until its queue drains or its clock passes \p Bound.
/// Returns true when it drained; the clock then reads the time of the
/// last event, exactly as after Simulator::run().
inline bool runBounded(sim::Simulator &Sim, sim::SimTime Bound) {
  while (Sim.now() <= Bound)
    if (!Sim.runOne())
      return true;
  return false;
}

/// Geometric mean of positive ratios.
inline double geomean(const std::vector<double> &Xs) {
  if (Xs.empty())
    return 0;
  double L = 0;
  for (double X : Xs)
    L += std::log(X);
  return std::exp(L / static_cast<double>(Xs.size()));
}

/// Per-layer quantities summed over the operations of one pass. All of
/// them derive from simulated state, so they repeat exactly per seed.
struct Tally {
  std::uint64_t Events = 0, RingHits = 0, WheelHits = 0, HeapHits = 0;
  double BusyCoreSec = 0, CoreSec = 0;
  std::uint64_t Retired = 0;
  sim::SimTime Compute = 0, Comm = 0, Overhead = 0;
  std::uint64_t Regions = 0, Reconfigs = 0, FullPauses = 0, Recoveries = 0,
                TaskRestarts = 0;
  std::uint64_t CtrlRuns = 0, CtrlTransitions = 0, CtrlMonitored = 0;
  /// Virtual time to first reach MONITOR, summed over the CtrlMonitored
  /// controller runs that reached it.
  double CtrlMsToMonitor = 0;
  std::uint64_t MechDecisions = 0, SloTransfers = 0;
  std::uint64_t WdDetections = 0, WdRecoveries = 0, WdSurgical = 0,
                WdSpeculations = 0;
  double WdMttrMs = 0;
  std::uint64_t ServeAdmitted = 0, ServeRejected = 0, ServeShed = 0,
                ServeBatches = 0, ServeBatched = 0;
  double ServeQueueWaitP99Ms = 0, ServeServiceP99Ms = 0;

  /// Adds one finished simulation: its event core and machine.
  void addSim(const sim::Simulator &Sim, const sim::Machine &M,
              sim::SimTime Makespan) {
    Events += Sim.eventsProcessed();
    sim::Simulator::QueueStats Q = Sim.queueStats();
    RingHits += Q.RingHits;
    WheelHits += Q.WheelHits;
    HeapHits += Q.HeapHits;
    BusyCoreSec += sim::toSeconds(M.busyCoreTime());
    CoreSec += sim::toSeconds(Makespan) * M.numCores();
  }

  /// Adds one region runner: retirement, per-task time split of its
  /// current execution, and its reconfiguration history.
  void addRunner(const rt::RegionRunner &R) {
    ++Regions;
    Retired += R.totalRetired();
    Reconfigs += R.reconfigurations();
    FullPauses += R.fullPauses();
    Recoveries += R.recoveries();
    TaskRestarts += R.taskRestarts();
    if (const rt::RegionExec *E = R.exec())
      for (unsigned T = 0; T < E->numTasks(); ++T) {
        Compute += E->stats(T).ComputeTime;
        Comm += E->stats(T).CommTime;
        Overhead += E->stats(T).OverheadTime;
      }
  }

  /// Adds one controller: its state transitions and when it first
  /// reached MONITOR.
  void addController(const rt::RegionController &C) {
    const auto &Trace = C.trace();
    ++CtrlRuns;
    for (std::size_t I = 1; I < Trace.size(); ++I)
      CtrlTransitions += Trace[I].St != Trace[I - 1].St;
    for (const auto &E : Trace)
      if (E.St == rt::CtrlState::Monitor) {
        CtrlMsToMonitor += sim::toSeconds(E.At) * 1e3;
        ++CtrlMonitored;
        break;
      }
  }
};

/// Runs a fixed host-speed probe and returns its host time: work of the
/// kinds the simulator does, independent of the program's code and of the
/// cache and allocator state the program leaves behind.
std::int64_t hostProbeNs();

/// One pass over a workload's operations.
class Pass {
public:
  Pass(Kind K, std::uint64_t Seed, bool Quick)
      : K(K), Seed(Seed), Quick(Quick) {}

  Kind kind() const { return K; }
  bool traced() const { return K == Kind::Traced; }
  std::uint64_t seed() const { return Seed; }
  bool quick() const { return Quick; }

  /// Host-timed phases; each is also a coarse span in a traced pass.
  ///
  /// Set-up takes microseconds per operation, and a single cold call
  /// varies with the cache state and memory layout the run happens to
  /// have, so an untraced pass times set-up warm: after the real call it
  /// repeats \p Fn (until the repeats have taken a millisecond, at most
  /// eight times, at least once) and counts the median repeat. A set-up
  /// call only builds the objects its operation is about to use, so a
  /// repeat builds equal ones and drops the previous copy; the
  /// determinism gate checks that the repeats change no outcome.
  template <class F> void setup(F &&Fn) {
    if (K != Kind::Plain) {
      timed(SpSetup, SetupNs, Fn);
      return;
    }
    Fn();
    std::vector<std::int64_t> Repeats;
    std::int64_t Spent = 0;
    do {
      std::int64_t T0 = nowNs();
      Fn();
      Repeats.push_back(nowNs() - T0);
      Spent += Repeats.back();
    } while (Spent < 1000000 && Repeats.size() < 8);
    std::sort(Repeats.begin(), Repeats.end());
    std::size_t N = Repeats.size();
    SetupNs += (Repeats[(N - 1) / 2] + Repeats[N / 2]) / 2;
  }
  template <class F> void simulate(F &&Fn) { timed(SpSimRun, HostNs, Fn); }
  template <class F> void check(F &&Fn) { timed(SpCheck, CheckNs, Fn); }
  /// Teardown of an operation counts toward host_s but is no sim.run.
  template <class F> void teardown(F &&Fn) {
    std::int64_t T0 = nowNs();
    Fn();
    HostNs += nowNs() - T0;
  }

  /// Records one operation's verdict. \p Wrong is empty on success; a
  /// timeout is a failure, a wrong output is also a correctness error.
  void op(const std::string &Name, bool TimedOut, const std::string &Wrong) {
    endOp();
    ++Attempted;
    Failed += TimedOut || !Wrong.empty();
    if (TimedOut)
      Failures.push_back(Name +
                         ": no completion inside its virtual-time bound");
    else if (!Wrong.empty()) {
      Failures.push_back(Name + ": " + Wrong);
      ++WrongOutputs;
    }
  }

  /// Records \p Count operations of one family at once (admitted serve
  /// requests): \p TimedOut of them never finished inside the bound and
  /// \p Wrong finished with a wrong output.
  void ops(const std::string &Name, std::uint64_t Count, std::uint64_t TimedOut,
           std::uint64_t Wrong) {
    endOp();
    Attempted += Count;
    Failed += TimedOut + Wrong;
    if (TimedOut)
      Failures.push_back(Name + ": " + std::to_string(TimedOut) +
                         " not finished inside the virtual-time bound");
    if (Wrong) {
      Failures.push_back(Name + ": " + std::to_string(Wrong) +
                         " finalized more or less than once");
      WrongOutputs += Wrong;
    }
  }

  /// Ends an operation: times the host-speed probe once, so probe and
  /// operations sample the same moments of the shared host.
  void endOp() {
    ProbeNs += hostProbeNs();
    ++Probes;
  }

  /// A harness-level check failed (cross-check against a shared helper).
  void gate(const std::string &Why) { Gates.push_back(Why); }

  /// A deterministic simulated outcome (sim_* metric) or count.
  void outcome(const std::string &Name, double V) { Outcomes[Name] = V; }
  void count(const std::string &Name, double V) { Counts[Name] = V; }
  /// A host-timed per-layer figure of this pass (seconds, ns, ...).
  void hostFigure(const std::string &Name, double V) { HostFigures[Name] = V; }

  /// Notes the virtual-time bound of an operation family and why.
  void bound(const std::string &Family, const std::string &Derivation) {
    Bounds[Family] = Derivation;
  }

  /// Set on the first pass of each kind: cross-check one operation
  /// against the shared helper the figures use.
  bool CrossCheck = false;

  Tally T;
  Probe Pr;

  std::int64_t SetupNs = 0, HostNs = 0, CheckNs = 0;
  /// The host-speed probe, run once after every operation.
  std::int64_t ProbeNs = 0;
  unsigned Probes = 0;
  std::uint64_t Attempted = 0, Failed = 0, WrongOutputs = 0;
  std::vector<std::string> Failures, Gates;
  std::map<std::string, double> Outcomes, Counts, HostFigures;
  std::map<std::string, std::string> Bounds;

private:
  template <class F> void timed(SpanName N, std::int64_t &Acc, F &Fn) {
    Span S(N);
    std::int64_t T0 = nowNs();
    Fn();
    Acc += nowNs() - T0;
  }

  Kind K;
  std::uint64_t Seed;
  bool Quick;
};

/// Pools a sample set's nearest-rank percentile (as support/Stats does).
inline double pct(const parcae::SampleSet &S, double P) {
  return S.count() ? S.percentile(P) : 0.0;
}

// The four workloads.
void runLanes(Pass &P);
void runPipes(Pass &P);
void runNona(Pass &P);
void runServe(Pass &P);

} // namespace wsbench

#endif // WSBENCH_BENCH_H
