//===- main.cpp - Whole-stack benchmark program ---------------------------===//
//
// Part of the Parcae reproduction's whole-stack benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload in passes until the measurement window is spent, and
/// writes a JSON report of everything the passes measured:
///
///   wsbench --workload lanes|pipes|nona|serve --seed N --seconds S
///           --report out.json [--trace] [--spans spans.json] [--quick]
///
/// A warm-up pass (plain) runs first and is not timed into the figures;
/// it also cross-checks one operation against the shared helper the
/// paper figures use. Measured passes are all untraced (plain), or with
/// --trace rotate through untraced, traced and counters passes, so that
/// the three kinds interleave and see the same host conditions. Every pass
/// must reproduce the warm-up pass's simulated outcomes and counts bit for
/// bit (the determinism gate).
/// After every operation a fixed host-speed probe is timed too, so run.py
/// can express host times at a reference host speed. The probe takes its
/// memory from a private arena, never from the program's allocator, and is
/// timed on its second of two back-to-back runs, so the operation before
/// it does not change its time.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "telemetry/Telemetry.h"

#include <sys/resource.h>

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory_resource>
#include <string>
#include <unordered_map>

using namespace wsbench;

namespace {
volatile std::uint64_t ProbeSink;

/// The probe's memory, allocated and zeroed once. Each probe run carves its
/// containers' nodes out of it through a pool resource, so the probe never
/// calls the allocator the program uses and the allocator state an
/// operation leaves behind cannot change its time.
std::vector<std::byte> &probeArena() {
  static std::vector<std::byte> A(2u << 20);
  return A;
}

/// Finds, inserts and erases in a hash map and an ordered map over a key
/// space the size of the simulator's live state: node-based containers,
/// allocation from a pool and data-dependent branches, the kinds of work
/// the simulator and runtime do. In a loaded spell of the shared host, the
/// median pass times of nona, pipes and serve correlated with it at
/// 0.98-0.99 across seeds, against 0.25-0.71 for pointer chasing mixed with
/// binary-heap operations. The key sequence is the same every run, so two
/// runs in a row touch the same memory.
std::uint64_t probeKernel() {
  std::vector<std::byte> &A = probeArena();
  std::pmr::monotonic_buffer_resource Mono(A.data(), A.size(),
                                           std::pmr::null_memory_resource());
  std::pmr::unsynchronized_pool_resource Pool(&Mono);
  std::pmr::unordered_map<std::uint64_t, std::uint64_t> Hash(&Pool);
  std::pmr::map<std::uint64_t, std::uint64_t> Ordered(&Pool);
  std::uint64_t X = 99, Acc = 0;
  for (int I = 0; I < 6000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    std::uint64_t K = X & 4095;
    auto It = Hash.find(K);
    if (It != Hash.end()) {
      Acc += It->second;
      Hash.erase(It);
    } else {
      Hash.emplace(K, X);
    }
    auto Jt = Ordered.lower_bound(K);
    if (Jt != Ordered.end() && (I & 1))
      Ordered.erase(Jt);
    else
      Ordered.emplace(X & 65535, K);
  }
  return Acc + Hash.size() + Ordered.size();
}
} // namespace

// The first, untimed run brings the probe's memory back into the cache
// after whatever operation ran before it; only the second run is timed, so
// the figure reflects the host's speed and not the working set the
// operation left behind. About a millisecond and a half in all.
std::int64_t wsbench::hostProbeNs() {
  ProbeSink = probeKernel();
  std::int64_t T0 = nowNs();
  ProbeSink = probeKernel();
  return nowNs() - T0;
}

SpanRecorder &wsbench::spans() {
  static SpanRecorder R;
  return R;
}

namespace {

struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Report, SpansPath;
  bool Quick = false;
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "wsbench: %s\nusage: wsbench --workload lanes|pipes|nona|serve"
               " --seed N --seconds S --report FILE [--trace]"
               " [--spans FILE] [--quick]\n",
               Why);
  std::exit(2);
}

Options parse(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value for " + A).c_str());
      return Argv[++I];
    };
    if (A == "--workload")
      O.Workload = Value();
    else if (A == "--seed")
      O.Seed = std::strtoull(Value().c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(Value().c_str(), nullptr);
    else if (A == "--report")
      O.Report = Value();
    else if (A == "--spans")
      O.SpansPath = Value();
    else if (A == "--quick")
      O.Quick = true;
    else if (A == "--trace")
      O.Trace = true;
    else
      usage(("unknown argument " + A).c_str());
  }
  if (O.Workload.empty() || O.Report.empty())
    usage("--workload and --report are required");
  return O;
}

void (*workloadFn(const std::string &W))(Pass &) {
  if (W == "lanes")
    return runLanes;
  if (W == "pipes")
    return runPipes;
  if (W == "nona")
    return runNona;
  if (W == "serve")
    return runServe;
  usage(("unknown workload " + W).c_str());
}

using Named = std::map<std::string, double>;

/// The deterministic part of a pass that every kind must reproduce: the
/// simulated outcomes, the operation verdicts and the program-state counts.
Named simDigest(const Pass &P) {
  Named D = P.Outcomes;
  for (const auto &[K, V] : P.Counts)
    D["count." + K] = V;
  const Tally &T = P.T;
  D["attempted"] = static_cast<double>(P.Attempted);
  D["failed"] = static_cast<double>(P.Failed);
  D["retired"] = static_cast<double>(T.Retired);
  D["busy_core_s"] = T.BusyCoreSec;
  D["core_s"] = T.CoreSec;
  D["compute"] = static_cast<double>(T.Compute);
  D["comm"] = static_cast<double>(T.Comm);
  D["overhead"] = static_cast<double>(T.Overhead);
  D["regions"] = static_cast<double>(T.Regions);
  D["reconfigs"] = static_cast<double>(T.Reconfigs);
  D["full_pauses"] = static_cast<double>(T.FullPauses);
  D["recoveries"] = static_cast<double>(T.Recoveries);
  D["task_restarts"] = static_cast<double>(T.TaskRestarts);
  D["ctrl_transitions"] = static_cast<double>(T.CtrlTransitions);
  D["ctrl_ms_to_monitor"] = T.CtrlMsToMonitor;
  D["ctrl_monitored"] = static_cast<double>(T.CtrlMonitored);
  D["mech_decisions"] = static_cast<double>(T.MechDecisions);
  D["slo_transfers"] = static_cast<double>(T.SloTransfers);
  D["wd_detections"] = static_cast<double>(T.WdDetections);
  D["wd_recoveries"] = static_cast<double>(T.WdRecoveries);
  D["wd_surgical"] = static_cast<double>(T.WdSurgical);
  D["wd_speculations"] = static_cast<double>(T.WdSpeculations);
  D["wd_mttr_ms"] = T.WdMttrMs;
  D["serve_admitted"] = static_cast<double>(T.ServeAdmitted);
  D["serve_rejected"] = static_cast<double>(T.ServeRejected);
  D["serve_shed"] = static_cast<double>(T.ServeShed);
  D["serve_batches"] = static_cast<double>(T.ServeBatches);
  D["serve_batched"] = static_cast<double>(T.ServeBatched);
  D["serve_queue_wait_p99_ms"] = T.ServeQueueWaitP99Ms;
  D["serve_service_p99_ms"] = T.ServeServiceP99Ms;
  return D;
}

/// The event core's counts. A counters pass runs with a trace recorder
/// installed, whose machine telemetry schedules flush events of its own,
/// so these are compared within a kind (and plain against traced).
Named eventDigest(const Pass &P) {
  return {{"events", static_cast<double>(P.T.Events)},
          {"ring_hits", static_cast<double>(P.T.RingHits)},
          {"wheel_hits", static_cast<double>(P.T.WheelHits)},
          {"heap_hits", static_cast<double>(P.T.HeapHits)}};
}

Named probeDigest(const Probe &Pr) {
  return {{"fn_calls", static_cast<double>(Pr.FnCalls)},
          {"link_tokens", static_cast<double>(Pr.LinkTokens)},
          {"claims", static_cast<double>(Pr.Claims)},
          {"claimed_items", static_cast<double>(Pr.ClaimedItems)},
          {"claim_waits", static_cast<double>(Pr.ClaimWaits)},
          {"rewound", static_cast<double>(Pr.Rewound)},
          {"link_pressure_max", Pr.LinkPressureMax},
          {"decides", static_cast<double>(Pr.Decides)}};
}

/// Names the first entry where \p B differs from \p A, or "".
std::string firstDiff(const Named &A, const Named &B) {
  for (const auto &[K, V] : A) {
    auto It = B.find(K);
    if (It == B.end())
      return K + " (missing)";
    if (It->second != V)
      return K;
  }
  for (const auto &[K, V] : B)
    if (!A.count(K))
      return K + " (extra)";
  return "";
}

void jsonString(std::FILE *F, const std::string &S) {
  std::fputc('"', F);
  for (char C : S) {
    if (C == '"' || C == '\\')
      std::fputc('\\', F);
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    std::fputc(C, F);
  }
  std::fputc('"', F);
}

void jsonNamed(std::FILE *F, const Named &M) {
  std::fputc('{', F);
  bool First = true;
  for (const auto &[K, V] : M) {
    std::fputs(First ? "" : ", ", F);
    jsonString(F, K);
    std::fprintf(F, ": %.17g", V);
    First = false;
  }
  std::fputc('}', F);
}

void jsonList(std::FILE *F, const std::vector<double> &L) {
  std::fputc('[', F);
  for (std::size_t I = 0; I < L.size(); ++I)
    std::fprintf(F, "%s%.9g", I ? ", " : "", L[I]);
  std::fputc(']', F);
}

void jsonStrings(std::FILE *F, const std::vector<std::string> &L) {
  std::fputc('[', F);
  for (std::size_t I = 0; I < L.size(); ++I) {
    std::fputs(I ? ", " : "", F);
    jsonString(F, L[I]);
  }
  std::fputc(']', F);
}

struct KindSamples {
  std::vector<double> HostS, SetupS, CheckS, ProbeS;
  std::map<std::string, std::vector<double>> HostFigures;
  bool HaveEvents = false;
  Named Events;
};

/// Peak resident set of the process less the probe's arena, which is
/// benchmark memory resident for the whole run.
double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  double ProbeMb =
      static_cast<double>(probeArena().size()) / (1024.0 * 1024.0);
  return static_cast<double>(U.ru_maxrss) / 1024.0 - ProbeMb; // KiB -> MiB
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt = parse(Argc, Argv);
  void (*Run)(Pass &) = workloadFn(Opt.Workload);
  std::vector<Kind> Kinds{Kind::Plain};
  if (Opt.Trace)
    Kinds = {Kind::Plain, Kind::Traced, Kind::Counters};

  std::map<Kind, KindSamples> Samples;
  Named Registry, ProbeRef;
  bool HaveProbe = false, HaveRegistry = false;
  unsigned TracedPasses = 0;

  auto RunPass = [&](Kind K, unsigned RunId, bool CrossCheck) {
    Pass P(K, Opt.Seed, Opt.Quick);
    P.CrossCheck = CrossCheck;
    parcae::telemetry::TraceRecorder Rec(/*Capacity=*/0);
    if (K == Kind::Counters)
      parcae::telemetry::setRecorder(&Rec);
    spans().setOn(K == Kind::Traced);
    spans().setRunId(RunId);
    {
      Span W(SpWorkload);
      Run(P);
    }
    P.endOp(); // whatever ran after the last operation
    spans().setOn(false);
    parcae::telemetry::setRecorder(nullptr);
    if (K == Kind::Counters && !HaveRegistry) {
      for (const auto &Row : Rec.metrics().snapshot(0).Rows)
        if (Row.K == parcae::telemetry::MetricRow::Kind::Counter)
          Registry[Row.Name] += Row.Value;
      HaveRegistry = true;
    }
    return P;
  };

  // Warm-up: fills caches and lazy set-up, and fixes the reference every
  // later pass must reproduce.
  Pass Reference = RunPass(Kind::Plain, 0, /*CrossCheck=*/true);
  std::vector<std::string> Gates = Reference.Gates;
  Named SimRef = simDigest(Reference);
  Named EventsRef = eventDigest(Reference);

  std::int64_t Start = nowNs();
  std::int64_t Window = static_cast<std::int64_t>(Opt.Seconds * 1e9);
  unsigned MinPerKind = Opt.Quick ? 1 : 3;
  for (unsigned I = 0;; ++I) {
    Kind K = Kinds[I % Kinds.size()];
    KindSamples &S = Samples[K];
    Pass P = RunPass(K, I + 1, /*CrossCheck=*/false);
    S.HostS.push_back(static_cast<double>(P.HostNs) * 1e-9);
    S.SetupS.push_back(static_cast<double>(P.SetupNs) * 1e-9);
    S.CheckS.push_back(static_cast<double>(P.CheckNs) * 1e-9);
    S.ProbeS.push_back(static_cast<double>(P.ProbeNs) * 1e-9 / P.Probes);
    for (const auto &[Name, V] : P.HostFigures)
      S.HostFigures[Name].push_back(V);
    if (K == Kind::Traced)
      ++TracedPasses;

    std::string D = firstDiff(SimRef, simDigest(P));
    if (!D.empty())
      Gates.push_back(std::string("determinism: ") + kindName(K) + " pass " +
                      std::to_string(I + 1) + " differs in " + D);
    Named E = eventDigest(P);
    if (!S.HaveEvents) {
      S.Events = E;
      S.HaveEvents = true;
    } else if (!(D = firstDiff(S.Events, E)).empty())
      Gates.push_back(std::string("determinism: ") + kindName(K) +
                      " event counts differ between passes in " + D);
    if (K != Kind::Counters && !(D = firstDiff(EventsRef, E)).empty())
      Gates.push_back(std::string("determinism: ") + kindName(K) +
                      " event counts differ from the untraced pass in " + D);
    if (K == Kind::Traced) {
      Named PD = probeDigest(P.Pr);
      if (!HaveProbe) {
        ProbeRef = PD;
        HaveProbe = true;
      } else if (!(D = firstDiff(ProbeRef, PD)).empty())
        Gates.push_back("determinism: traced boundary counts differ in " + D);
    }

    std::int64_t Now = nowNs();
    bool Enough = true;
    for (Kind Want : Kinds)
      Enough &= Samples[Want].HostS.size() >= MinPerKind;
    if (Now - Start >= Window && Enough && (I + 1) % Kinds.size() == 0)
      break;
    // Never run past four windows, whatever the host speed.
    if (Now - Start >= 4 * Window && Enough)
      break;
  }

  if (!Opt.SpansPath.empty() && TracedPasses > 0 &&
      !spans().write(Opt.SpansPath.c_str())) {
    std::fprintf(stderr, "wsbench: cannot write %s\n", Opt.SpansPath.c_str());
    return 1;
  }

  std::FILE *F = std::fopen(Opt.Report.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "wsbench: cannot write %s\n", Opt.Report.c_str());
    return 1;
  }
  std::fprintf(F, "{\"workload\": ");
  jsonString(F, Opt.Workload);
  std::fprintf(F, ", \"seed\": %llu, \"quick\": %s,\n",
               static_cast<unsigned long long>(Opt.Seed),
               Opt.Quick ? "true" : "false");
  std::fprintf(F, "\"attempted\": %llu, \"failed\": %llu, "
                  "\"wrong_outputs\": %llu,\n\"failures\": ",
               static_cast<unsigned long long>(Reference.Attempted),
               static_cast<unsigned long long>(Reference.Failed),
               static_cast<unsigned long long>(Reference.WrongOutputs));
  jsonStrings(F, Reference.Failures);
  std::fprintf(F, ",\n\"gates\": ");
  jsonStrings(F, Gates);
  std::fprintf(F, ",\n\"bounds\": {");
  bool First = true;
  for (const auto &[K, V] : Reference.Bounds) {
    std::fputs(First ? "" : ", ", F);
    jsonString(F, K);
    std::fputs(": ", F);
    jsonString(F, V);
    First = false;
  }
  std::fprintf(F, "},\n\"sim\": ");
  jsonNamed(F, SimRef);
  std::fprintf(F, ",\n\"passes\": {");
  First = true;
  for (auto &[K, S] : Samples) {
    std::fprintf(F, "%s\n  \"%s\": {\"host_s\": ", First ? "" : ",",
                 kindName(K));
    jsonList(F, S.HostS);
    std::fprintf(F, ", \"setup_s\": ");
    jsonList(F, S.SetupS);
    std::fprintf(F, ", \"check_s\": ");
    jsonList(F, S.CheckS);
    std::fprintf(F, ", \"probe_s\": ");
    jsonList(F, S.ProbeS);

    for (const auto &[Name, L] : S.HostFigures) {
      std::fprintf(F, ", ");
      jsonString(F, Name);
      std::fprintf(F, ": ");
      jsonList(F, L);
    }
    std::fprintf(F, ", \"events\": ");
    jsonNamed(F, S.Events);
    std::fputc('}', F);
    First = false;
  }
  std::fprintf(F, "},\n\"probe\": ");
  jsonNamed(F, HaveProbe ? ProbeRef : Named{});
  std::fprintf(F, ",\n\"registry\": ");
  jsonNamed(F, Registry);
  std::fprintf(F, ",\n\"spans\": {\"traced_passes\": %u", TracedPasses);
  for (unsigned N = 0; N < NumSpanNames; ++N) {
    SpanAgg A = spans().total(static_cast<SpanName>(N));
    std::fprintf(F, ", \"%s\": {\"count\": %llu, \"total_ns\": %lld, "
                    "\"self_ns\": %lld}",
                 spanName(N), static_cast<unsigned long long>(A.Count),
                 static_cast<long long>(A.TotalNs),
                 static_cast<long long>(A.SelfNs));
  }
  std::fprintf(F, "},\n\"peak_rss_mb\": %.6g}\n", peakRssMb());
  if (std::fclose(F) != 0) {
    std::fprintf(stderr, "wsbench: cannot write %s\n", Opt.Report.c_str());
    return 1;
  }
  return 0;
}
