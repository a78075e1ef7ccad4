//===- TelemetryTest.cpp - Tests for tracing, metrics, and export ----------===//

#include "telemetry/ChromeTrace.h"
#include "telemetry/Telemetry.h"

#include "morta/Controller.h"
#include "morta/Platform.h"
#include "morta/RegionRunner.h"
#include "morta/Watchdog.h"
#include "serve/Admission.h"
#include "serve/Arrival.h"
#include "serve/ServeLoop.h"
#include "sim/Machine.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <string>

using namespace parcae;
using namespace parcae::telemetry;
namespace rt = parcae::rt;

namespace {

/// Installs \p R as the process-wide sink for one test body.
struct ScopedRecorder {
  explicit ScopedRecorder(TraceRecorder *R) { setRecorder(R); }
  ~ScopedRecorder() { setRecorder(nullptr); }
};

rt::FlexibleRegion makeTinyRegion() {
  rt::FlexibleRegion Region("tiny");
  rt::RegionDesc Par;
  Par.Name = "tiny-doany";
  Par.S = rt::Scheme::DoAny;
  Par.Tasks.emplace_back("work", rt::TaskType::Par,
                         [](rt::IterationContext &C) { C.Cost = 20000; });
  Region.addVariant(std::move(Par));
  rt::RegionDesc Seq;
  Seq.Name = "tiny-seq";
  Seq.S = rt::Scheme::Seq;
  Seq.Tasks.emplace_back("all", rt::TaskType::Seq,
                         [](rt::IterationContext &C) { C.Cost = 20000; });
  Region.addVariant(std::move(Seq));
  return Region;
}

/// Value of counter row \p Name in the registry now; 0 when unlisted.
double counterRow(const MetricsRegistry &M, const std::string &Name) {
  for (const MetricRow &Row : M.snapshot(0).Rows)
    if (Row.K == MetricRow::Kind::Counter && Row.Name == Name)
      return Row.Value;
  return 0.0;
}

/// Expects every counter row named in \p Want to hold its value.
void expectRows(const MetricsRegistry &M,
                const std::map<std::string, double> &Want) {
  for (const auto &[Name, Value] : Want)
    EXPECT_EQ(counterRow(M, Name), Value) << Name;
}

} // namespace

TEST(TraceRecorder, SpansFollowVirtualTime) {
  sim::Simulator Sim;
  TraceRecorder R;
  R.bindClock(Sim);
  std::uint32_t Pid = R.processFor("p");

  R.begin(Pid, 0, "t", "outer");
  Sim.schedule(10 * sim::USec, [&] { R.begin(Pid, 0, "t", "inner"); });
  Sim.schedule(30 * sim::USec, [&] { R.end(Pid, 0, "t", "inner"); });
  Sim.schedule(50 * sim::USec, [&] { R.end(Pid, 0, "t", "outer"); });
  Sim.run();

  ASSERT_EQ(R.size(), 4u);
  const auto &E = R.events();
  EXPECT_EQ(E[0].Ph, Phase::Begin);
  EXPECT_EQ(E[0].Ts, 0u);
  EXPECT_EQ(E[1].Name, "inner");
  EXPECT_EQ(E[1].Ts, 10 * sim::USec);
  EXPECT_EQ(E[2].Ph, Phase::End);
  EXPECT_EQ(E[2].Ts, 30 * sim::USec);
  EXPECT_EQ(E[3].Name, "outer");
  EXPECT_EQ(E[3].Ts, 50 * sim::USec);
}

TEST(TraceRecorder, StablePidsAndThreadNames) {
  TraceRecorder R;
  std::uint32_t A = R.processFor("alpha");
  std::uint32_t B = R.processFor("beta");
  EXPECT_NE(A, B);
  EXPECT_EQ(R.processFor("alpha"), A);
  R.nameThread(A, 3, "core 3");
  R.nameThread(A, 3, "core three"); // renames, no duplicate
  ASSERT_EQ(R.threadNames().size(), 1u);
  EXPECT_EQ(R.threadNames()[0].second, "core three");
}

TEST(TraceRecorder, RebindToFreshSimulatorRebasesTime) {
  TraceRecorder R;
  std::uint32_t Pid = R.processFor("p");
  {
    sim::Simulator Sim;
    R.bindClock(Sim);
    Sim.schedule(100 * sim::USec, [&] { R.instant(Pid, 0, "t", "a"); });
    Sim.run();
  }
  {
    // A fresh simulator restarts its clock at zero; the recorder must
    // rebase so the second run's events land after the first run's.
    sim::Simulator Sim;
    R.bindClock(Sim);
    Sim.schedule(5 * sim::USec, [&] { R.instant(Pid, 0, "t", "b"); });
    Sim.run();
  }
  ASSERT_EQ(R.size(), 2u);
  EXPECT_GT(R.events()[1].Ts, R.events()[0].Ts);
}

TEST(TraceRecorder, CapacityBoundsDropsNotGrows) {
  TraceRecorder R(/*Capacity=*/4);
  std::uint32_t Pid = R.processFor("p");
  for (int I = 0; I < 10; ++I)
    R.instant(Pid, 0, "t", "e");
  EXPECT_EQ(R.size(), 4u);
  EXPECT_EQ(R.dropped(), 6u);
}

TEST(TraceRecorder, NullSinkRecordsNothingAndSkipsArgs) {
  TraceRecorder *Null = nullptr;
  int Evaluated = 0;
  if (Null)
    Null->instant(0, 0, "t", (++Evaluated, std::string("e")));
  EXPECT_EQ(Evaluated, 0); // argument expressions must not run
  EXPECT_EQ(recorder(), nullptr) << "tracing must be off by default";
}

TEST(Metrics, CountersGaugesHistograms) {
  MetricsRegistry M;
  EXPECT_TRUE(M.empty());
  std::uint64_t C = 0;
  CounterExport E;
  E.bind(M);
  E.add("c", C);
  C += 5;
  M.gauge("g").set(2.5);
  Histogram &H = M.histogram("h");
  for (int I = 1; I <= 100; ++I)
    H.add(I);

  MetricsSnapshot S = M.snapshot(7 * sim::USec);
  EXPECT_EQ(S.At, 7 * sim::USec);
  ASSERT_EQ(S.Rows.size(), 3u);
  // Rows are sorted by name: c, g, h.
  EXPECT_EQ(S.Rows[0].Name, "c");
  EXPECT_DOUBLE_EQ(S.Rows[0].Value, 5.0);
  EXPECT_EQ(S.Rows[1].Name, "g");
  EXPECT_DOUBLE_EQ(S.Rows[1].Value, 2.5);
  EXPECT_EQ(S.Rows[2].Name, "h");
  EXPECT_DOUBLE_EQ(S.Rows[2].P50, 50.0);
  EXPECT_DOUBLE_EQ(S.Rows[2].P95, 95.0);
  EXPECT_DOUBLE_EQ(S.Rows[2].P99, 99.0);

  std::string Text = S.text();
  EXPECT_NE(Text.find("counter c 5"), std::string::npos);
  EXPECT_NE(Text.find("gauge g"), std::string::npos);
  EXPECT_NE(Text.find("histogram h"), std::string::npos);
}

TEST(Metrics, ExportsReadLiveValuesAndFoldOnTeardown) {
  auto M = std::make_unique<MetricsRegistry>();
  std::uint64_t A = 0, B = 0, Zero = 0;
  auto EA = std::make_unique<CounterExport>();
  EA->bind(*M);
  EA->add("n", A);
  EA->add("zero", Zero, Listing::Always);
  EXPECT_EQ(M->snapshot(0).Rows.size(), 1u)
      << "a zero NonZero row stays unlisted; an Always row is listed";
  EXPECT_EQ(counterRow(*M, "zero"), 0.0);

  A = 3;
  EXPECT_EQ(counterRow(*M, "n"), 3.0) << "snapshots read the live value";
  {
    CounterExport EB;
    EB.bind(*M);
    EB.add("n", [&B] { return B * 2; });
    B = 2;
    EXPECT_EQ(counterRow(*M, "n"), 7.0) << "exports of one name sum";
  }
  EXPECT_EQ(counterRow(*M, "n"), 7.0) << "a destroyed export's final value";
  A = 4;
  EXPECT_EQ(counterRow(*M, "n"), 8.0);

  // A registry torn down first detaches its exports.
  M.reset();
  A = 5;
  EA.reset();
}

TEST(Metrics, MachineTeardownCapturesSimQueueGauges) {
  // Machine's destructor snapshots the simulator's event-queue tier
  // counters into sim.queue.* gauges (it runs while the simulator is
  // still alive; TraceFile's destructor does not).
  TraceRecorder Rec;
  ScopedRecorder Scope(&Rec);
  sim::Simulator Sim;
  Rec.bindClock(Sim);
  {
    sim::Machine M(Sim, 2);
    for (int I = 1; I <= 5; ++I)
      Sim.schedule(static_cast<sim::SimTime>(I) * 10, [] {});
    Sim.run();
  }
  MetricsSnapshot S = Rec.metrics().snapshot(Sim.now());
  std::map<std::string, double> Queue;
  for (const MetricRow &Row : S.Rows)
    if (Row.Name.rfind("sim.queue.", 0) == 0)
      Queue[Row.Name] = Row.Value;
  // The five timed events came off the heap; nothing was due-now.
  EXPECT_EQ(Queue, (std::map<std::string, double>{
                       {"sim.queue.heap_hits", 5.0},
                       {"sim.queue.ring_hits", 0.0}}));
}

TEST(ChromeTrace, ExportParsesBackWithRequiredKeys) {
  sim::Simulator Sim;
  TraceRecorder R;
  R.bindClock(Sim);
  std::uint32_t Pid = R.processFor("prog");
  R.nameThread(Pid, 1, "task work");
  Sim.schedule(2 * sim::USec, [&] {
    R.begin(Pid, 1, "task", "span",
            {TraceArg::num("n", 3), TraceArg::str("s", "v")});
  });
  Sim.schedule(9 * sim::USec, [&] { R.end(Pid, 1, "task", "span"); });
  Sim.schedule(9 * sim::USec, [&] { R.counter(Pid, 1, "task", "iters", 42); });
  Sim.run();

  std::string Json = toChromeTraceJson(R);
  json::Value V;
  std::string Err;
  ASSERT_TRUE(json::parse(Json, V, &Err)) << Err;

  const json::Value *Events = V.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_EQ(Events->K, json::Value::Kind::Arr);
  ASSERT_FALSE(Events->Arr.empty());

  bool SawProcessName = false, SawSpanBegin = false, SawCounter = false;
  for (const json::Value &E : Events->Arr) {
    ASSERT_NE(E.find("name"), nullptr);
    ASSERT_NE(E.find("ph"), nullptr);
    ASSERT_NE(E.find("pid"), nullptr);
    ASSERT_NE(E.find("tid"), nullptr);
    const std::string &Ph = E.find("ph")->Str;
    if (Ph != "M")
      ASSERT_NE(E.find("ts"), nullptr);
    if (Ph == "M" && E.find("name")->Str == "process_name")
      SawProcessName = true;
    if (Ph == "B" && E.find("name")->Str == "span") {
      SawSpanBegin = true;
      const json::Value *Args = E.find("args");
      ASSERT_NE(Args, nullptr);
      EXPECT_DOUBLE_EQ(Args->find("n")->Num, 3.0);
      EXPECT_EQ(Args->find("s")->Str, "v");
      // Exported timestamps are microseconds.
      EXPECT_DOUBLE_EQ(E.find("ts")->Num, 2.0);
    }
    if (Ph == "C" && E.find("name")->Str == "iters") {
      SawCounter = true;
      EXPECT_DOUBLE_EQ(E.find("args")->find("value")->Num, 42.0);
    }
  }
  EXPECT_TRUE(SawProcessName);
  EXPECT_TRUE(SawSpanBegin);
  EXPECT_TRUE(SawCounter);

  EXPECT_TRUE(validateChromeTrace(Json, &Err)) << Err;
}

TEST(ChromeTrace, ValidatorRejectsGarbage) {
  std::string Err;
  EXPECT_FALSE(validateChromeTrace("not json", &Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(validateChromeTrace("{\"traceEvents\": []}", &Err));
  EXPECT_FALSE(validateChromeTrace(
      "{\"traceEvents\": [{\"ph\": \"B\"}]}", &Err));
}

TEST(Telemetry, ControlledRunProducesValidTrace) {
  TraceRecorder R;
  ScopedRecorder Install(&R);

  sim::Simulator Sim;
  sim::Machine M(Sim, 4);
  rt::RuntimeCosts Costs;
  rt::FlexibleRegion Region = makeTinyRegion();
  rt::CountedWorkSource Work(100000);
  rt::RegionRunner Runner(M, Costs, Region, Work);
  rt::RegionController Ctrl(Runner);
  Ctrl.start(4);
  Sim.runUntil(100 * sim::MSec);

  ASSERT_GT(R.size(), 0u);
  bool SawCalibrate = false, SawCoreSpan = false;
  for (const TraceEvent &E : R.events()) {
    if (E.Ph == Phase::Begin && E.Name == "CALIBRATE")
      SawCalibrate = true;
    if (E.Ph == Phase::Begin && std::string(E.Cat) == "core")
      SawCoreSpan = true;
  }
  EXPECT_TRUE(SawCalibrate) << "controller FSM spans missing";
  EXPECT_TRUE(SawCoreSpan) << "per-core busy spans missing";
  EXPECT_GT(M.counts().Slices, 0u);
  EXPECT_EQ(counterRow(R.metrics(), "machine.slices"),
            static_cast<double>(M.counts().Slices));

  std::string Err;
  EXPECT_TRUE(validateChromeTrace(toChromeTraceJson(R), &Err)) << Err;
}

// The counters a metrics dump reports are the components' own fields:
// a mid-run snapshot equals the live accessors, and once the components
// are gone the rows keep the values the accessors last read.

TEST(Telemetry, FaultedRunCountersHaveOneSource) {
  TraceRecorder R;
  ScopedRecorder Install(&R);
  sim::Simulator Sim;
  std::map<std::string, double> Last;
  {
    sim::Machine M(Sim, 8);
    sim::FaultPlan Plan;
    Plan.addOffline(7, 3 * sim::MSec);
    Plan.addDomain("socket0", {5, 6}, 6 * sim::MSec,
                   /*Downtime=*/4 * sim::MSec);
    Plan.addTransient("work", 40, 2);
    M.installFaultPlan(std::move(Plan));
    rt::RuntimeCosts Costs;
    rt::FlexibleRegion Region = makeTinyRegion();
    rt::CountedWorkSource Work(1000000);
    rt::RegionRunner Runner(M, Costs, Region, Work);
    rt::RegionController Ctrl(Runner);
    rt::Watchdog Dog(Ctrl);
    Ctrl.start(8);
    Dog.start();
    auto Live = [&]() -> std::map<std::string, double> {
      const sim::Machine::Counts &C = M.counts();
      return {
          {"machine.slices", C.Slices},
          {"machine.ctx_switches", C.CtxSwitches},
          {"machine.faults.offline", C.Offlines},
          {"machine.faults.rescued", C.Rescued},
          {"machine.repairs", M.repairsApplied()},
          {"watchdog.detections", Dog.detections()},
          {"watchdog.growths", Dog.growthsDetected()},
          {"watchdog.recoveries", Dog.recoveriesCompleted()},
          {"runner.tiny.reconfigs",
           Runner.reconfigurations() - Runner.recoveries()},
          {"runner.tiny.full_pauses", Runner.fullPauses()},
          {"runner.tiny.recoveries", Runner.recoveries()},
          {"exec.tiny-doany.faults",
           static_cast<double>(Runner.totalFaults())},
      };
    };
    Sim.runUntil(8 * sim::MSec);
    expectRows(R.metrics(), Live());
    Sim.runUntil(30 * sim::MSec);
    Last = Live();
    EXPECT_GT(Last["machine.faults.offline"], 0.0);
    EXPECT_GT(Last["machine.repairs"], 0.0);
    EXPECT_GT(Last["watchdog.detections"], 0.0);
    EXPECT_GT(Last["exec.tiny-doany.faults"], 0.0);
    expectRows(R.metrics(), Last);
  }
  expectRows(R.metrics(), Last);
}

TEST(Telemetry, BatchedServeCountersHaveOneSource) {
  TraceRecorder R;
  ScopedRecorder Install(&R);
  sim::Simulator Sim;
  std::map<std::string, double> Last;
  {
    sim::Machine M(Sim, 4);
    sim::FaultPlan Plan;
    Plan.addDomain("socket1", {2, 3}, /*At=*/30 * sim::MSec,
                   /*Downtime=*/20 * sim::MSec, /*Warning=*/5 * sim::MSec);
    M.installFaultPlan(std::move(Plan));
    rt::RuntimeCosts Costs;
    rt::PlatformDaemon Daemon(4);
    serve::ServeLoop Serve(M, Costs, Daemon);
    serve::RequestClassDesc D;
    D.Name = "svc";
    D.MakeRegion = [](const serve::ServeRequest &) {
      rt::FlexibleRegion Region("svc");
      rt::RegionDesc Par;
      Par.Name = "svc-par";
      Par.S = rt::Scheme::DoAny;
      Par.Tasks.emplace_back(
          "work", rt::TaskType::Par,
          [](rt::IterationContext &C) { C.Cost = 400000; });
      Region.addVariant(std::move(Par));
      return Region;
    };
    D.ItersPerRequest = 4;
    D.Config = {rt::Scheme::DoAny, {2}};
    D.QueueCapacity = 6;
    D.Policy = std::make_unique<serve::DeadlineEarlyDrop>(3 * sim::MSec);
    D.Batch = {4, 2 * sim::MSec, 0.5};
    unsigned Idx = Serve.addClass(std::move(D));
    Serve.startArrivals(Idx,
                        std::make_unique<serve::PoissonArrivals>(3000.0, 42));
    auto Live = [&]() -> std::map<std::string, double> {
      const serve::ServeLoop::ClassStats &S = Serve.stats(Idx);
      return {
          {"serve.admitted", S.Admitted},
          {"serve.rejected", S.Rejected},
          {"serve.shed", S.Shed},
          {"serve.migrated_batches", Serve.migratedBatches()},
          {"platform.repartitions", Daemon.repartitions()},
          {"platform.slo_transfers", Daemon.sloTransfers().size()},
          {"machine.slices", M.counts().Slices},
          {"machine.faults.domain_warnings", M.counts().DomainWarnings},
      };
    };
    Sim.runUntil(20 * sim::MSec);
    expectRows(R.metrics(), Live());
    Sim.runUntil(60 * sim::MSec);
    Serve.stopArrivals(Idx);
    Sim.run();
    Last = Live();
    EXPECT_GT(Last["serve.rejected"], 0.0);
    EXPECT_GT(Last["serve.shed"], 0.0);
    EXPECT_GT(Last["serve.migrated_batches"], 0.0);
    EXPECT_GT(Serve.batchStats(Idx).requestsPerRegion(), 1.0);
    expectRows(R.metrics(), Last);
  }
  expectRows(R.metrics(), Last);
}

TEST(Telemetry, RunnersOfOneRegionAddIntoOneRow) {
  TraceRecorder R;
  ScopedRecorder Install(&R);
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  rt::RuntimeCosts Costs;
  rt::FlexibleRegion Region = makeTinyRegion();
  rt::CountedWorkSource WorkA(1000000), WorkB(1000000);
  double Reconfigs = 0, Pauses = 0;
  {
    rt::RegionRunner A(M, Costs, Region, WorkA);
    rt::RegionRunner B(M, Costs, Region, WorkB);
    A.start({rt::Scheme::DoAny, {2}});
    B.start({rt::Scheme::DoAny, {2}});
    Sim.schedule(1 * sim::MSec, [&] {
      A.reconfigure({rt::Scheme::Seq, {1}});
      B.reconfigure({rt::Scheme::DoAny, {3}});
    });
    Sim.schedule(3 * sim::MSec, [&] { A.reconfigure({rt::Scheme::DoAny, {4}}); });
    Sim.runUntil(6 * sim::MSec);
    Reconfigs = A.reconfigurations() + B.reconfigurations();
    Pauses = A.fullPauses() + B.fullPauses();
    EXPECT_EQ(Reconfigs, 3.0);
    EXPECT_GT(A.fullPauses(), 0u);
    EXPECT_GT(B.reconfigurations(), 0u);
    EXPECT_EQ(counterRow(R.metrics(), "runner.tiny.reconfigs"), Reconfigs);
    EXPECT_EQ(counterRow(R.metrics(), "runner.tiny.full_pauses"), Pauses);
  }
  EXPECT_EQ(counterRow(R.metrics(), "runner.tiny.reconfigs"), Reconfigs);
  EXPECT_EQ(counterRow(R.metrics(), "runner.tiny.full_pauses"), Pauses);
}

TEST(Telemetry, MetricsDumpOutlivesTheSimulator) {
  // TraceFile writes the dump after every simulation object is gone; it
  // must stamp the snapshot without reading the dead simulator's clock.
  std::string Path = testing::TempDir() + "parcae_dump.trace.json";
  {
    TraceFile Trace(Path.c_str());
    sim::Simulator Sim;
    sim::Machine M(Sim, 2);
    Sim.schedule(250 * sim::USec, [&] {
      Trace.recorder()->instant(0, 0, "t", "last");
    });
    Sim.run();
  }
  std::ifstream In(Path + ".metrics.txt");
  std::string Header;
  ASSERT_TRUE(std::getline(In, Header));
  EXPECT_EQ(Header, "# metrics at t=0.000250 s");
}
