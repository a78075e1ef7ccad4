//===- ServeTest.cpp - Serving-layer tests ---------------------------------===//
//
// Tests of the open-loop serving layer: seeded arrival processes (Poisson,
// bursty, trace replay + CSV parsing), admission control, the ServeLoop
// broker end-to-end on a small machine, and the platform daemon's tenant
// interface — slack handoff, the ShrunkToFit oscillation guard, and the
// SLO arbitration pass (violator gains from meeter, hand-back on load
// drop) — plus the SLO window checked against a brute-force nearest
// rank and the percentile-cache regression for the stats layer.
//
//===----------------------------------------------------------------------===//

#include "morta/Platform.h"
#include "serve/Admission.h"
#include "serve/Arrival.h"
#include "serve/ServeLoop.h"
#include "sim/Machine.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

using namespace parcae;
using namespace parcae::serve;

namespace {

//===----------------------------------------------------------------------===//
// Arrival processes
//===----------------------------------------------------------------------===//

/// Collects the first \p N delays of an arrival process, advancing a
/// virtual cursor the way ServeLoop does.
std::vector<sim::SimTime> firstDelays(ArrivalProcess &A, std::size_t N) {
  std::vector<sim::SimTime> Out;
  sim::SimTime Now = 0;
  for (std::size_t I = 0; I < N; ++I) {
    std::optional<sim::SimTime> D = A.nextDelay(Now);
    if (!D)
      break;
    Out.push_back(*D);
    Now += *D;
  }
  return Out;
}

TEST(Arrival, PoissonSameSeedSameDelays) {
  PoissonArrivals A(1000.0, 42), B(1000.0, 42), C(1000.0, 43);
  std::vector<sim::SimTime> Da = firstDelays(A, 200);
  std::vector<sim::SimTime> Db = firstDelays(B, 200);
  std::vector<sim::SimTime> Dc = firstDelays(C, 200);
  ASSERT_EQ(Da.size(), 200u);
  EXPECT_EQ(Da, Db);                   // same seed => same stream
  EXPECT_NE(Da, Dc);                   // different seed => different stream
  // Mean inter-arrival of a 1000/s process is 1 ms; 200 draws land well
  // within a factor of two.
  sim::SimTime Sum = 0;
  for (sim::SimTime D : Da)
    Sum += D;
  double MeanMs = sim::toSeconds(Sum / Da.size()) * 1e3;
  EXPECT_GT(MeanMs, 0.5);
  EXPECT_LT(MeanMs, 2.0);
}

TEST(Arrival, BurstyIsDeterministicAndDenserInBursts) {
  // Quiet 100/s vs burst 10000/s with 10 ms dwell times: the rate gap is
  // big enough that mean delay over many draws sits far from quiet-only.
  BurstyArrivals A(100.0, 10000.0, 0.01, 0.01, 7);
  BurstyArrivals B(100.0, 10000.0, 0.01, 0.01, 7);
  std::vector<sim::SimTime> Da = firstDelays(A, 500);
  std::vector<sim::SimTime> Db = firstDelays(B, 500);
  ASSERT_EQ(Da.size(), 500u);
  EXPECT_EQ(Da, Db);
  sim::SimTime Sum = 0;
  for (sim::SimTime D : Da)
    Sum += D;
  double MeanSec = sim::toSeconds(Sum / Da.size());
  // Far below the quiet-only mean (10 ms): bursts dominate the draw count.
  EXPECT_LT(MeanSec, 0.005);
}

TEST(Arrival, TraceEndsSkipsZeroRateAndLoops) {
  // 0.5 s of silence, then 0.5 s at 1000/s, not looping.
  std::vector<TraceSegment> Curve = {{0.5, 0.0}, {0.5, 1000.0}};
  TraceArrivals A(Curve, 42);
  sim::SimTime Now = 0;
  std::optional<sim::SimTime> First = A.nextDelay(Now);
  ASSERT_TRUE(First.has_value());
  // The first arrival clears the zero-rate segment entirely.
  EXPECT_GE(*First, sim::fromSeconds(0.5));
  std::size_t Count = 1;
  Now += *First;
  while (true) {
    std::optional<sim::SimTime> D = A.nextDelay(Now);
    if (!D)
      break;
    Now += *D;
    ++Count;
  }
  EXPECT_LE(Now, sim::fromSeconds(1.0)); // every arrival inside the curve
  EXPECT_GT(Count, 100u);                // ~500 expected at 1000/s for 0.5 s
  // The same curve looped keeps producing past the one-second boundary.
  TraceArrivals L(Curve, 42, /*Loop=*/true);
  std::vector<sim::SimTime> Dl = firstDelays(L, 2000);
  EXPECT_EQ(Dl.size(), 2000u);
}

TEST(Arrival, TraceCsvRoundTripsAndRejectsMalformed) {
  std::string Path = testing::TempDir() + "/serve_trace.csv";
  {
    std::ofstream F(Path);
    F << "# diurnal curve\n"
      << "0.5, 100\n"
      << "\n"
      << "1.5, 2500\n";
  }
  auto Curve = TraceArrivals::parseCsv(Path);
  ASSERT_TRUE(Curve.has_value());
  ASSERT_EQ(Curve->size(), 2u);
  EXPECT_DOUBLE_EQ((*Curve)[0].DurationSec, 0.5);
  EXPECT_DOUBLE_EQ((*Curve)[0].RatePerSec, 100.0);
  EXPECT_DOUBLE_EQ((*Curve)[1].DurationSec, 1.5);
  EXPECT_DOUBLE_EQ((*Curve)[1].RatePerSec, 2500.0);

  {
    std::ofstream F(Path);
    F << "0.5, 100\n"
      << "not-a-number, 5\n";
  }
  EXPECT_FALSE(TraceArrivals::parseCsv(Path).has_value());
  EXPECT_FALSE(TraceArrivals::parseCsv(Path + ".does-not-exist").has_value());
}

//===----------------------------------------------------------------------===//
// Admission policies
//===----------------------------------------------------------------------===//

TEST(Admission, DropTailBoundsTheQueue) {
  DropTailAdmission P;
  ServeRequest R;
  EXPECT_TRUE(P.admit(R, 0, 4));
  EXPECT_TRUE(P.admit(R, 3, 4));
  EXPECT_FALSE(P.admit(R, 4, 4));
  EXPECT_FALSE(P.shedAtDispatch(R, 100 * sim::Sec)); // never sheds
}

TEST(Admission, DeadlineEarlyDropShedsStaleRequests) {
  DeadlineEarlyDrop P(10 * sim::MSec);
  ServeRequest R;
  R.ArrivedAt = 5 * sim::MSec;
  EXPECT_FALSE(P.shedAtDispatch(R, R.ArrivedAt + 10 * sim::MSec));
  EXPECT_TRUE(P.shedAtDispatch(R, R.ArrivedAt + 10 * sim::MSec + 1));
  EXPECT_TRUE(P.admit(R, 0, 4)); // drop-tail at arrival
  EXPECT_FALSE(P.admit(R, 4, 4));
}

//===----------------------------------------------------------------------===//
// ServeLoop end-to-end
//===----------------------------------------------------------------------===//

/// A single-task DOANY service region: each request costs \p Cost cycles.
rt::FlexibleRegion makeServiceRegion(const std::string &Name,
                                     sim::SimTime Cost) {
  rt::FlexibleRegion R(Name);
  rt::RegionDesc D;
  D.Name = Name + "-par";
  D.S = rt::Scheme::DoAny;
  D.Tasks.emplace_back("work", rt::TaskType::Par,
                       [Cost](rt::IterationContext &Ctx) { Ctx.Cost = Cost; });
  R.addVariant(std::move(D));
  return R;
}

TEST(ServeLoop, InjectedRequestsCompleteWithLatencyStats) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 4);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(4);
  ServeLoop Serve(M, Costs, Daemon);

  RequestClassDesc D;
  D.Name = "svc";
  D.MakeRegion = [](const ServeRequest &) {
    return makeServiceRegion("svc", 60000);
  };
  D.ItersPerRequest = 4;
  D.Config = {rt::Scheme::DoAny, {2}};
  unsigned Idx = Serve.addClass(std::move(D));

  for (int I = 0; I < 8; ++I)
    EXPECT_TRUE(Serve.inject(Idx));
  Sim.run();

  const ServeLoop::ClassStats &S = Serve.stats(Idx);
  EXPECT_EQ(S.Arrived, 8u);
  EXPECT_EQ(S.Admitted, 8u);
  EXPECT_EQ(S.Completed, 8u);
  EXPECT_EQ(S.Rejected, 0u);
  EXPECT_EQ(S.Shed, 0u);
  EXPECT_EQ(S.TotalUs.count(), 8u);
  EXPECT_GT(S.ServiceUs.mean(), 0.0);        // service took virtual time
  EXPECT_GT(S.QueueWaitUs.max(), 0.0);       // 8 requests on <= 2 slots queued
  EXPECT_EQ(Serve.queueDepth(Idx), 0u);
  EXPECT_EQ(Serve.inService(Idx), 0u);
  EXPECT_GE(Serve.recentLatencySec(Idx, 95), 0.0); // probe has a signal
}

TEST(ServeLoop, BoundedQueueRejectsAtArrival) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 2);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(2);
  ServeLoop Serve(M, Costs, Daemon);

  RequestClassDesc D;
  D.Name = "tiny";
  D.MakeRegion = [](const ServeRequest &) {
    return makeServiceRegion("tiny", 60000);
  };
  D.Config = {rt::Scheme::DoAny, {2}};
  D.QueueCapacity = 1;
  unsigned Idx = Serve.addClass(std::move(D));

  // First arrival dispatches immediately (budget 2 => one 2-wide slot),
  // the second queues, the third finds the queue full.
  EXPECT_TRUE(Serve.inject(Idx));
  EXPECT_TRUE(Serve.inject(Idx));
  EXPECT_FALSE(Serve.inject(Idx));
  EXPECT_EQ(Serve.stats(Idx).Rejected, 1u);
  Sim.run();
  EXPECT_EQ(Serve.stats(Idx).Completed, 2u);
}

TEST(ServeLoop, OnRequestDoneSeesShedRequests) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 2);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(2);
  ServeLoop Serve(M, Costs, Daemon);

  RequestClassDesc D;
  D.Name = "dl";
  D.MakeRegion = [](const ServeRequest &) {
    return makeServiceRegion("dl", 500000); // 0.5 ms per iteration
  };
  D.Config = {rt::Scheme::DoAny, {2}};
  // Anything that waits at all is shed at dispatch.
  D.Policy = std::make_unique<DeadlineEarlyDrop>(0);
  unsigned Idx = Serve.addClass(std::move(D));

  unsigned Done = 0, Shed = 0;
  Serve.OnRequestDone = [&](const ServeRequest &R) {
    R.Shed ? ++Shed : ++Done;
  };
  for (int I = 0; I < 4; ++I)
    Serve.inject(Idx);
  Sim.run();
  EXPECT_EQ(Done, 1u);  // the head-of-line request never waited
  EXPECT_EQ(Shed, 3u);  // everything queued blew its deadline
  EXPECT_EQ(Serve.stats(Idx).Shed, 3u);
}

TEST(ServeLoop, OpenLoopArrivalsDrainDeterministically) {
  auto RunOnce = [](std::uint64_t Seed) {
    sim::Simulator Sim;
    sim::Machine M(Sim, 4);
    rt::RuntimeCosts Costs;
    rt::PlatformDaemon Daemon(4);
    ServeLoop Serve(M, Costs, Daemon);

    RequestClassDesc D;
    D.Name = "open";
    D.MakeRegion = [](const ServeRequest &) {
      return makeServiceRegion("open", 60000);
    };
    D.Config = {rt::Scheme::DoAny, {2}};
    unsigned Idx = Serve.addClass(std::move(D));
    Serve.startArrivals(Idx,
                        std::make_unique<PoissonArrivals>(2000.0, Seed));
    Sim.runUntil(100 * sim::MSec);
    Serve.stopArrivals(Idx);
    Sim.run();
    const ServeLoop::ClassStats &S = Serve.stats(Idx);
    EXPECT_EQ(S.Admitted, S.Completed + S.Shed);
    return std::make_tuple(S.Arrived, S.Completed,
                           S.TotalUs.percentile(95));
  };
  auto A = RunOnce(42), B = RunOnce(42), C = RunOnce(7);
  EXPECT_GT(std::get<0>(A), 100u); // ~200 arrivals in 100 ms at 2000/s
  EXPECT_EQ(A, B);                 // same seed => identical world
  EXPECT_NE(A, C);                 // different seed => different world
}

TEST(ServeLoop, DomainWarningMigratesInFlightRequestsDeterministically) {
  // A warned failure domain mid-overload: the loop checkpoints every
  // in-flight request region, offlines the doomed cores, and resumes the
  // survivors — and the whole story (per-class goodput, admitted/shed
  // counters, migration count) replays identically under one seed.
  auto RunOnce = [](std::uint64_t Seed) {
    sim::Simulator Sim;
    sim::Machine M(Sim, 4);
    sim::FaultPlan Plan;
    Plan.addDomain("socket1", {2, 3}, /*At=*/50 * sim::MSec,
                   /*Downtime=*/30 * sim::MSec, /*Warning=*/5 * sim::MSec);
    M.installFaultPlan(std::move(Plan));
    rt::RuntimeCosts Costs;
    rt::PlatformDaemon Daemon(4);
    ServeLoop Serve(M, Costs, Daemon);

    RequestClassDesc D;
    D.Name = "mig";
    D.MakeRegion = [](const ServeRequest &) {
      // 2 ms of work per request: at 2000/s the class is overloaded, so
      // the warning always finds requests in flight to migrate.
      return makeServiceRegion("mig", 500000);
    };
    D.ItersPerRequest = 4;
    D.Config = {rt::Scheme::DoAny, {2}};
    unsigned Idx = Serve.addClass(std::move(D));
    Serve.startArrivals(Idx, std::make_unique<PoissonArrivals>(2000.0, Seed));
    Sim.runUntil(100 * sim::MSec);
    Serve.stopArrivals(Idx);
    Sim.run();

    EXPECT_GT(Serve.migrations(), 0u) << "nothing was in flight at the drain";
    EXPECT_EQ(Serve.drainsCompleted(), 1u);
    EXPECT_FALSE(Serve.draining());
    EXPECT_EQ(M.onlineCores(), 4u) << "domain repaired after its downtime";
    const ServeLoop::ClassStats &S = Serve.stats(Idx);
    EXPECT_EQ(S.Admitted, S.Completed + S.Shed);
    return std::make_tuple(S.Arrived, S.Admitted, S.Rejected, S.Shed,
                           S.Completed, Serve.migrations(),
                           S.TotalUs.percentile(95));
  };
  auto A = RunOnce(42), B = RunOnce(42), C = RunOnce(7);
  EXPECT_GT(std::get<0>(A), 100u);
  EXPECT_EQ(A, B) << "same seed must replay the drain byte-identically";
  EXPECT_NE(A, C);
}

//===----------------------------------------------------------------------===//
// ServeLoop batching
//===----------------------------------------------------------------------===//

TEST(ServeLoopBatch, SizeTriggerClosesFullBatches) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 4);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(4);
  ServeLoop Serve(M, Costs, Daemon);

  RequestClassDesc D;
  D.Name = "sz";
  D.MakeRegion = [](const ServeRequest &) {
    return makeServiceRegion("sz", 60000);
  };
  D.ItersPerRequest = 4;
  D.Config = {rt::Scheme::DoAny, {2}};
  // A generous wait window: only the size trigger should fire.
  D.Batch = {4, 10 * sim::MSec, 0.0};
  unsigned Idx = Serve.addClass(std::move(D));

  for (int I = 0; I < 8; ++I)
    EXPECT_TRUE(Serve.inject(Idx));
  Sim.run();

  const BatchStats &B = Serve.batchStats(Idx);
  EXPECT_EQ(B.Batches, 2u);
  EXPECT_EQ(B.BatchedRequests, 8u);
  EXPECT_EQ(B.SizeCloses, 2u);
  EXPECT_EQ(B.TimerCloses, 0u);
  EXPECT_EQ(B.SloCloses, 0u);
  EXPECT_DOUBLE_EQ(B.OccupancyH.mean(), 4.0);
  EXPECT_DOUBLE_EQ(B.requestsPerRegion(), 4.0);
  EXPECT_EQ(Serve.stats(Idx).Completed, 8u);
  EXPECT_EQ(Serve.inFlightRequests(Idx), 0u);
}

TEST(ServeLoopBatch, WaitWindowClosesUnderfullBatch) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 4);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(4);
  ServeLoop Serve(M, Costs, Daemon);

  RequestClassDesc D;
  D.Name = "tm";
  D.MakeRegion = [](const ServeRequest &) {
    return makeServiceRegion("tm", 60000);
  };
  D.ItersPerRequest = 4;
  D.Config = {rt::Scheme::DoAny, {2}};
  // No SLO on the class: the 1 ms wait window is the only deadline.
  D.Batch = {8, sim::MSec, 0.5};
  unsigned Idx = Serve.addClass(std::move(D));

  for (int I = 0; I < 3; ++I)
    EXPECT_TRUE(Serve.inject(Idx));
  EXPECT_EQ(Serve.inService(Idx), 0u); // held open, waiting for members
  Sim.run();

  const BatchStats &B = Serve.batchStats(Idx);
  EXPECT_EQ(B.Batches, 1u);
  EXPECT_EQ(B.TimerCloses, 1u);
  EXPECT_EQ(B.SizeCloses, 0u);
  EXPECT_EQ(B.SloCloses, 0u);
  EXPECT_DOUBLE_EQ(B.OccupancyH.max(), 3.0);
  EXPECT_EQ(Serve.stats(Idx).Completed, 3u);
  // The batch dispatched at the window deadline, not before: every
  // member's queue wait is at least the 1 ms hold (in microseconds).
  EXPECT_GE(Serve.stats(Idx).QueueWaitUs.min(), 1e3);
}

TEST(ServeLoopBatch, SloPressureClosesBatchEarly) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 4);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(4);
  ServeLoop Serve(M, Costs, Daemon);

  RequestClassDesc D;
  D.Name = "slo";
  D.MakeRegion = [](const ServeRequest &) {
    return makeServiceRegion("slo", 60000);
  };
  D.ItersPerRequest = 4;
  D.Config = {rt::Scheme::DoAny, {2}};
  D.Slo = {95.0, 4 * sim::MSec};
  // The 50 ms window would blow the 4 ms SLO; the early-close trigger
  // (0.5 x target = 2 ms of head-of-line wait) must beat it.
  D.Batch = {8, 50 * sim::MSec, 0.5};
  unsigned Idx = Serve.addClass(std::move(D));

  for (int I = 0; I < 2; ++I)
    EXPECT_TRUE(Serve.inject(Idx));
  Sim.run();

  const BatchStats &B = Serve.batchStats(Idx);
  EXPECT_EQ(B.Batches, 1u);
  EXPECT_EQ(B.SloCloses, 1u);
  EXPECT_EQ(B.TimerCloses, 0u);
  EXPECT_EQ(Serve.stats(Idx).Completed, 2u);
  // Closed at 2 ms of head wait, well inside the 50 ms window.
  EXPECT_LT(Serve.stats(Idx).QueueWaitUs.max(), 10e3);
}

TEST(ServeLoopBatch, FormingBatchOutlivesTheArrivals) {
  // Arrivals end while a request still waits in the forming batch: it is
  // neither queued nor in service, so only formingDepth() shows the class
  // has not drained yet.
  sim::Simulator Sim;
  sim::Machine M(Sim, 4);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(4);
  ServeLoop Serve(M, Costs, Daemon);

  RequestClassDesc D;
  D.Name = "form";
  D.MakeRegion = [](const ServeRequest &) {
    return makeServiceRegion("form", 60000);
  };
  D.ItersPerRequest = 4;
  D.Config = {rt::Scheme::DoAny, {2}};
  D.Batch = {8, 20 * sim::MSec, 0.5};
  unsigned Idx = Serve.addClass(std::move(D));
  Serve.startArrivals(Idx, std::make_unique<PoissonArrivals>(200.0, 42));
  while (Serve.stats(Idx).Arrived == 0)
    Sim.runUntil(Sim.now() + 100 * sim::USec);
  Serve.stopArrivals(Idx);

  EXPECT_EQ(Serve.queueDepth(Idx), 0u);
  EXPECT_EQ(Serve.inService(Idx), 0u);
  EXPECT_EQ(Serve.formingDepth(Idx), 1u) << "the request is in the batch";

  // The drain loop the serve bench runs: wait on all three counts.
  while (Serve.queueDepth(Idx) || Serve.formingDepth(Idx) ||
         Serve.inService(Idx))
    Sim.runUntil(Sim.now() + 5 * sim::MSec);
  EXPECT_EQ(Serve.stats(Idx).Completed, 1u);
  EXPECT_EQ(Serve.batchStats(Idx).TimerCloses, 1u);
}

TEST(ServeLoopBatch, MembersCompleteAtIterationWatermarks) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 4);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(4);
  ServeLoop Serve(M, Costs, Daemon);

  RequestClassDesc D;
  D.Name = "wm";
  D.MakeRegion = [](const ServeRequest &) {
    return makeServiceRegion("wm", 500000); // 0.5 ms per iteration
  };
  D.ItersPerRequest = 4;
  D.Config = {rt::Scheme::DoAny, {2}};
  D.Batch = {4, 10 * sim::MSec, 0.0};
  unsigned Idx = Serve.addClass(std::move(D));

  std::vector<sim::SimTime> Completions;
  Serve.OnRequestDone = [&](const ServeRequest &R) {
    Completions.push_back(R.CompletedAt);
  };
  for (int I = 0; I < 4; ++I)
    EXPECT_TRUE(Serve.inject(Idx));
  Sim.run();

  // One batch of four, but four *distinct* per-request completions: each
  // member was attributed when the shared runner crossed its iteration
  // watermark, not when the whole batch turned around.
  ASSERT_EQ(Completions.size(), 4u);
  for (std::size_t I = 1; I < Completions.size(); ++I)
    EXPECT_LT(Completions[I - 1], Completions[I])
        << "members must complete at successive watermarks";
  const ServeLoop::ClassStats &S = Serve.stats(Idx);
  EXPECT_EQ(S.Completed, 4u);
  EXPECT_EQ(S.TotalUs.count(), 4u) << "one latency sample per member";
  // The first member's service time is roughly a quarter of the last's:
  // it did not pay for the whole batch.
  EXPECT_LT(S.ServiceUs.min() * 2, S.ServiceUs.max());
  EXPECT_EQ(Serve.batchStats(Idx).Batches, 1u);
}

TEST(ServeLoopBatch, BatchedDrainMigratesAllMembersDeterministically) {
  // The live-migration story with coalescing on: a migrated batch runner
  // carries every unfinished member request, and the whole world replays
  // byte-identically under one seed.
  auto RunOnce = [](std::uint64_t Seed) {
    sim::Simulator Sim;
    sim::Machine M(Sim, 4);
    sim::FaultPlan Plan;
    Plan.addDomain("socket1", {2, 3}, /*At=*/50 * sim::MSec,
                   /*Downtime=*/30 * sim::MSec, /*Warning=*/5 * sim::MSec);
    M.installFaultPlan(std::move(Plan));
    rt::RuntimeCosts Costs;
    rt::PlatformDaemon Daemon(4);
    ServeLoop Serve(M, Costs, Daemon);

    RequestClassDesc D;
    D.Name = "bmig";
    D.MakeRegion = [](const ServeRequest &) {
      return makeServiceRegion("bmig", 500000);
    };
    D.ItersPerRequest = 4;
    D.Config = {rt::Scheme::DoAny, {2}};
    D.Batch = {4, 2 * sim::MSec, 0.5};
    unsigned Idx = Serve.addClass(std::move(D));
    Serve.startArrivals(Idx, std::make_unique<PoissonArrivals>(2000.0, Seed));
    Sim.runUntil(100 * sim::MSec);
    Serve.stopArrivals(Idx);
    Sim.run();

    EXPECT_GT(Serve.migrations(), 0u) << "nothing was in flight at the drain";
    EXPECT_EQ(Serve.drainsCompleted(), 1u);
    EXPECT_EQ(M.onlineCores(), 4u);
    const ServeLoop::ClassStats &S = Serve.stats(Idx);
    EXPECT_EQ(S.Admitted, S.Completed + S.Shed);
    const BatchStats &B = Serve.batchStats(Idx);
    EXPECT_GT(B.requestsPerRegion(), 1.0) << "nothing actually coalesced";
    return std::make_tuple(S.Arrived, S.Admitted, S.Rejected, S.Shed,
                           S.Completed, Serve.migrations(), B.Batches,
                           B.SizeCloses, B.TimerCloses, B.SloCloses,
                           S.TotalUs.percentile(95));
  };
  auto A = RunOnce(42), B = RunOnce(42), C = RunOnce(7);
  EXPECT_GT(std::get<0>(A), 100u);
  EXPECT_EQ(A, B) << "same seed must replay the batched drain identically";
  EXPECT_NE(A, C);
}

//===----------------------------------------------------------------------===//
// Serve-path regressions
//===----------------------------------------------------------------------===//

TEST(ServeLoop, OverlappingDomainWarningsBothDrain) {
  // Two failure domains whose warning windows overlap: the second
  // warning used to be silently dropped while the first drain was
  // active, hard-failing the second domain under running work. It must
  // queue and drain back-to-back instead.
  sim::Simulator Sim;
  sim::Machine M(Sim, 6);
  sim::FaultPlan Plan;
  Plan.addDomain("sockA", {4, 5}, /*At=*/20 * sim::MSec,
                 /*Downtime=*/30 * sim::MSec, /*Warning=*/5 * sim::MSec);
  // Warns 200 us after sockA, while sockA's drain is still waiting for
  // in-flight 2 ms iterations to retire.
  Plan.addDomain("sockB", {2, 3}, /*At=*/20 * sim::MSec + 200 * sim::USec,
                 /*Downtime=*/30 * sim::MSec, /*Warning=*/5 * sim::MSec);
  M.installFaultPlan(std::move(Plan));
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(6);
  ServeLoop Serve(M, Costs, Daemon);

  RequestClassDesc D;
  D.Name = "ovl";
  D.MakeRegion = [](const ServeRequest &) {
    return makeServiceRegion("ovl", 2000000); // 2 ms per iteration
  };
  D.ItersPerRequest = 16;
  D.Config = {rt::Scheme::DoAny, {2}};
  unsigned Idx = Serve.addClass(std::move(D));
  for (int I = 0; I < 6; ++I)
    EXPECT_TRUE(Serve.inject(Idx));

  // Probe between the two warnings' arrival and the first drain's end:
  // the first drain must still be active when the second warning lands,
  // otherwise this test is not exercising the overlap.
  Sim.schedule(15 * sim::MSec + 300 * sim::USec, [&] {
    EXPECT_TRUE(Serve.draining()) << "first drain already over: no overlap";
    EXPECT_EQ(Serve.drainsCompleted(), 0u);
  });
  Sim.run();

  EXPECT_EQ(Serve.drainsCompleted(), 2u)
      << "the overlapping warning was dropped";
  EXPECT_FALSE(Serve.draining());
  EXPECT_EQ(Serve.stats(Idx).Completed, 6u) << "requests lost in the drain";
  EXPECT_EQ(M.onlineCores(), 6u) << "domains repaired after downtime";
}

TEST(ServeLoop, RejectedRequestsReachOnRequestDone) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 2);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(2);
  ServeLoop Serve(M, Costs, Daemon);

  RequestClassDesc D;
  D.Name = "rej";
  D.MakeRegion = [](const ServeRequest &) {
    return makeServiceRegion("rej", 60000);
  };
  D.Config = {rt::Scheme::DoAny, {2}};
  D.QueueCapacity = 1;
  unsigned Idx = Serve.addClass(std::move(D));

  unsigned Done = 0, Rejected = 0;
  Serve.OnRequestDone = [&](const ServeRequest &R) {
    if (R.Rejected) {
      ++Rejected;
      EXPECT_EQ(R.CompletedAt, 0u) << "rejected requests never start";
      EXPECT_EQ(R.StartedAt, 0u);
    } else {
      ++Done;
    }
  };
  // First dispatches, second queues, third is refused — and the refusal
  // must reach the per-request observer (it used to vanish).
  EXPECT_TRUE(Serve.inject(Idx));
  EXPECT_TRUE(Serve.inject(Idx));
  EXPECT_FALSE(Serve.inject(Idx));
  EXPECT_EQ(Rejected, 1u);
  Sim.run();
  EXPECT_EQ(Done, 2u);
  EXPECT_EQ(Serve.stats(Idx).Rejected, 1u);
  EXPECT_EQ(Serve.stats(Idx).Completed, 2u);
}

/// Nearest-rank percentile of \p Window, computed from scratch.
double bruteNearestRank(std::vector<double> Window, double P) {
  std::sort(Window.begin(), Window.end());
  double N = static_cast<double>(Window.size());
  std::size_t Rank = static_cast<std::size_t>(std::ceil(P / 100.0 * N));
  Rank = std::min(std::max<std::size_t>(Rank, 1), Window.size());
  return Window[Rank - 1];
}

TEST(ServeLoop, RecentLatencyWindowMatchesBruteForce) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  rt::RuntimeCosts Costs;
  rt::PlatformDaemon Daemon(8);
  ServeLoop Serve(M, Costs, Daemon);

  // Four consecutive requests share a service cost, so the window holds
  // tied latencies; the cost grows with the request id, so a window that
  // kept an evicted (older, cheaper) latency reads differently.
  RequestClassDesc D;
  D.Name = "window";
  D.MakeRegion = [](const ServeRequest &R) {
    return makeServiceRegion("window", 10000 + 1000 * (R.Id / 4));
  };
  D.Config = {rt::Scheme::DoAny, {1}};
  unsigned Idx = Serve.addClass(std::move(D));

  // Every completion as (time, latency): the window at time T is the
  // last 512 of them (ClassState::RecentCap) that are no older than
  // 150 ms (ClassState::RecentWindow).
  std::vector<std::pair<sim::SimTime, double>> Log;
  Serve.OnRequestDone = [&](const ServeRequest &R) {
    ASSERT_FALSE(R.Rejected || R.Shed);
    Log.emplace_back(R.CompletedAt, sim::toSeconds(R.totalLatency()));
  };
  std::size_t Probes = 0, MaxWindow = 0, MaxTies = 0;
  auto Probe = [&] {
    ASSERT_EQ(Serve.queueDepth(Idx), 0u) << "head-of-line floor in play";
    std::vector<double> Window;
    for (std::size_t I = Log.size() > 512 ? Log.size() - 512 : 0;
         I < Log.size(); ++I)
      if (Log[I].first + 150 * sim::MSec >= Sim.now())
        Window.push_back(Log[I].second);
    for (double P : {0.0, 1.0, 50.0, 95.0, 99.0, 100.0}) {
      double Got = Serve.recentLatencySec(Idx, P);
      if (Window.empty())
        EXPECT_LT(Got, 0.0) << "P" << P << " at " << Sim.now();
      else
        EXPECT_EQ(Got, bruteNearestRank(Window, P))
            << "P" << P << " at " << Sim.now() << " over "
            << Window.size() << " completions";
    }
    std::sort(Window.begin(), Window.end());
    std::size_t Ties = Window.size() - static_cast<std::size_t>(
        std::unique(Window.begin(), Window.end()) - Window.begin());
    MaxWindow = std::max(MaxWindow, Window.size());
    MaxTies = std::max(MaxTies, Ties);
    ++Probes;
  };
  auto InjectEvery = [&](sim::SimTime From, sim::SimTime Gap, int N) {
    for (int I = 0; I < N; ++I)
      Sim.schedule(From + I * Gap, [&] { EXPECT_TRUE(Serve.inject(Idx)); });
  };
  auto ProbeEvery = [&](sim::SimTime From, sim::SimTime To) {
    for (sim::SimTime T = From; T < To; T += sim::MSec)
      Sim.schedule(T, Probe);
  };

  // 600 completions inside 90 ms: the 512 cap evicts in completeMember.
  InjectEvery(0, 150 * sim::USec, 600);
  ProbeEvery(sim::MSec, 90 * sim::MSec);
  // No probe from 90 ms on, so the completions at 200 ms are the first
  // to see the 0-50 ms entries expire: completeMember ages them out.
  InjectEvery(200 * sim::MSec, 200 * sim::USec, 20);
  // The first probe at 260 ms ages the rest of the 90 ms burst out
  // itself; later completions must find the window consistent.
  ProbeEvery(260 * sim::MSec, 400 * sim::MSec);
  InjectEvery(280 * sim::MSec, 300 * sim::USec, 40);
  // Long after the last completion the window is empty: no signal.
  Sim.schedule(600 * sim::MSec, Probe);
  Sim.run();

  EXPECT_EQ(Serve.stats(Idx).Completed, 660u);
  EXPECT_EQ(Log.size(), 660u);
  EXPECT_EQ(MaxWindow, 512u) << "the cap never bounded the window";
  EXPECT_GT(MaxTies, 0u) << "no tied latencies in the window";
  EXPECT_EQ(Probes, 89u + 140u + 1u);
}

//===----------------------------------------------------------------------===//
// PlatformDaemon tenants and SLO arbitration
//===----------------------------------------------------------------------===//

/// A scriptable tenant: tests set its reported demand and SLO readings.
class FakeTenant : public rt::PlatformTenant {
public:
  explicit FakeTenant(std::string Name) : Name(std::move(Name)) {}

  const std::string &tenantName() const override { return Name; }
  void onBudget(unsigned B, bool First) override {
    Budget = B;
    if (First)
      ++FirstGrants;
  }
  unsigned threadsUsed() const override {
    return Used ? std::min(Used, Budget) : Budget;
  }
  bool wantsMore() const override { return WantsMore; }

  bool hasSlo() const override { return HasSlo; }
  double sloTargetSec() const override { return TargetSec; }
  double sloLatencySec() const override { return LatencySec; }

  std::string Name;
  unsigned Budget = 0;
  /// Thread demand; the report is capped at the grant like a real
  /// controller's (it cannot use threads it was not given). 0 reports
  /// the granted budget (steady full consumption).
  unsigned Used = 0;
  unsigned FirstGrants = 0;
  bool WantsMore = false;
  bool HasSlo = false;
  double TargetSec = 1.0;
  double LatencySec = -1.0;
};

TEST(PlatformTenants, SlackFlowsToHungryTenantAndStaysStable) {
  sim::Simulator Sim;
  rt::PlatformDaemon Daemon(8);
  FakeTenant Hungry("hungry"), Modest("modest");
  Hungry.Used = 100; // consumes whatever it is given and wants more
  Hungry.WantsMore = true;
  Modest.Used = 1; // needs a single thread
  Daemon.addTenant(Hungry);
  Daemon.addTenant(Modest);
  EXPECT_EQ(Hungry.FirstGrants, 1u);
  EXPECT_EQ(Hungry.Budget + Modest.Budget, 8u); // even split at add

  Daemon.startArbiter(Sim, sim::MSec);
  Sim.runUntil(2 * sim::MSec);
  EXPECT_EQ(Modest.Budget, 1u); // shrunk to its reported need
  EXPECT_EQ(Hungry.Budget, 7u); // slack handed to the saturated tenant

  // Extra ticks change nothing: the same poll readings must reach the
  // same partition (the arbiter is deterministic and idempotent).
  Sim.runUntil(10 * sim::MSec);
  Daemon.stopArbiter();
  EXPECT_EQ(Modest.Budget, 1u);
  EXPECT_EQ(Hungry.Budget, 7u);
}

TEST(PlatformTenants, ShrunkToFitGuardsOscillation) {
  sim::Simulator Sim;
  rt::PlatformDaemon Daemon(8);
  // Both claim they want more, but Small only ever uses one thread: after
  // the shrink it must not count as hungry again (Used >= Budget alone
  // would re-grow it every other tick).
  FakeTenant Big("big"), Small("small");
  Big.Used = 4;
  Big.WantsMore = true;
  Small.Used = 1;
  Small.WantsMore = true;
  Daemon.addTenant(Big);
  Daemon.addTenant(Small);

  Daemon.startArbiter(Sim, sim::MSec);
  Sim.runUntil(2 * sim::MSec);
  EXPECT_EQ(Small.Budget, 1u);
  std::vector<unsigned> SmallBudgets;
  for (int T = 0; T < 6; ++T) {
    Sim.runUntil(Sim.now() + sim::MSec);
    SmallBudgets.push_back(Small.Budget);
  }
  Daemon.stopArbiter();
  for (unsigned B : SmallBudgets)
    EXPECT_EQ(B, 1u) << "budget oscillated after shrink-to-fit";
}

TEST(PlatformTenants, SloViolatorGainsFromMeeterThenHandsBack) {
  sim::Simulator Sim;
  rt::PlatformDaemon Daemon(8);
  FakeTenant Viol("viol"), Meet("meet");
  Viol.HasSlo = true;
  Viol.TargetSec = 1.0;
  Viol.LatencySec = 2.0; // ratio 2.0: violating
  Meet.HasSlo = true;
  Meet.TargetSec = 1.0;
  Meet.LatencySec = 0.2; // ratio 0.2: donor headroom
  Daemon.addTenant(Viol);
  Daemon.addTenant(Meet);
  ASSERT_EQ(Viol.Budget, 4u);

  Daemon.startArbiter(Sim, sim::MSec);
  // One thread per tick flows meet -> viol until the donor is at the
  // minimum budget.
  Sim.runUntil(10 * sim::MSec + sim::USec);
  EXPECT_EQ(Viol.Budget, 7u);
  EXPECT_EQ(Meet.Budget, 1u);
  const auto &T1 = Daemon.sloTransfers();
  ASSERT_EQ(T1.size(), 3u);
  for (const auto &T : T1) {
    EXPECT_EQ(T.From, "meet");
    EXPECT_EQ(T.To, "viol");
    EXPECT_EQ(T.Threads, 1u);
    EXPECT_STREQ(T.Why, "violation");
  }
  EXPECT_GT(T1.back().At, T1.front().At); // stamped with arbiter time

  // Load drops: the gainer now has ample headroom and returns its loans
  // one per tick to the lender.
  Viol.LatencySec = 0.3; // ratio 0.3 <= return headroom
  Sim.runUntil(20 * sim::MSec);
  Daemon.stopArbiter();
  EXPECT_EQ(Viol.Budget, 4u);
  EXPECT_EQ(Meet.Budget, 4u);
  const auto &T2 = Daemon.sloTransfers();
  ASSERT_EQ(T2.size(), 6u);
  for (std::size_t I = 3; I < 6; ++I) {
    EXPECT_EQ(T2[I].From, "viol");
    EXPECT_EQ(T2[I].To, "meet");
    EXPECT_STREQ(T2[I].Why, "return");
  }
}

TEST(PlatformTenants, NoSloDataMeansNoTransfers) {
  sim::Simulator Sim;
  rt::PlatformDaemon Daemon(8);
  // One tenant violating, the other carrying an SLO but with no latency
  // signal yet: nobody qualifies as a donor, so nothing moves.
  FakeTenant Viol("viol"), Fresh("fresh");
  Viol.HasSlo = true;
  Viol.TargetSec = 1.0;
  Viol.LatencySec = 5.0;
  Fresh.HasSlo = true;
  Fresh.TargetSec = 1.0;
  Fresh.LatencySec = -1.0; // no data
  Daemon.addTenant(Viol);
  Daemon.addTenant(Fresh);

  Daemon.startArbiter(Sim, sim::MSec);
  Sim.runUntil(5 * sim::MSec);
  Daemon.stopArbiter();
  EXPECT_TRUE(Daemon.sloTransfers().empty());
  EXPECT_EQ(Viol.Budget, 4u);
  EXPECT_EQ(Fresh.Budget, 4u);
}

TEST(PlatformTenants, NoSloTenantIsThePreferredDonor) {
  sim::Simulator Sim;
  rt::PlatformDaemon Daemon(9);
  FakeTenant Viol("viol"), Meet("meet"), Plain("plain");
  Viol.HasSlo = true;
  Viol.TargetSec = 1.0;
  Viol.LatencySec = 3.0;
  Meet.HasSlo = true;
  Meet.TargetSec = 1.0;
  Meet.LatencySec = 0.1;
  Daemon.addTenant(Viol);
  Daemon.addTenant(Meet);
  Daemon.addTenant(Plain);

  Daemon.startArbiter(Sim, sim::MSec);
  Sim.runUntil(sim::MSec + sim::USec);
  Daemon.stopArbiter();
  ASSERT_FALSE(Daemon.sloTransfers().empty());
  // Threads without an SLO attached are taken before squeezing a tenant
  // that is merely meeting its own target.
  EXPECT_EQ(Daemon.sloTransfers().front().From, "plain");
  EXPECT_EQ(Daemon.sloTransfers().front().To, "viol");
}

TEST(PlatformTenants, SloArbiterBoundaries) {
  // The arbiter's fixed thresholds (Platform.cpp): a donor gives a thread
  // at or below 0.75 x its target, a gainer hands it back at or below
  // 0.5 x its target, and nobody donates below one thread. Every ratio
  // here is exact in binary floating point.
  const sim::SimTime Tick = sim::MSec + sim::USec;

  // A donor at exactly 0.75 x target gives a thread on the first tick.
  {
    sim::Simulator Sim;
    rt::PlatformDaemon Daemon(8);
    FakeTenant Viol("viol"), Donor("donor");
    Viol.HasSlo = true;
    Viol.LatencySec = 2.0;
    Donor.HasSlo = true;
    Donor.TargetSec = 0.5;
    Donor.LatencySec = 0.375; // 0.75 x 0.5
    Daemon.addTenant(Viol);
    Daemon.addTenant(Donor);
    Daemon.startArbiter(Sim, sim::MSec);
    Sim.runUntil(Tick);
    Daemon.stopArbiter();
    ASSERT_EQ(Daemon.sloTransfers().size(), 1u);
    EXPECT_EQ(Daemon.sloTransfers().front().From, "donor");
    EXPECT_EQ(Viol.Budget, 5u);
    EXPECT_EQ(Donor.Budget, 3u);
  }

  // One ulp above the headroom, the same donor keeps its threads.
  {
    sim::Simulator Sim;
    rt::PlatformDaemon Daemon(8);
    FakeTenant Viol("viol"), Donor("donor");
    Viol.HasSlo = true;
    Viol.LatencySec = 2.0;
    Donor.HasSlo = true;
    Donor.TargetSec = 0.5;
    Donor.LatencySec = std::nextafter(0.375, 1.0);
    Daemon.addTenant(Viol);
    Daemon.addTenant(Donor);
    Daemon.startArbiter(Sim, sim::MSec);
    Sim.runUntil(5 * Tick);
    Daemon.stopArbiter();
    EXPECT_TRUE(Daemon.sloTransfers().empty());
    EXPECT_EQ(Viol.Budget, 4u);
    EXPECT_EQ(Donor.Budget, 4u);
  }

  // Tenants at the one-thread minimum never donate, with an SLO and
  // ample headroom or with no SLO at all.
  {
    sim::Simulator Sim;
    rt::PlatformDaemon Daemon(3);
    FakeTenant Viol("viol"), Meet("meet"), Plain("plain");
    Viol.HasSlo = true;
    Viol.LatencySec = 4.0;
    Meet.HasSlo = true;
    Meet.LatencySec = 0.1;
    Daemon.addTenant(Viol);
    Daemon.addTenant(Meet);
    Daemon.addTenant(Plain);
    ASSERT_EQ(Meet.Budget, 1u);
    ASSERT_EQ(Plain.Budget, 1u);
    Daemon.startArbiter(Sim, sim::MSec);
    Sim.runUntil(5 * Tick);
    Daemon.stopArbiter();
    EXPECT_TRUE(Daemon.sloTransfers().empty());
    EXPECT_EQ(Viol.Budget, 1u);
    EXPECT_EQ(Meet.Budget, 1u);
    EXPECT_EQ(Plain.Budget, 1u);
  }

  // A gainer hands its thread back at exactly 0.5 x target, not above.
  {
    sim::Simulator Sim;
    rt::PlatformDaemon Daemon(8);
    FakeTenant Viol("viol"), Meet("meet");
    Viol.HasSlo = true;
    Viol.LatencySec = 2.0;
    Meet.HasSlo = true;
    Meet.LatencySec = 0.2;
    Daemon.addTenant(Viol);
    Daemon.addTenant(Meet);
    Daemon.startArbiter(Sim, sim::MSec);
    Sim.runUntil(Tick);
    ASSERT_EQ(Daemon.sloTransfers().size(), 1u);
    ASSERT_EQ(Viol.Budget, 5u);

    Viol.LatencySec = std::nextafter(0.5, 1.0); // meeting, no headroom
    Sim.runUntil(4 * Tick);
    EXPECT_EQ(Daemon.sloTransfers().size(), 1u);
    EXPECT_EQ(Viol.Budget, 5u);

    Viol.LatencySec = 0.5; // 0.5 x 1.0
    Sim.runUntil(5 * Tick);
    ASSERT_EQ(Daemon.sloTransfers().size(), 2u);
    EXPECT_STREQ(Daemon.sloTransfers().back().Why, "return");
    EXPECT_EQ(Daemon.sloTransfers().back().From, "viol");
    EXPECT_EQ(Viol.Budget, 4u);
    EXPECT_EQ(Meet.Budget, 4u);

    // Nothing left to return: the budgets stay put.
    Sim.runUntil(8 * Tick);
    Daemon.stopArbiter();
    EXPECT_EQ(Daemon.sloTransfers().size(), 2u);
    EXPECT_EQ(Viol.Budget, 4u);
  }
}

//===----------------------------------------------------------------------===//
// Percentile cache regression
//===----------------------------------------------------------------------===//

TEST(Stats, PercentileCacheSortsOncePerMutation) {
  SampleSet S;
  for (int I = 100; I > 0; --I)
    S.add(I);
  EXPECT_EQ(S.sortsPerformed(), 0u);
  EXPECT_DOUBLE_EQ(S.percentile(50), 50.0);
  EXPECT_EQ(S.sortsPerformed(), 1u);
  // The serving layer polls p50/p95/p99 every arbiter tick: repeated
  // queries between mutations must reuse the sorted view.
  for (int I = 0; I < 50; ++I) {
    S.percentile(50);
    S.percentile(95);
    S.percentile(99);
  }
  EXPECT_EQ(S.sortsPerformed(), 1u);

  S.add(1000.0); // mutation invalidates the cache...
  EXPECT_DOUBLE_EQ(S.percentile(100), 1000.0);
  EXPECT_EQ(S.sortsPerformed(), 2u);

  S.decimate(); // ...and so does decimation
  S.percentile(95);
  EXPECT_EQ(S.sortsPerformed(), 3u);
  S.percentile(95);
  EXPECT_EQ(S.sortsPerformed(), 3u);
}

TEST(Stats, NearestRankIndex) {
  EXPECT_EQ(nearestRankIndex(0, 1), 0u);
  EXPECT_EQ(nearestRankIndex(100, 1), 0u);
  EXPECT_EQ(nearestRankIndex(0, 5), 0u);   // P = 0 is the smallest
  EXPECT_EQ(nearestRankIndex(20, 5), 0u);  // ceil(1.0) = rank 1
  EXPECT_EQ(nearestRankIndex(21, 5), 1u);  // ceil(1.05) = rank 2
  EXPECT_EQ(nearestRankIndex(50, 4), 1u);
  EXPECT_EQ(nearestRankIndex(100, 5), 4u); // P = 100 is the largest
  EXPECT_EQ(nearestRankIndex(1, 512), 5u); // ceil(5.12) = rank 6
  EXPECT_EQ(nearestRankIndex(99, 512), 506u);
}

TEST(Stats, HistogramExposesPercentileSorts) {
  Histogram H;
  for (int I = 0; I < 1000; ++I)
    H.add(I);
  H.p50();
  H.p95();
  H.p99();
  EXPECT_EQ(H.percentileSorts(), 1u);
  H.add(0.5);
  H.p95();
  EXPECT_EQ(H.percentileSorts(), 2u);
}

} // namespace
