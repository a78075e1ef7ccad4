//===- Serve.cpp - The serve workload: two-class open-loop serving --------===//
//
// Part of the Parcae reproduction's whole-stack benchmark.
//
// bench_serve's scenario with batching on: an "api" class (32 x 60k-cycle
// DoAny@2 requests, p95 SLO 10 ms, deadline-aware early drop) whose rate
// steps 1500/s -> 8000/s -> 1500/s in 300 ms phases, and a "batch" class
// (64 x 150k-cycle requests, p95 SLO 60 ms, drop-tail) at a steady
// 300/s, on 16 cores under the PlatformDaemon's SLO arbiter. The phase
// cycle repeats to the run length. The same arrivals are run a second
// time with the arbiter off (budgets fixed at registration), the static
// baseline sim_vs_oracle compares against. The broker, per-request
// RegionRunner construction and teardown and daemon arbitration dominate;
// there is no interpreter and no link.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "morta/Platform.h"
#include "serve/ServeLoop.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

using namespace parcae;
using namespace parcae::rt;
using namespace parcae::serve;

namespace wsbench {
namespace {

constexpr unsigned Cores = 16;
constexpr double CycleSec = 0.9; ///< under-load, overload, recovery
constexpr sim::SimTime ApiSlo = 10 * sim::MSec;
constexpr sim::SimTime BatchSlo = 60 * sim::MSec;

FlexibleRegion makeServiceRegion(const char *Name, sim::SimTime CostPerIter,
                                 sim::SimTime ContextLoad) {
  FlexibleRegion R(Name);
  RegionDesc D;
  D.Name = std::string(Name) + "-par";
  D.S = Scheme::DoAny;
  D.Tasks.emplace_back("work", TaskType::Par,
                       [CostPerIter](IterationContext &Ctx) {
                         Ctx.Cost = CostPerIter;
                       });
  D.Tasks.back().InitCost = ContextLoad;
  R.addVariant(std::move(D));
  return R;
}

struct ServeOut {
  std::uint64_t Arrived = 0, Admitted = 0, Rejected = 0, Shed = 0,
                Completed = 0, OverSlo = 0, Unfinished = 0, NotOnce = 0;
  SampleSet LatencySec;
  double GoodputRps = 0;
};

/// One run of \p Cycles phase cycles; \p Arbiter switches the SLO pass on.
ServeOut runScenario(Pass &P, std::uint64_t Seed, unsigned Cycles,
                     bool Arbiter) {
  struct Op {
    sim::Simulator Sim;
    sim::Machine M;
    RuntimeCosts Costs;
    PlatformDaemon Daemon{Cores};
    ServeLoop Serve;
    unsigned ApiIdx = 0, BatchIdx = 0;
    std::unordered_map<std::uint64_t, unsigned> Finalized;
    Op() : M(Sim, Cores), Serve(M, Costs, Daemon) {}
  };

  ServeOut Out;
  std::unique_ptr<Op> O;
  Probe *Pr = P.traced() ? &P.Pr : nullptr;
  // A factory that, in a traced pass, times region construction and
  // wraps the region's task functors.
  auto Factory = [Pr](const char *Name, sim::SimTime Cost) {
    std::function<FlexibleRegion(const ServeRequest &)> F =
        [Name, Cost](const ServeRequest &) {
          return makeServiceRegion(Name, Cost, 500 * sim::USec);
        };
    if (!Pr)
      return F;
    return std::function<FlexibleRegion(const ServeRequest &)>(
        [F, Pr](const ServeRequest &R) {
          FlexibleRegion Reg("");
          {
            Span S(SpServeMakeRegion);
            Reg = F(R);
          }
          return wrapRegion(Reg, *Pr);
        });
  };
  auto Arrivals = [Pr](std::vector<TraceSegment> Segs, std::uint64_t S)
      -> std::unique_ptr<ArrivalProcess> {
    auto A = std::make_unique<TraceArrivals>(std::move(Segs), S);
    if (!Pr)
      return A;
    return std::make_unique<TimedArrivals>(std::move(A));
  };

  P.setup([&] {
    O = std::make_unique<Op>();
    RequestClassDesc Api;
    Api.Name = "api";
    Api.MakeRegion = Factory("api", 60000);
    Api.ItersPerRequest = 32;
    Api.Config = {Scheme::DoAny, {2}};
    Api.QueueCapacity = 512;
    Api.Slo = {95.0, ApiSlo};
    Api.Policy = std::make_unique<DeadlineEarlyDrop>(ApiSlo);
    Api.Batch = {8, 2 * sim::MSec, 0.5};
    O->ApiIdx = O->Serve.addClass(std::move(Api));

    RequestClassDesc Batch;
    Batch.Name = "batch";
    Batch.MakeRegion = Factory("batch", 150000);
    Batch.ItersPerRequest = 64;
    Batch.Config = {Scheme::DoAny, {2}};
    Batch.QueueCapacity = 256;
    Batch.Slo = {95.0, BatchSlo};
    Batch.Batch = {4, 10 * sim::MSec, 0.5};
    O->BatchIdx = O->Serve.addClass(std::move(Batch));

    O->Serve.OnRequestDone = [&Out, Op = O.get()](const ServeRequest &R) {
      ++Op->Finalized[R.Id];
      if (R.Rejected || R.Shed)
        return;
      Out.LatencySec.add(sim::toSeconds(R.totalLatency()));
      sim::SimTime Target = R.ClassIdx == Op->ApiIdx ? ApiSlo : BatchSlo;
      if (R.totalLatency() > Target)
        ++Out.OverSlo;
    };
  });

  sim::SimTime ArrivalEnd = sim::fromSeconds(CycleSec * Cycles);
  // bench_serve allows 1.1 s of drain after its 0.9 s of arrivals.
  sim::SimTime DrainBound = ArrivalEnd + 1100 * sim::MSec;
  P.simulate([&] {
    Rng Root(Seed);
    std::uint64_t ApiSeed = Root.next(), BatchSeed = Root.next();
    std::vector<TraceSegment> ApiSegs;
    for (unsigned C = 0; C < Cycles; ++C)
      for (TraceSegment S : {TraceSegment{0.3, 1500.0},
                             TraceSegment{0.3, 8000.0},
                             TraceSegment{0.3, 1500.0}})
        ApiSegs.push_back(S);
    O->Serve.startArrivals(O->ApiIdx, Arrivals(std::move(ApiSegs), ApiSeed));
    O->Serve.startArrivals(
        O->BatchIdx,
        Arrivals({{CycleSec * Cycles, 300.0}}, BatchSeed));
    if (Arbiter)
      O->Daemon.startArbiter(O->Sim, sim::MSec);
    O->Sim.runUntil(ArrivalEnd);
    // A request waiting in a forming batch for its close timer is neither
    // queued nor in service, so the run also goes on while any arrival is
    // still unfinalized.
    auto Busy = [&] {
      return O->Serve.queueDepth(O->ApiIdx) || O->Serve.inService(O->ApiIdx) ||
             O->Serve.queueDepth(O->BatchIdx) ||
             O->Serve.inService(O->BatchIdx) ||
             O->Finalized.size() < O->Serve.stats(O->ApiIdx).Arrived +
                                       O->Serve.stats(O->BatchIdx).Arrived;
    };
    while (Busy() && O->Sim.now() < DrainBound)
      O->Sim.runUntil(O->Sim.now() + 5 * sim::MSec);
    O->Daemon.stopArbiter();
  });
  P.check([&] {
    double QueueP99 = 0, ServiceP99 = 0;
    for (unsigned Idx : {O->ApiIdx, O->BatchIdx}) {
      const ServeLoop::ClassStats &St = O->Serve.stats(Idx);
      Out.Arrived += St.Arrived;
      Out.Admitted += St.Admitted;
      Out.Rejected += St.Rejected;
      Out.Shed += St.Shed;
      Out.Completed += St.Completed;
      // Every admitted request is served or shed; one still queued or in
      // service at the drain bound did not finish.
      std::uint64_t Settled = St.Completed + St.Shed;
      Out.Unfinished += St.Admitted > Settled ? St.Admitted - Settled : 0;
      QueueP99 = std::max(QueueP99, St.QueueWaitUs.count()
                                        ? St.QueueWaitUs.p99() / 1e3
                                        : 0.0);
      ServiceP99 = std::max(ServiceP99, St.ServiceUs.count()
                                            ? St.ServiceUs.p99() / 1e3
                                            : 0.0);
      const BatchStats &B = O->Serve.batchStats(Idx);
      P.T.ServeBatches += B.Batches;
      P.T.ServeBatched += B.BatchedRequests;
      P.T.Regions += B.Batches;
    }
    // Exactly once: every arrival that settled is finalized by one
    // callback. One unfinished at the bound is a timeout, counted above.
    for (const auto &[Id, N] : O->Finalized)
      Out.NotOnce += N != 1;
    std::uint64_t Settled = Out.Arrived - Out.Unfinished;
    if (O->Finalized.size() != Settled)
      Out.NotOnce += O->Finalized.size() > Settled
                         ? O->Finalized.size() - Settled
                         : Settled - O->Finalized.size();
    if (O->M.threadsAlive() != 0 && Out.Unfinished == 0)
      Out.Unfinished = 1; // drained queues but live workers: not drained
    Out.GoodputRps =
        static_cast<double>(Out.Completed - Out.OverSlo) /
        sim::toSeconds(ArrivalEnd);
    if (Arbiter) {
      P.T.ServeAdmitted += Out.Admitted;
      P.T.ServeRejected += Out.Rejected;
      P.T.ServeShed += Out.Shed;
      P.T.ServeQueueWaitP99Ms = QueueP99;
      P.T.ServeServiceP99Ms = ServiceP99;
      P.T.SloTransfers += O->Daemon.sloTransfers().size();
    }
    P.T.addSim(O->Sim, O->M, O->Sim.now());
  });
  P.teardown([&] { O.reset(); });
  return Out;
}

} // namespace

void runServe(Pass &P) {
  unsigned Cycles = P.quick() ? 1 : 4;
  P.bound("serve request", "arrival span plus 1.1 s of drain, as "
                           "bench_serve allows after its 0.9 s of arrivals");
  Rng Root(P.seed());
  std::uint64_t Seed = Root.next();
  ServeOut Arb = runScenario(P, Seed, Cycles, /*Arbiter=*/true);
  P.ops("serve (SLO arbiter) request", Arb.Admitted, Arb.Unfinished,
        Arb.NotOnce);
  ServeOut Static = runScenario(P, Seed, Cycles, /*Arbiter=*/false);
  P.ops("serve (static budgets) request", Static.Admitted, Static.Unfinished,
        Static.NotOnce);

  P.outcome("sim_resp_mean_s",
            Arb.LatencySec.count() ? Arb.LatencySec.mean() : 0);
  P.outcome("sim_resp_p50_s", pct(Arb.LatencySec, 50));
  P.outcome("sim_resp_p99_s", pct(Arb.LatencySec, 99));
  P.count("sim_resp_samples", static_cast<double>(Arb.LatencySec.count()));
  P.outcome("sim_goodput_rps", Arb.GoodputRps);
  P.outcome("sim_vs_oracle",
            Static.GoodputRps > 0 ? Arb.GoodputRps / Static.GoodputRps : 0);
  P.outcome("sim_slo_miss_frac",
            Arb.Arrived ? static_cast<double>(Arb.Rejected + Arb.Shed +
                                              Arb.OverSlo) /
                              static_cast<double>(Arb.Arrived)
                        : 0);
}

} // namespace wsbench
