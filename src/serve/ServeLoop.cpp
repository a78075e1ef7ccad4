//===- ServeLoop.cpp - Open-loop request broker ----------------------------===//

#include "serve/ServeLoop.h"

#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cmath>

using namespace parcae;
using namespace parcae::serve;

//===----------------------------------------------------------------------===//
// ClassTenant: one request class as seen by the platform daemon
//===----------------------------------------------------------------------===//

class ServeLoop::ClassTenant : public rt::PlatformTenant {
public:
  ClassTenant(ServeLoop &S, unsigned Idx) : S(S), Idx(Idx) {}

  const std::string &tenantName() const override {
    return S.Classes[Idx]->Desc.Name;
  }

  void onBudget(unsigned Budget, bool /*First*/) override {
    S.Classes[Idx]->Budget = std::max(1u, Budget);
    S.pump(Idx);
  }

  /// Live demand in threads: in-service batches plus the runners the
  /// waiting requests (queued + forming) would need once coalesced,
  /// each worth one runner configuration, floored at one runner (an
  /// idle class keeps enough to serve the next arrival without a round
  /// trip through the daemon). Deliberately NOT capped at the budget:
  /// demand above the budget is exactly the daemon's hunger signal.
  unsigned threadsUsed() const override {
    const ClassState &C = *S.Classes[Idx];
    std::uint64_t Per = std::max(1u, C.Desc.Config.totalThreads());
    std::uint64_t MaxB = std::max(1u, C.Desc.Batch.MaxBatch);
    std::uint64_t Waiting = C.Queue.size() + C.Forming.size();
    std::uint64_t Runners = C.Active.size() + (Waiting + MaxB - 1) / MaxB;
    std::uint64_t Demand = std::max(Runners * Per, Per);
    return static_cast<unsigned>(std::min<std::uint64_t>(Demand, 1u << 20));
  }

  bool wantsMore() const override {
    const ClassState &C = *S.Classes[Idx];
    unsigned Per = std::max(1u, C.Desc.Config.totalThreads());
    return !C.Queue.empty() || !C.Forming.empty() ||
           C.Active.size() * static_cast<std::uint64_t>(Per) > C.Budget;
  }

  bool hasSlo() const override {
    return S.Classes[Idx]->Desc.Slo.enabled();
  }
  double sloTargetSec() const override {
    return sim::toSeconds(S.Classes[Idx]->Desc.Slo.Target);
  }
  double sloPercentile() const override {
    return S.Classes[Idx]->Desc.Slo.Percentile;
  }
  double sloLatencySec() const override {
    return S.recentLatencySec(Idx, sloPercentile());
  }

private:
  ServeLoop &S;
  unsigned Idx;
};

//===----------------------------------------------------------------------===//
// ServeLoop
//===----------------------------------------------------------------------===//

ServeLoop::ServeLoop(sim::Machine &M, const rt::RuntimeCosts &Costs,
                     rt::PlatformDaemon &Daemon)
    : M(M), Sim(M.sim()), Costs(Costs), Daemon(Daemon) {
  Tel = telemetry::recorder();
  if (Tel) {
    TelPid = Tel->processFor("serve");
    // Totals over every class, read from the per-class stats.
    auto Total = [this](std::uint64_t ClassStats::*Field) {
      return [this, Field] {
        std::uint64_t N = 0;
        for (const auto &C : Classes)
          N += C->Stats.*Field;
        return N;
      };
    };
    constexpr auto Always = telemetry::Listing::Always;
    Counters.bind(Tel->metrics());
    Counters.add("serve.admitted", Total(&ClassStats::Admitted), Always);
    Counters.add("serve.rejected", Total(&ClassStats::Rejected), Always);
    Counters.add("serve.shed", Total(&ClassStats::Shed), Always);
    Counters.add("serve.migrated_batches", MigratedBatches, Always);
  }
  // Proactively migrate in-flight request regions off a failure domain
  // when the machine announces it ahead of time. The listener outlives
  // nothing: the loop and the machine share the benchmark's scope, and
  // warnings only fire while the simulator runs.
  M.addDomainWarningListener(
      [this](const sim::FailureDomainEvent &D) { onDomainWarning(D); });
}

ServeLoop::~ServeLoop() {
  for (auto &C : Classes) {
    C->Arrivals.reset();
    ++C->ArrivalEpoch;
    if (C->Tenant)
      Daemon.removeTenant(*C->Tenant);
  }
}

unsigned ServeLoop::addClass(RequestClassDesc Desc) {
  assert(Desc.MakeRegion && "request class needs a region factory");
  assert(Desc.ItersPerRequest > 0 && "requests need at least one iteration");
  assert(Desc.QueueCapacity > 0 && "admit queue needs capacity");
  if (!Desc.Policy)
    Desc.Policy = std::make_unique<DropTailAdmission>();

  unsigned Idx = static_cast<unsigned>(Classes.size());
  auto C = std::make_unique<ClassState>();
  C->Desc = std::move(Desc);
  C->Tenant = std::make_unique<ClassTenant>(*this, Idx);
  Classes.push_back(std::move(C));
  // Registration immediately grants a budget (onBudget -> pump).
  Daemon.addTenant(*Classes[Idx]->Tenant);
  return Idx;
}

void ServeLoop::startArrivals(unsigned Idx,
                              std::unique_ptr<ArrivalProcess> A) {
  assert(Idx < Classes.size() && A && "bad arrival registration");
  ClassState &C = *Classes[Idx];
  C.Arrivals = std::move(A);
  ++C.ArrivalEpoch;
  scheduleArrival(Idx);
}

void ServeLoop::stopArrivals(unsigned Idx) {
  assert(Idx < Classes.size());
  Classes[Idx]->Arrivals.reset();
  ++Classes[Idx]->ArrivalEpoch;
}

void ServeLoop::scheduleArrival(unsigned Idx) {
  ClassState &C = *Classes[Idx];
  std::optional<sim::SimTime> D = C.Arrivals->nextDelay(Sim.now());
  if (!D) {
    C.Arrivals.reset(); // a finite trace ended
    return;
  }
  std::uint64_t Epoch = C.ArrivalEpoch;
  Sim.schedule(*D, [this, Idx, Epoch] {
    ClassState &C = *Classes[Idx];
    if (Epoch != C.ArrivalEpoch || !C.Arrivals)
      return; // stopArrivals()/startArrivals() superseded this event
    arrive(Idx);
    scheduleArrival(Idx);
  });
}

bool ServeLoop::inject(unsigned Idx) {
  assert(Idx < Classes.size());
  std::uint64_t Admitted = Classes[Idx]->Stats.Admitted;
  arrive(Idx);
  return Classes[Idx]->Stats.Admitted != Admitted;
}

void ServeLoop::arrive(unsigned Idx) {
  ClassState &C = *Classes[Idx];
  ++C.Stats.Arrived;
  auto Req = std::make_shared<ServeRequest>();
  Req->Id = NextId++;
  Req->ClassIdx = Idx;
  Req->ArrivedAt = Sim.now();
  if (!C.Desc.Policy->admit(*Req, C.Queue.size(), C.Desc.QueueCapacity)) {
    ++C.Stats.Rejected;
    // Rejected requests finish here: mark and finalize them so
    // per-request observers see every arrival's outcome (shed requests
    // already flow through finalize; silently dropping rejections made
    // observers undercount).
    Req->Rejected = true;
    finalize(Idx, *Req);
    return;
  }
  ++C.Stats.Admitted;
  C.Queue.push_back(std::move(Req));
  pump(Idx);
}

unsigned ServeLoop::slotsFor(const ClassState &C) const {
  unsigned Per = std::max(1u, C.Desc.Config.totalThreads());
  return std::max(1u, C.Budget / Per);
}

void ServeLoop::pump(unsigned Idx) {
  if (DrainActive)
    return; // dispatch held: finishDrain() pumps every class
  ClassState &C = *Classes[Idx];
  unsigned MaxB = std::max(1u, C.Desc.Batch.MaxBatch);
  for (;;) {
    // Fill the forming batch from the queue head. Opening a batch
    // reserves one dispatch slot; with batching off (MaxB == 1) every
    // request forms a singleton batch that closes immediately below.
    while (C.Forming.size() < MaxB && !C.Queue.empty()) {
      if (C.Forming.empty() && C.Active.size() >= slotsFor(C))
        return; // no slot to reserve for a new batch
      std::shared_ptr<ServeRequest> Req = std::move(C.Queue.front());
      C.Queue.pop_front();
      if (C.Desc.Policy->shedAtDispatch(*Req, Sim.now())) {
        Req->Shed = true;
        ++C.Stats.Shed;
        finalize(Idx, *Req);
        continue;
      }
      if (C.Forming.empty()) {
        C.FormingOpenedAt = Sim.now();
        ++C.FormingEpoch;
      }
      C.Forming.push_back(std::move(Req));
    }
    if (C.Forming.empty())
      return;
    if (C.Forming.size() >= MaxB) {
      closeBatch(Idx, BatchClose::Size);
      continue; // another slot may be free and requests still queued
    }
    // Underfull and the queue is drained: hold the batch open for the
    // wait window, closing early when the head-of-line wait approaches
    // the class SLO target.
    armBatchTimer(Idx);
    return;
  }
}

void ServeLoop::armBatchTimer(unsigned Idx) {
  ClassState &C = *Classes[Idx];
  const BatchPolicy &BP = C.Desc.Batch;
  sim::SimTime SloTarget = C.Desc.Slo.enabled() ? C.Desc.Slo.Target : 0;
  sim::SimTime HeadArrived = C.Forming.front()->ArrivedAt;
  sim::SimTime CloseAt =
      BP.closeDeadline(C.FormingOpenedAt, HeadArrived, SloTarget);
  if (CloseAt <= Sim.now()) {
    // Already overdue (e.g. re-pumped after a drain released the hold).
    closeBatch(Idx, BP.closeReasonAt(CloseAt, C.FormingOpenedAt, HeadArrived,
                                     SloTarget));
    pump(Idx);
    return;
  }
  if (C.TimerArmedEpoch == C.FormingEpoch)
    return; // one timer per batch; later members never extend it
  C.TimerArmedEpoch = C.FormingEpoch;
  std::uint64_t Epoch = C.FormingEpoch;
  Sim.schedule(CloseAt - Sim.now(), [this, Idx, Epoch, CloseAt] {
    ClassState &C = *Classes[Idx];
    if (Epoch != C.FormingEpoch || C.Forming.empty())
      return; // the batch already closed (size trigger beat the timer)
    if (DrainActive)
      return; // dispatch held; finishDrain()'s pump re-closes overdue
    sim::SimTime SloTarget = C.Desc.Slo.enabled() ? C.Desc.Slo.Target : 0;
    closeBatch(Idx, C.Desc.Batch.closeReasonAt(
                        CloseAt, C.FormingOpenedAt,
                        C.Forming.front()->ArrivedAt, SloTarget));
    pump(Idx);
  });
}

void ServeLoop::closeBatch(unsigned Idx, BatchClose Why) {
  ClassState &C = *Classes[Idx];
  assert(!C.Forming.empty() && "closing an empty batch");
  std::vector<std::shared_ptr<ServeRequest>> Members = std::move(C.Forming);
  C.Forming.clear();
  ++C.BStats.Batches;
  C.BStats.BatchedRequests += Members.size();
  C.BStats.OccupancyH.add(static_cast<double>(Members.size()));
  switch (Why) {
  case BatchClose::Size:
    ++C.BStats.SizeCloses;
    break;
  case BatchClose::Timer:
    ++C.BStats.TimerCloses;
    break;
  case BatchClose::Slo:
    ++C.BStats.SloCloses;
    break;
  }
  // Trace only real coalescing: a singleton-per-request stream would
  // double the unbatched trace volume for no information.
  if (Tel && C.Desc.Batch.enabled())
    Tel->instant(TelPid, 0, "serve", "batch_close",
                 {telemetry::TraceArg::str("class", C.Desc.Name),
                  telemetry::TraceArg::num("size", Members.size()),
                  telemetry::TraceArg::str("why", batchCloseName(Why))});
  dispatch(Idx, std::move(Members));
}

void ServeLoop::dispatch(unsigned Idx,
                         std::vector<std::shared_ptr<ServeRequest>> B) {
  ClassState &C = *Classes[Idx];
  assert(!B.empty() && "dispatching an empty batch");
  for (auto &Req : B)
    Req->StartedAt = Sim.now();
  auto F = std::make_unique<InFlight>(C.Desc.MakeRegion(*B.front()));
  F->Members = std::move(B);
  F->Source = std::make_unique<rt::CountedWorkSource>(
      C.Desc.ItersPerRequest * F->Members.size());
  F->Runner =
      std::make_unique<rt::RegionRunner>(M, Costs, F->Region, *F->Source);
  InFlight *Fp = F.get();
  F->Runner->OnComplete = [this, Idx, Fp] { finish(Idx, Fp); };
  // Watermark attribution only matters for real batches; singletons
  // keep the hot path free of the per-retirement callback.
  if (Fp->Members.size() > 1)
    F->Runner->OnProgress = [this, Idx, Fp](std::uint64_t Retired) {
      onBatchProgress(Idx, Fp, Retired);
    };
  C.Active.push_back(std::move(F));
  Fp->Runner->start(C.Desc.Config);
}

void ServeLoop::onBatchProgress(unsigned Idx, InFlight *F,
                                std::uint64_t Retired) {
  // Member i is complete once the batch retired (i + 1) x iters-per-
  // request iterations. The last member waits for the runner's own
  // completion (which includes the final drain), matching the singleton
  // path. Crossings are idempotent: an abortive recovery may replay
  // iterations and repeat watermarks, but Attributed only advances.
  const ClassState &C = *Classes[Idx];
  std::uint64_t Per = C.Desc.ItersPerRequest;
  while (F->Attributed + 1 < F->Members.size() &&
         Retired >= (F->Attributed + 1) * Per) {
    completeMember(Idx, *F->Members[F->Attributed]);
    ++F->Attributed;
  }
}

void ServeLoop::completeMember(unsigned Idx, ServeRequest &R) {
  ClassState &C = *Classes[Idx];
  R.CompletedAt = Sim.now();

  double QueueUs = static_cast<double>(R.StartedAt - R.ArrivedAt) / 1e3;
  double ServiceUs = static_cast<double>(R.CompletedAt - R.StartedAt) / 1e3;
  C.Stats.QueueWaitUs.add(QueueUs);
  C.Stats.ServiceUs.add(ServiceUs);
  C.Stats.TotalUs.add(QueueUs + ServiceUs);
  ++C.Stats.Completed;
  if (C.Desc.Slo.enabled() && R.totalLatency() > C.Desc.Slo.Target)
    ++C.Stats.SloViolations;

  double LatSec = sim::toSeconds(R.totalLatency());
  C.RecentSec.emplace_back(R.CompletedAt, LatSec);
  C.RecentSorted.insert(std::upper_bound(C.RecentSorted.begin(),
                                         C.RecentSorted.end(), LatSec),
                        LatSec);
  while (C.RecentSec.size() > ClassState::RecentCap ||
         (!C.RecentSec.empty() &&
          C.RecentSec.front().first + ClassState::RecentWindow <
              R.CompletedAt))
    C.popRecent();

  finalize(Idx, R);
}

void ServeLoop::ClassState::popRecent() const {
  double Oldest = RecentSec.front().second;
  auto It = std::lower_bound(RecentSorted.begin(), RecentSorted.end(), Oldest);
  assert(It != RecentSorted.end() && *It == Oldest &&
         "sorted window out of step with RecentSec");
  RecentSorted.erase(It);
  RecentSec.pop_front();
}

void ServeLoop::finish(unsigned Idx, InFlight *F) {
  ClassState &C = *Classes[Idx];
  // Everything the watermarks did not already attribute — always at
  // least the last member — completes with the runner.
  for (std::size_t I = F->Attributed; I < F->Members.size(); ++I)
    completeMember(Idx, *F->Members[I]);
  F->Attributed = F->Members.size();

  // OnComplete fires from inside the runner's own execution: move the
  // whole in-flight record to the reap list and destroy it (and refill
  // the freed slot) one event later.
  auto It = std::find_if(C.Active.begin(), C.Active.end(),
                         [F](const auto &P) { return P.get() == F; });
  assert(It != C.Active.end() && "completion for an unknown batch");
  Reap.push_back(std::move(*It));
  C.Active.erase(It);
  if (!ReapScheduled) {
    ReapScheduled = true;
    Sim.schedule(0, [this] {
      ReapScheduled = false;
      Reap.clear();
      for (unsigned I = 0; I < Classes.size(); ++I)
        pump(I);
    });
  }
}

void ServeLoop::onDomainWarning(const sim::FailureDomainEvent &D) {
  if (DrainActive) {
    // A second domain warned while the first drain is still quiescing.
    // Dropping it would leave that domain's cores busy when they fail;
    // queue it and run the drain back-to-back from finishDrain().
    PendingWarnings.push_back(D);
    return;
  }
  DrainActive = true;
  DrainStartAt = Sim.now();
  DrainCores = D.Cores;
  DrainMigrations.clear();
  DrainPending = 0;
  if (Tel)
    Tel->instant(TelPid, 0, "serve", "serve_drain",
                 {telemetry::TraceArg::str("domain", D.Name),
                  telemetry::TraceArg::num("cores", D.Cores.size())});
  // Checkpoint every in-flight request region. Suspended runners hold no
  // thread, so once the last one quiesces the doomed cores are idle.
  for (unsigned Idx = 0; Idx < Classes.size(); ++Idx) {
    for (auto &FP : Classes[Idx]->Active) {
      InFlight *F = FP.get();
      bool Ok = F->Runner->requestCheckpoint(
          [this, Idx, F](const rt::RunnerCheckpoint *CP) {
            if (CP)
              DrainMigrations.push_back({Idx, F, *CP});
            // else: completed before quiescing — reaped normally.
            assert(DrainPending > 0);
            if (--DrainPending == 0)
              finishDrain();
          });
      if (Ok)
        ++DrainPending;
    }
  }
  if (DrainPending == 0)
    finishDrain();
}

void ServeLoop::finishDrain() {
  // Everything is quiesced: retire the doomed cores with nothing running
  // on them, then resume each suspended request where it left off.
  for (unsigned Core : DrainCores)
    M.offlineCore(Core);
  for (MigratingRequest &Mg : DrainMigrations) {
    Mg.F->Runner->resume(Mg.CP.Config, Mg.CP.Cursor);
    // A migrated batch carries every still-unfinished member request.
    Migrations += Mg.F->Members.size() - Mg.F->Attributed;
    ++MigratedBatches;
    if (Tel)
      Tel->instant(TelPid, 0, "serve", "migrate",
                   {telemetry::TraceArg::str("class",
                                             Classes[Mg.ClassIdx]->Desc.Name),
                    telemetry::TraceArg::num("request",
                                             Mg.F->Members.front()->Id),
                    telemetry::TraceArg::num("members",
                                             Mg.F->Members.size() -
                                                 Mg.F->Attributed),
                    telemetry::TraceArg::num("cursor", Mg.CP.Cursor)});
  }
  ++DrainsCompleted;
  if (Tel)
    Tel->instant(TelPid, 0, "serve", "serve_drain_done",
                 {telemetry::TraceArg::num("migrated", DrainMigrations.size()),
                  telemetry::TraceArg::num(
                      "latency_us",
                      sim::toSeconds(Sim.now() - DrainStartAt) * 1e6)});
  if (Tel)
    Tel->metrics()
        .histogram("serve.drain_latency_us")
        .add(sim::toSeconds(Sim.now() - DrainStartAt) * 1e6);
  DrainMigrations.clear();
  DrainCores.clear();
  DrainActive = false;
  if (!PendingWarnings.empty()) {
    // A warning arrived mid-drain: start its drain immediately instead
    // of pumping, so nothing new lands on the next doomed domain.
    sim::FailureDomainEvent Next = std::move(PendingWarnings.front());
    PendingWarnings.pop_front();
    onDomainWarning(Next);
    return;
  }
  for (unsigned I = 0; I < Classes.size(); ++I)
    pump(I);
}

void ServeLoop::finalize(unsigned Idx, const ServeRequest &R) {
  (void)Idx;
  if (OnRequestDone)
    OnRequestDone(R);
}

const ServeLoop::ClassStats &ServeLoop::stats(unsigned Idx) const {
  assert(Idx < Classes.size());
  return Classes[Idx]->Stats;
}

std::size_t ServeLoop::queueDepth(unsigned Idx) const {
  assert(Idx < Classes.size());
  return Classes[Idx]->Queue.size();
}

std::size_t ServeLoop::formingDepth(unsigned Idx) const {
  assert(Idx < Classes.size());
  return Classes[Idx]->Forming.size();
}

unsigned ServeLoop::inService(unsigned Idx) const {
  assert(Idx < Classes.size());
  return static_cast<unsigned>(Classes[Idx]->Active.size());
}

unsigned ServeLoop::budgetOf(unsigned Idx) const {
  assert(Idx < Classes.size());
  return Classes[Idx]->Budget;
}

double ServeLoop::recentLatencySec(unsigned Idx, double P) const {
  assert(Idx < Classes.size());
  const ClassState &C = *Classes[Idx];
  while (!C.RecentSec.empty() &&
         C.RecentSec.front().first + ClassState::RecentWindow < Sim.now())
    C.popRecent();
  double Lat = -1.0;
  if (!C.RecentSorted.empty())
    Lat = C.RecentSorted[nearestRankIndex(P, C.RecentSorted.size())];
  // Floor by the head-of-line wait (queued or forming): when requests
  // wait faster than they finish, the queue itself is the latency signal.
  const ServeRequest *Oldest = nullptr;
  if (!C.Forming.empty())
    Oldest = C.Forming.front().get();
  else if (!C.Queue.empty())
    Oldest = C.Queue.front().get();
  if (Oldest)
    Lat = std::max(Lat, sim::toSeconds(Sim.now() - Oldest->ArrivedAt));
  return Lat;
}

const BatchStats &ServeLoop::batchStats(unsigned Idx) const {
  assert(Idx < Classes.size());
  return Classes[Idx]->BStats;
}

std::uint64_t ServeLoop::inFlightRequests(unsigned Idx) const {
  assert(Idx < Classes.size());
  std::uint64_t N = 0;
  for (const auto &F : Classes[Idx]->Active)
    N += F->Members.size() - F->Attributed;
  return N;
}
