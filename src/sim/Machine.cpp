//===- Machine.cpp - Simulated multicore machine ---------------------------===//

#include "sim/Machine.h"

#include <algorithm>

using namespace parcae::sim;

ThreadBody::~ThreadBody() = default;

bool Waitable::valid(const Waiter &W) {
  return W.T->State == ThreadState::Blocked && W.T->BlockSeq == W.Seq;
}

void Waitable::notifyAll() {
  std::vector<Waiter> Woken;
  Woken.swap(Waiters);
  for (const Waiter &W : Woken)
    if (valid(W))
      W.T->machine().wake(W.T);
}

void Waitable::notifyOne() {
  // Discard stale entries until a thread still blocked on this
  // registration is found; wake only it. Entries from a satisfied
  // blockAny would otherwise absorb the single notification.
  while (!Waiters.empty()) {
    Waiter W = Waiters.front();
    Waiters.erase(Waiters.begin());
    if (valid(W)) {
      W.T->machine().wake(W.T);
      return;
    }
  }
}

Machine::Machine(Simulator &Sim, unsigned NumCores, MachineConfig Cfg)
    : Sim(Sim), Cfg(Cfg), Cores(NumCores), OnlineCount(NumCores) {
  assert(NumCores > 0 && "machine needs at least one core");
  // A nominal-rate core must never read as slow: quantum coalescing and
  // the rate sensor's no-op skip both rely on it.
  assert(Cfg.SlowCoreThreshold <= 1.0 && "threshold above nominal rate");
  Tel = telemetry::recorder();
  if (Tel) {
    Tel->bindClock(Sim);
    TelPid = Tel->processFor("machine");
    for (unsigned I = 0; I < NumCores; ++I)
      Tel->nameThread(TelPid, I, "core " + std::to_string(I));
    CoreRateMetric = &Tel->metrics().gauge("machine.core_rate");
    CoreRateMetric->set(1.0);
    TelCoreSpan.assign(NumCores, nullptr);
    Counters.bind(Tel->metrics());
    Counters.add("machine.slices", [this] { return counts().Slices; },
                 telemetry::Listing::Always);
    Counters.add("machine.ctx_switches", Cnt.CtxSwitches,
                 telemetry::Listing::Always);
    Counters.add("machine.cores_penalized", Cnt.CoresPenalized);
    Counters.add("machine.cores_recovered", Cnt.CoresRecovered);
    Counters.add("machine.faults.offline", Cnt.Offlines);
    Counters.add("machine.faults.domain_warnings", Cnt.DomainWarnings);
    Counters.add("machine.faults.rescued", Cnt.Rescued);
    Counters.add("machine.faults.wedges",
                 [this] { return FiredWedges.size(); });
    Counters.add("machine.repairs", RepairedCount);
  }
}

Machine::~Machine() {
  // Surface the event-core tier split (ring and heap hits) in the
  // metrics dump. Done here, not in TraceFile's destructor: the machine
  // is destroyed while its simulator is still alive, whereas the
  // recorder outlives both.
  if (Tel)
    Tel->captureSimQueueMetrics(Sim);
  if (!Chains.empty())
    Sim.removeWatch(this);
}

SimThread *Machine::spawn(std::string Name, std::unique_ptr<ThreadBody> Body) {
  assert(Body && "spawn() requires a body");
  auto T = std::unique_ptr<SimThread>(
      new SimThread(*this, Threads.size(), std::move(Name), std::move(Body)));
  SimThread *Raw = T.get();
  Threads.push_back(std::move(T));
  ++AliveCount;
  ReadyQueue.push_back(Raw);
  dispatch();
  return Raw;
}

SimTime Machine::busyCoreTime() const {
  // Fold in the interval since the last busy-count change.
  BusyIntegral += static_cast<SimTime>(BusyCount) *
                  (Sim.now() - BusyIntegralLast);
  BusyIntegralLast = Sim.now();
  return BusyIntegral;
}

void Machine::setBusyCount(unsigned N) {
  busyCoreTime(); // settle the integral at the old count
  BusyCount = N;
}

Machine::Counts Machine::counts() const {
  Counts C = Cnt;
  for (unsigned I : Chains)
    C.Slices += phantomsPassed(Cores[I]);
  return C;
}

void Machine::wake(SimThread *T) {
  if (T->State != ThreadState::Blocked)
    return; // already woken through another waitable
  T->State = ThreadState::Ready;
  ReadyQueue.push_back(T);
  dispatch();
}

void Machine::dispatch() {
  if (InDispatch) {
    DispatchPending = true;
    return;
  }
  InDispatch = true;
  do {
    DispatchPending = false;
    tryAssign();
  } while (DispatchPending);
  InDispatch = false;
  // A runnable thread left without a core, a gang left waiting, or
  // capacity overcommitted by gang helpers makes the next boundary of
  // every coalesced slice a real scheduling decision.
  if (!Chains.empty() && (!ReadyQueue.empty() || GangAvail.hasWaiters() ||
                          BusyCount > OnlineCount))
    splitAllChains();
  // The busy count is sampled here, once it has settled: the transient
  // dip-and-recover of an end-slice/start-slice pair at one timestamp
  // would otherwise flood the trace with a counter event per quantum.
  if (Tel)
    emitBusySample();
}

void Machine::emitBusySample() {
  // One sample per gate interval of virtual time: workers blocking
  // between iterations make the settled count oscillate far faster than
  // any viewer needs. A suppressed change arms a one-shot flush, so the
  // series still lands on the final value once the burst passes.
  static constexpr SimTime Gate = 20 * USec;
  if (BusyCount == TelBusyEmitted)
    return;
  SimTime Now = Sim.now();
  if (TelBusyEmitted != ~0u && Now < TelBusyLastTs + Gate) {
    if (!TelBusyFlushArmed) {
      TelBusyFlushArmed = true;
      Sim.schedule(TelBusyLastTs + Gate - Now, [this] {
        TelBusyFlushArmed = false;
        emitBusySample();
      });
    }
    return;
  }
  TelBusyEmitted = BusyCount;
  TelBusyLastTs = Now;
  Tel->counter(TelPid, 0, "machine", "busy_cores", BusyCount);
}

void Machine::tryAssign() {
  while (!ReadyQueue.empty()) {
    SimThread *T = ReadyQueue.front();
    // Threads terminated while queued are dropped lazily here.
    if (T->State == ThreadState::Finished) {
      ReadyQueue.pop_front();
      continue;
    }
    // Gang reservations keep some idle cores unavailable; offlined cores
    // no longer count as capacity at all.
    if (BusyCount >= OnlineCount)
      return;
    // Find a free core, preferring the one the thread last ran on so that
    // a thread running alone never pays switch costs. With slow-core
    // avoidance on, a core observed running dilated is last-resort: any
    // healthy core outranks it (even at the price of a context switch),
    // and affinity only breaks ties within each class. Penalized cores
    // still run work when nothing else is free — placement stays
    // work-conserving, and using them is also what re-probes their rate.
    int Free = -1;
    int FreeRank = 4;
    for (unsigned I = 0; I < Cores.size(); ++I) {
      if (Cores[I].Running || Cores[I].Offline)
        continue;
      bool Affine = Cores[I].LastThread == T;
      int Rank = (Cfg.SlowCoreAvoidance && corePenalized(I))
                     ? (Affine ? 2 : 3)
                     : (Affine ? 0 : 1);
      if (Rank < FreeRank) {
        FreeRank = Rank;
        Free = static_cast<int>(I);
        if (Rank == 0)
          break;
      }
    }
    if (Free < 0)
      return; // all cores busy
    ReadyQueue.pop_front();
    startSlice(static_cast<unsigned>(Free), T);
  }
}

void Machine::startSlice(unsigned CoreIdx, SimThread *T) {
  Core &C = Cores[CoreIdx];
  assert(!C.Running && "core already busy");
  assert(T->State == ThreadState::Ready && "thread not ready");

  // A gang compute that previously failed to reserve helpers is retried
  // before asking the body for anything new.
  if (T->PendingGang > 0 && T->RemainingBurst == 0) {
    if (!tryReserveGang(T, T->PendingGang, T->PendingGangCycles))
      return;
    T->PendingGang = 0;
  }

  // If the previous burst is exhausted, ask the body for the next action.
  // Zero-cost computes are folded into the loop; a livelock guard catches
  // bodies that spin without consuming time.
  unsigned Spins = 0;
  while (T->RemainingBurst == 0) {
    Action A = T->Body->resume(*this, *T);
    switch (A.K) {
    case Action::Kind::Compute:
      if (A.Gang > 1) {
        if (!tryReserveGang(T, A.Gang, A.Cycles)) {
          T->PendingGang = A.Gang;
          T->PendingGangCycles = A.Cycles;
          return;
        }
      } else {
        T->RemainingBurst = A.Cycles;
      }
      if (A.Cycles == 0 && ++Spins > 1000000)
        assert(false && "thread body livelock: endless zero-cost computes");
      break;
    case Action::Kind::Block:
      assert(A.W && "block action requires a waitable");
      T->State = ThreadState::Blocked;
      // A thread may sit in several waiter lists; wake() is idempotent and
      // entries from earlier block epochs are discarded when their
      // waitable next notifies.
      ++T->BlockSeq;
      A.W->Waiters.push_back({T, T->BlockSeq});
      if (A.W2)
        A.W2->Waiters.push_back({T, T->BlockSeq});
      return; // core stays free; caller keeps assigning
    case Action::Kind::Finish:
      T->State = ThreadState::Finished;
      assert(AliveCount > 0);
      --AliveCount;
      if (Tel) {
        // Close the thread's occupancy span; it will never run again.
        for (unsigned I = 0; I < TelCoreSpan.size(); ++I)
          if (TelCoreSpan[I] == T) {
            Tel->end(TelPid, I, "core", T->name());
            TelCoreSpan[I] = nullptr;
          }
      }
      T->ExitEvent.notifyAll();
      return;
    }
  }

  T->State = ThreadState::Running;
  T->CoreIdx = static_cast<int>(CoreIdx);
  C.Running = T;
  setBusyCount(BusyCount + 1);

  SimTime Overhead = (C.LastThread && C.LastThread != T)
                         ? Cfg.CtxSwitchCost + Cfg.CacheRefillCost
                         : 0;
  SimTime SliceLen = std::min(T->RemainingBurst, Cfg.Quantum);
  // A straggling core stretches the slice's wall time: every work cycle
  // takes Dilation cycles, though only SliceLen cycles of work complete.
  // The factor is sampled where the work begins (after the switch
  // overhead) and the slice is clamped to the next straggler-window
  // boundary, so each slice runs under one constant factor and a window
  // opening or closing mid-slice takes effect on time (piecewise-exact),
  // the same way offline/domain events already bound slices.
  SimTime WorkStart = Sim.now() + Overhead;
  double Dilation = Plan ? Plan->dilation(CoreIdx, WorkStart) : 1.0;
  if (Plan)
    if (SimTime Boundary = Plan->nextDilationBoundary(CoreIdx, WorkStart)) {
      SimTime Span = Boundary - WorkStart;
      SimTime MaxWork =
          Dilation > 1.0
              ? static_cast<SimTime>(static_cast<double>(Span) / Dilation)
              : Span;
      // Never clamp to zero work: a boundary nearer than one dilated
      // cycle still admits one cycle, bounding the error at one cycle
      // while guaranteeing progress.
      SliceLen = std::min(SliceLen, std::max<SimTime>(MaxWork, 1));
    }
  // The quantum timer is a *wall-clock* preemption: it does not slow
  // down with a dilated core, so a slice never occupies a straggling
  // core for more than about one quantum of wall time. This is what
  // lets the rate sensor re-sample (and the dispatcher route around) a
  // slow core during a long straggler window rather than only at its
  // close.
  if (Dilation > 1.0) {
    SimTime MaxWork =
        static_cast<SimTime>(static_cast<double>(Cfg.Quantum) / Dilation);
    SliceLen = std::min(SliceLen, std::max<SimTime>(MaxWork, 1));
  }
  SimTime Wall =
      Dilation > 1.0
          ? static_cast<SimTime>(static_cast<double>(SliceLen) * Dilation)
          : SliceLen;
  // Quantum coalescing: when no boundary inside the burst could change
  // anything, the whole burst (up to the next straggler-window edge) is
  // one slice whose inner quantum boundaries are phantoms.
  bool Chain = false;
  if (Dilation == 1.0 && T->RemainingBurst > Cfg.Quantum &&
      coalescible(CoreIdx, T)) {
    SimTime Work = T->RemainingBurst;
    if (Plan)
      if (SimTime Boundary = Plan->nextDilationBoundary(CoreIdx, WorkStart))
        Work = std::min(Work, std::max<SimTime>(Boundary - WorkStart, 1));
    if (Work > Cfg.Quantum) {
      Chain = true;
      SliceLen = Wall = Work;
    }
  }
  C.SliceAt = Sim.now();
  C.SliceOverhead = Overhead;
  C.SliceWork = SliceLen;
  C.SliceDilation = Dilation;
  std::uint64_t Epoch = ++C.Epoch;
  ++Cnt.Slices;
  if (Overhead > 0)
    ++Cnt.CtxSwitches;
  if (Tel) {
    if (Overhead > 0) {
      Tel->instant(TelPid, CoreIdx, "machine", "ctx_switch",
                   {telemetry::TraceArg::num(
                       "cost_us", toSeconds(Overhead) * 1e6)});
    }
    // One span per occupancy epoch: back-to-back slices of the same
    // thread on the same core continue the open span.
    if (TelCoreSpan[CoreIdx] != T) {
      if (TelCoreSpan[CoreIdx])
        Tel->end(TelPid, CoreIdx, "core", TelCoreSpan[CoreIdx]->name());
      Tel->begin(TelPid, CoreIdx, "core", T->name());
      TelCoreSpan[CoreIdx] = T;
    }
  }
  if (Chain)
    armChain(CoreIdx, T, Overhead, Epoch);
  else
    Sim.schedule(Overhead + Wall, [this, CoreIdx, T, SliceLen, Epoch] {
      endSlice(CoreIdx, T, SliceLen, Epoch);
    });
}

bool Machine::coalescible(unsigned CoreIdx, SimThread *T) const {
  // At every boundary the thread must re-take this core at no cost:
  // nobody else runnable, no gang waiting to be notified, capacity for it
  // after the end-of-slice dip, a rate sample that leaves the EWMA at
  // exactly 1.0 with no penalty transition, and no other free core the
  // affinity rule would move it to.
  const Core &C = Cores[CoreIdx];
  if (!ReadyQueue.empty() || GangAvail.hasWaiters() ||
      BusyCount > OnlineCount || C.Rate != 1.0 || C.PenalizedMark)
    return false;
  for (unsigned I = 0; I < Cores.size(); ++I)
    if (I != CoreIdx && !Cores[I].Running && !Cores[I].Offline &&
        Cores[I].LastThread == T)
      return false;
  return true;
}

template <typename F>
void Machine::scheduleAs(const Moment &M, SimTime At, F &&Fn) {
  const Moment *Saved = ArmingAs;
  ArmingAs = &M;
  if (At == Sim.now())
    Sim.scheduleNowAsArmedEarlier(std::forward<F>(Fn));
  else
    Sim.scheduleAt(At, std::forward<F>(Fn));
  ArmingAs = Saved;
}

void Machine::armChain(unsigned CoreIdx, SimThread *T, SimTime Overhead,
                       std::uint64_t Epoch) {
  Core &C = Cores[CoreIdx];
  SimTime Work = C.SliceWork;
  C.ChainStart = C.SliceAt + Overhead;
  C.ChainEnd = C.ChainStart + Work;
  // Rank among phantoms sharing an instant. Phantoms at one instant fire
  // after the events armed at earlier instants and before zero-delay
  // ones, each ordered by its previous boundary. So at its first phantom
  // instant F, a chain armed before F - Quantum's phantoms fired (across
  // a switch cost, or from an event armed earlier) orders before every
  // older chain, and one armed after them orders behind every older
  // chain; chains that share F keep their arming order.
  bool Early = Overhead > 0 || Sim.currentArmedEarlier();
  SimTime First = C.ChainStart + Cfg.Quantum;
  constexpr std::uint64_t Mid = std::uint64_t{1} << 62;
  C.RankHi = Early ? Mid - 1 - First : Mid + First;
  C.RankLo = ++ChainsArmed;
  C.ArmedClass = Sim.currentArmedEarlier() ? 0 : 2;
  Moment End = endMoment(C);
  scheduleAs(End, C.ChainEnd, [this, CoreIdx, T, Work, Epoch] {
    endSlice(CoreIdx, T, Work, Epoch);
  });
  C.Coalesced = true;
  if (Chains.empty())
    Sim.addWatch(this);
  Chains.push_back(CoreIdx);
  // Final slice events of other chains that land on one of this chain's
  // boundaries, but would have been armed after that boundary's own
  // slice event, must fire after it: split those chains so their final
  // event is re-armed in order.
  std::vector<unsigned> Late;
  for (unsigned I : Chains) {
    const Core &D = Cores[I];
    if (I == CoreIdx || D.ChainEnd < First || D.ChainEnd >= C.ChainEnd ||
        (D.ChainEnd - C.ChainStart) % Cfg.Quantum != 0)
      continue;
    if (armMoment(C, (D.ChainEnd - C.ChainStart) / Cfg.Quantum) <
        endMoment(D))
      Late.push_back(I);
  }
  if (!Late.empty())
    splitChains(std::move(Late));
}

std::uint64_t Machine::phantomsPassed(const Core &C) const {
  // A phantom at the current instant has fired unless the running event
  // was armed at an earlier instant (those run before it).
  SimTime Now = Sim.now();
  if (Now < C.ChainStart + Cfg.Quantum)
    return 0;
  std::uint64_t J = (Now - C.ChainStart) / Cfg.Quantum;
  if (phantomAt(C, J) == Now && Sim.currentArmedEarlier())
    --J;
  return std::min(J, phantomCount(C));
}

Machine::Moment Machine::nowMoment() const {
  return Moment{Sim.now(), Sim.currentArmedEarlier() ? 0u : 2u,
                ~std::uint64_t{0}, 0};
}

void Machine::beforeSchedule(SimTime At) {
  // An event landing on a phantom boundary that it would have followed
  // (it is armed after the boundary's own slice event was), or on a
  // chain's final instant that it would have preceded, needs the
  // per-quantum slice event there: split the chain.
  Moment Mv = ArmingAs ? *ArmingAs : nowMoment();
  std::vector<unsigned> Hit;
  for (unsigned I : Chains) {
    const Core &C = Cores[I];
    if (At > C.ChainEnd || At < C.ChainStart + Cfg.Quantum)
      continue;
    bool Split =
        At == C.ChainEnd
            ? Mv < endMoment(C)
            : (At - C.ChainStart) % Cfg.Quantum == 0 &&
                  armMoment(C, (At - C.ChainStart) / Cfg.Quantum) < Mv;
    if (Split)
      Hit.push_back(I);
  }
  if (!Hit.empty())
    splitChains(std::move(Hit));
}

void Machine::splitChains(std::vector<unsigned> Picked) {
  struct Cut {
    unsigned Core;
    std::uint64_t J; ///< next unfired boundary (past the last: none)
  };
  auto Next = [&](unsigned I) { return phantomsPassed(Cores[I]) + 1; };
  // Chains whose next boundary coincides with a picked chain's split
  // with it, so every slice event at that instant is re-armed in rank
  // order.
  std::vector<SimTime> Instants;
  for (unsigned I : Picked)
    if (Next(I) <= phantomCount(Cores[I]))
      Instants.push_back(phantomAt(Cores[I], Next(I)));
  std::vector<Cut> Cuts;
  for (unsigned I : Chains) {
    std::uint64_t J = Next(I);
    bool Pick =
        std::find(Picked.begin(), Picked.end(), I) != Picked.end() ||
        (J <= phantomCount(Cores[I]) &&
         std::find(Instants.begin(), Instants.end(),
                   phantomAt(Cores[I], J)) != Instants.end());
    if (Pick)
      Cuts.push_back(Cut{I, J});
  }
  for (const Cut &X : Cuts) {
    Cnt.Slices += X.J - 1; // the quanta begun at fired phantoms
    unchain(X.Core);
  }
  std::sort(Cuts.begin(), Cuts.end(), [&](const Cut &A, const Cut &B) {
    const Core &CA = Cores[A.Core], &CB = Cores[B.Core];
    return CA.RankHi != CB.RankHi ? CA.RankHi < CB.RankHi
                                  : CA.RankLo < CB.RankLo;
  });
  for (const Cut &X : Cuts) {
    Core &C = Cores[X.Core];
    if (X.J > phantomCount(C))
      continue; // only the final slice remains; its event stays armed
    SimTime At = phantomAt(C, X.J);
    SimTime Work = At - C.ChainStart;
    C.SliceWork = Work;
    std::uint64_t Epoch = ++C.Epoch; // cancels the chain's final event
    SimThread *T = C.Running;
    Moment M = armMoment(C, X.J);
    scheduleAs(M, At, [this, I = X.Core, T, Work, Epoch] {
      endSlice(I, T, Work, Epoch);
    });
  }
}

void Machine::unchain(unsigned CoreIdx) {
  Cores[CoreIdx].Coalesced = false;
  Chains.erase(std::find(Chains.begin(), Chains.end(), CoreIdx));
  if (Chains.empty())
    Sim.removeWatch(this);
}

/// Reserves Gang-1 helper cores and arms the burst, or blocks the thread
/// on GangAvail. Returns true on success.
bool Machine::tryReserveGang(SimThread *T, unsigned Gang, SimTime Cycles) {
  assert(Gang <= Cores.size() && "gang larger than the machine");
  assert(Cycles > 0 && "gang computes must consume time");
  if (BusyCount + Gang > Cores.size()) {
    T->State = ThreadState::Blocked;
    ++T->BlockSeq;
    GangAvail.Waiters.push_back({T, T->BlockSeq});
    return false;
  }
  Reserved += Gang - 1;
  T->GangHold = Gang - 1;
  setBusyCount(BusyCount + (Gang - 1));
  T->RemainingBurst = Cycles;
  return true;
}

void Machine::endSlice(unsigned CoreIdx, SimThread *T, SimTime SliceLen,
                       std::uint64_t Epoch) {
  Core &C = Cores[CoreIdx];
  if (C.Epoch != Epoch)
    return; // slice cancelled: stranded, terminated, or a split chain
  assert(C.Running == T && "slice ended on wrong core");
  if (C.Coalesced) {
    Cnt.Slices += phantomCount(C);
    unchain(CoreIdx);
  }
  noteSliceRate(CoreIdx);
  C.Running = nullptr;
  C.LastThread = T;
  setBusyCount(BusyCount - 1);
  // Any freed capacity may unblock a waiting gang.
  if (GangAvail.hasWaiters())
    GangAvail.notifyAll();

  assert(T->RemainingBurst >= SliceLen);
  T->RemainingBurst -= SliceLen;
  if (T->RemainingBurst == 0 && T->GangHold > 0)
    releaseGangHold(T);
  T->State = ThreadState::Ready;
  T->CoreIdx = -1;
  ReadyQueue.push_back(T);
  dispatch();
}

void Machine::noteSliceRate(unsigned CoreIdx) {
  Core &C = Cores[CoreIdx];
  // A nominal-rate slice on a nominal, unpenalized core leaves the EWMA
  // at exactly 1.0 with no penalty transition (SlowCoreThreshold <= 1),
  // and coreRate() reads 1.0 whether or not RateSampledAt is refreshed:
  // the sample is a no-op. The same conditions make coalescible() hold.
  if (C.SliceDilation == 1.0 && C.Rate == 1.0 && !C.PenalizedMark)
    return;
  SimTime Now = Sim.now();
  // One slice contributes its wall time's worth of evidence, saturating
  // at a full replacement after RateTau of continuous observation.
  SimTime Wall = static_cast<SimTime>(static_cast<double>(C.SliceWork) *
                                      C.SliceDilation);
  double Alpha =
      Cfg.RateTau > 0 ? std::min(1.0, static_cast<double>(Wall) /
                                          static_cast<double>(Cfg.RateTau))
                      : 1.0;
  double Prev = Now - C.RateSampledAt > Cfg.RateSampleTtl ? 1.0 : C.Rate;
  C.Rate = Prev + Alpha * (1.0 / C.SliceDilation - Prev);
  C.RateSampledAt = Now;
  if (!Cfg.SlowCoreAvoidance)
    return;
  bool Pen = C.Rate < Cfg.SlowCoreThreshold;
  if (Pen == C.PenalizedMark)
    return;
  C.PenalizedMark = Pen;
  ++(Pen ? Cnt.CoresPenalized : Cnt.CoresRecovered);
  if (Tel) {
    CoreRateMetric->set(minCoreRate());
    Tel->instant(TelPid, CoreIdx, "machine",
                 Pen ? "core_penalized" : "core_recovered",
                 {telemetry::TraceArg::num("rate", C.Rate),
                  telemetry::TraceArg::num("penalized",
                                           static_cast<double>(
                                               penalizedCores()))});
  }
}

double Machine::coreRate(unsigned CoreIdx) const {
  assert(CoreIdx < Cores.size());
  const Core &C = Cores[CoreIdx];
  // A stale estimate reads as nominal: an idle core cannot re-measure
  // itself, so after the TTL it gets the benefit of the doubt.
  if (Sim.now() - C.RateSampledAt > Cfg.RateSampleTtl)
    return 1.0;
  return C.Rate;
}

bool Machine::corePenalized(unsigned CoreIdx) const {
  if (!Cfg.SlowCoreAvoidance || Cores[CoreIdx].Offline)
    return false;
  if (coreRate(CoreIdx) < Cfg.SlowCoreThreshold)
    return true;
  // Live evidence: a running slice that has overstayed its healthy-core
  // schedule (overhead + work; wall == work at nominal speed) is lagging
  // *right now*, before any completed slice can feed the EWMA. This is
  // what lets speculation convict the core its laggard is stuck on — by
  // definition that core is mid-slice, so a completed-slice-only sensor
  // would learn of the dilation only after the laggard escapes.
  const Core &C = Cores[CoreIdx];
  if (C.Running) {
    SimTime Expect = C.SliceOverhead + C.SliceWork;
    SimTime Sofar = Sim.now() - C.SliceAt;
    if (Expect > 0 && Sofar > Expect &&
        static_cast<double>(Expect) / static_cast<double>(Sofar) <
            Cfg.SlowCoreThreshold)
      return true;
  }
  return false;
}

unsigned Machine::penalizedCores() const {
  if (!Cfg.SlowCoreAvoidance)
    return 0;
  unsigned N = 0;
  for (unsigned I = 0; I < Cores.size(); ++I)
    if (corePenalized(I))
      ++N;
  return N;
}

double Machine::minCoreRate() const {
  double Min = 1.0;
  for (unsigned I = 0; I < Cores.size(); ++I)
    if (!Cores[I].Offline)
      Min = std::min(Min, coreRate(I));
  return Min;
}

void Machine::releaseGangHold(SimThread *T) {
  assert(T->GangHold > 0);
  assert(Reserved >= T->GangHold);
  Reserved -= T->GangHold;
  setBusyCount(BusyCount - T->GangHold);
  T->GangHold = 0;
  GangAvail.notifyAll();
}

void Machine::installFaultPlan(FaultPlan NewPlan) {
  assert(!Plan && "a fault plan is already installed");
  Plan = std::move(NewPlan);
  for (const OfflineFault &F : Plan->offlines()) {
    assert(F.Core < Cores.size() && "offline fault names a missing core");
    Sim.scheduleAt(F.At, [this, Core = F.Core] { offlineCore(Core); });
  }
  for (const FailureDomainEvent &D : Plan->domains()) {
    for (unsigned Core : D.Cores) {
      (void)Core;
      assert(Core < Cores.size() && "domain names a missing core");
    }
    Sim.scheduleAt(D.At, [this, &D] { offlineDomain(D); });
    if (D.Warning > 0) {
      SimTime WarnAt = D.Warning >= D.At ? 0 : D.At - D.Warning;
      Sim.scheduleAt(WarnAt, [this, &D] {
        ++Cnt.DomainWarnings;
        if (Tel) {
          Tel->instant(TelPid, 0, "machine", "fault_domain_warning",
                       {telemetry::TraceArg::str("domain", D.Name),
                        telemetry::TraceArg::num(
                            "cores", static_cast<double>(D.Cores.size())),
                        telemetry::TraceArg::num(
                            "lead_us", toSeconds(D.Warning) * 1e6)});
        }
        for (const auto &L : DomainWarningListeners)
          L(D);
      });
    }
    if (D.Downtime > 0)
      Sim.scheduleAt(D.At + D.Downtime, [this, &D] {
        for (unsigned Core : D.Cores)
          onlineCore(Core);
      });
  }
  for (const RepairEvent &R : Plan->repairs()) {
    assert(R.Core < Cores.size() && "repair names a missing core");
    Sim.scheduleAt(R.At, [this, Core = R.Core] { onlineCore(Core); });
  }
  if (Tel)
    for (const StragglerFault &S : Plan->stragglers()) {
      assert(S.Core < Cores.size() && "straggler names a missing core");
      Sim.scheduleAt(S.At, [this, S] {
        Tel->instant(TelPid, S.Core, "machine", "fault_straggler",
                     {telemetry::TraceArg::num("dilation", S.Dilation),
                      telemetry::TraceArg::num(
                          "duration_us", toSeconds(S.Duration) * 1e6)});
      });
    }
}

void Machine::offlineCore(unsigned CoreIdx) {
  assert(CoreIdx < Cores.size());
  Core &C = Cores[CoreIdx];
  if (C.Offline)
    return;
  assert(OnlineCount > 1 && "cannot offline the last core");
  C.Offline = true;
  --OnlineCount;
  LastOfflineAt = Sim.now();
  if (SimThread *T = C.Running) {
    if (C.Coalesced) {
      Cnt.Slices += phantomsPassed(C);
      unchain(CoreIdx);
    }
    // Credit the work the interrupted slice completed before the failure;
    // the rest of the burst resumes after rescue.
    SimTime Ran = Sim.now() - C.SliceAt;
    SimTime Done = 0;
    if (Ran > C.SliceOverhead)
      Done = std::min(
          static_cast<SimTime>(static_cast<double>(Ran - C.SliceOverhead) /
                               C.SliceDilation),
          C.SliceWork);
    assert(T->RemainingBurst >= Done);
    T->RemainingBurst -= Done;
    ++C.Epoch; // cancel the in-flight endSlice
    C.Running = nullptr;
    C.LastThread = T;
    T->State = ThreadState::Stranded;
    T->CoreIdx = -1;
    ++StrandedCount;
    // Gang helpers stay reserved: the stranded burst still owns them and
    // completes on rescue.
    setBusyCount(BusyCount - 1);
  }
  // Less capacity can leave a coalesced slice's thread without a core at
  // its next boundary.
  splitAllChains();
  ++Cnt.Offlines;
  if (Tel) {
    Tel->instant(TelPid, CoreIdx, "machine", "fault_offline",
                 {telemetry::TraceArg::num("online", OnlineCount),
                  telemetry::TraceArg::num("stranded", StrandedCount)});
    if (TelCoreSpan[CoreIdx]) {
      Tel->end(TelPid, CoreIdx, "core", TelCoreSpan[CoreIdx]->name());
      TelCoreSpan[CoreIdx] = nullptr;
    }
    emitCapacitySample();
  }
  if (OnTopologyChange)
    OnTopologyChange(OnlineCount);
  dispatch();
}

void Machine::offlineDomain(const FailureDomainEvent &D) {
  if (Tel)
    Tel->instant(TelPid, 0, "machine", "fault_domain",
                 {telemetry::TraceArg::str("domain", D.Name),
                  telemetry::TraceArg::num(
                      "cores", static_cast<double>(D.Cores.size()))});
  for (unsigned Core : D.Cores)
    offlineCore(Core);
}

void Machine::onlineCore(unsigned CoreIdx) {
  assert(CoreIdx < Cores.size());
  Core &C = Cores[CoreIdx];
  if (!C.Offline)
    return; // never failed (or already repaired): nothing to re-admit
  C.Offline = false;
  ++OnlineCount;
  ++RepairedCount;
  LastOnlineAt = Sim.now();
  // The repaired core may be where affinity moves a running thread next.
  splitAllChains();
  if (Tel) {
    Tel->instant(TelPid, CoreIdx, "machine", "repair_online",
                 {telemetry::TraceArg::num("online", OnlineCount)});
    emitCapacitySample();
  }
  if (OnTopologyChange)
    OnTopologyChange(OnlineCount);
  // Ready threads queued behind the reduced capacity can use the core now.
  dispatch();
}

void Machine::emitCapacitySample() {
  Tel->counter(TelPid, 0, "machine", "online_cores", OnlineCount);
}

unsigned Machine::rescueStranded() {
  std::vector<SimThread *> All;
  for (const auto &TP : Threads)
    if (TP->State == ThreadState::Stranded)
      All.push_back(TP.get());
  unsigned N = rescueStranded(All);
  assert(StrandedCount == 0 && "stranded-count bookkeeping diverged");
  return N;
}

unsigned Machine::rescueStranded(const std::vector<SimThread *> &Targets) {
  unsigned N = 0;
  for (SimThread *T : Targets) {
    if (!T || T->State != ThreadState::Stranded)
      continue;
    T->State = ThreadState::Ready;
    ReadyQueue.push_back(T);
    // Decrement per thread, not wholesale: a partial rescue must leave the
    // count of the threads it never touched intact.
    assert(StrandedCount > 0 && "stranded-count bookkeeping diverged");
    --StrandedCount;
    ++N;
  }
  if (N > 0) {
    Cnt.Rescued += N;
    if (Tel)
      Tel->instant(TelPid, 0, "machine", "rescue",
                   {telemetry::TraceArg::num("threads", N),
                    telemetry::TraceArg::num("still_stranded", StrandedCount)});
    dispatch();
  }
  return N;
}

bool Machine::takeWedge(const std::string &Task, std::uint64_t Seq) {
  if (!Plan || !Plan->wedgeAt(Task, Seq))
    return false;
  if (!FiredWedges.insert({Task, Seq}).second)
    return false; // already fired once: the retry runs normally
  if (Tel)
    Tel->instant(TelPid, 0, "machine", "fault_wedge",
                 {telemetry::TraceArg::str("task", Task),
                  telemetry::TraceArg::num("seq", static_cast<double>(Seq))});
  return true;
}

void Machine::terminate(SimThread *T) {
  if (T->State == ThreadState::Finished)
    return;
  switch (T->State) {
  case ThreadState::Running: {
    Core &C = Cores[static_cast<unsigned>(T->CoreIdx)];
    assert(C.Running == T);
    if (C.Coalesced) {
      Cnt.Slices += phantomsPassed(C);
      unchain(static_cast<unsigned>(T->CoreIdx));
    }
    ++C.Epoch; // cancel the in-flight endSlice
    C.Running = nullptr;
    C.LastThread = T;
    setBusyCount(BusyCount - 1);
    break;
  }
  case ThreadState::Stranded:
    assert(StrandedCount > 0);
    --StrandedCount;
    break;
  case ThreadState::Ready:
    // Still in the ready queue; tryAssign drops it once Finished.
    break;
  case ThreadState::Blocked:
    // Stale waiter-list entries are discarded when the waitable next
    // notifies (wake() ignores non-Blocked threads).
    break;
  case ThreadState::Finished:
    break;
  }
  if (T->GangHold > 0)
    releaseGangHold(T);
  T->State = ThreadState::Finished;
  T->RemainingBurst = 0;
  T->PendingGang = 0;
  T->CoreIdx = -1;
  assert(AliveCount > 0);
  --AliveCount;
  if (Tel)
    for (unsigned I = 0; I < TelCoreSpan.size(); ++I)
      if (TelCoreSpan[I] == T) {
        Tel->end(TelPid, I, "core", T->name());
        TelCoreSpan[I] = nullptr;
      }
  T->ExitEvent.notifyAll();
  if (GangAvail.hasWaiters())
    GangAvail.notifyAll();
  dispatch();
}
