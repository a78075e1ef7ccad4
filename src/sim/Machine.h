//===- Machine.h - Simulated multicore machine ------------------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A simulated shared-memory multicore: N cores, cooperative threads, an
/// OS-style ready queue with quantum-based time slicing and context-switch
/// costs. This substitutes for the paper's 8-core Xeon E5310 and 24-core
/// Xeon X7460 evaluation machines (the host container has a single CPU, so
/// real threads cannot express parallelism).
///
/// Threads are written as explicit state machines: a ThreadBody's resume()
/// is called whenever the thread holds a core and has finished its previous
/// action, and returns the next action — compute for some cycles, block on
/// a Waitable, or finish. Blocking is poll-style: a woken thread must
/// re-check its condition, so spurious wakeups are harmless.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_SIM_MACHINE_H
#define PARCAE_SIM_MACHINE_H

#include "sim/Faults.h"
#include "sim/Simulator.h"
#include "sim/Time.h"
#include "telemetry/Telemetry.h"

#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace parcae::sim {

class Machine;
class SimThread;

/// A condition threads can block on. Wakeups are level-triggered from the
/// thread's point of view: the woken body re-checks its condition and may
/// block again.
///
/// Waiter entries carry the block epoch they were registered under
/// (SimThread::BlockSeq), so an entry left behind by a blockAny that was
/// satisfied through the *other* waitable is recognizably stale. That
/// makes notifyOne() lost-wakeup-safe: it skips stale entries until it
/// finds a thread that is still blocked on this registration, so a
/// single-consumer notification is never swallowed by a ghost.
class Waitable {
public:
  Waitable() = default;
  Waitable(const Waitable &) = delete;
  Waitable &operator=(const Waitable &) = delete;

  /// Wakes every validly waiting thread.
  void notifyAll();
  /// Wakes the longest-waiting valid thread, if any. Use when at most one
  /// waiter can make progress (e.g. one queue slot freed); waking the
  /// whole herd only to have all but one re-block inflates event counts.
  void notifyOne();
  bool hasWaiters() const { return !Waiters.empty(); }

private:
  friend class Machine;
  struct Waiter {
    SimThread *T;
    std::uint64_t Seq; ///< T->BlockSeq at registration time
  };
  static bool valid(const Waiter &W);
  std::vector<Waiter> Waiters;
};

/// What a thread does next, as reported by ThreadBody::resume().
struct Action {
  enum class Kind { Compute, Block, Finish };
  Kind K;
  SimTime Cycles = 0;
  Waitable *W = nullptr;
  /// Optional second wakeup source (e.g. "new work OR pause signal").
  Waitable *W2 = nullptr;
  /// Cores this compute occupies (a gang: the thread's own core plus
  /// Gang-1 reserved helpers, modelling an inner thread team).
  unsigned Gang = 1;

  static Action compute(SimTime Cycles) {
    return Action{Kind::Compute, Cycles, nullptr, nullptr, 1};
  }
  /// Occupies \p Cores cores for \p Cycles; blocks until that many cores
  /// are simultaneously available.
  static Action gangCompute(unsigned Cores, SimTime Cycles) {
    return Action{Kind::Compute, Cycles, nullptr, nullptr, Cores};
  }
  static Action block(Waitable &W) {
    return Action{Kind::Block, 0, &W, nullptr, 1};
  }
  static Action blockAny(Waitable &W, Waitable &W2) {
    return Action{Kind::Block, 0, &W, &W2, 1};
  }
  static Action finish() {
    return Action{Kind::Finish, 0, nullptr, nullptr, 1};
  }
};

/// The behaviour of a simulated thread.
class ThreadBody {
public:
  virtual ~ThreadBody();
  /// Called when the thread holds a core and its previous action completed.
  /// Returns the next action.
  virtual Action resume(Machine &M, SimThread &T) = 0;
};

/// Stranded: the thread's core went offline mid-slice; it holds no core
/// and cannot run again until Machine::rescueStranded() re-queues it —
/// the genuine stall a dead core causes, which the Morta watchdog must
/// detect and repair.
enum class ThreadState { Ready, Running, Blocked, Stranded, Finished };

/// One simulated software thread.
class SimThread {
public:
  const std::string &name() const { return Name; }
  std::uint64_t id() const { return Id; }
  ThreadState state() const { return State; }
  /// Core the thread currently runs on, or -1 when it holds no core.
  int coreIdx() const { return CoreIdx; }
  Machine &machine() const { return *M; }
  /// Signalled (notifyAll) when the thread finishes.
  Waitable &exitEvent() { return ExitEvent; }

private:
  friend class Machine;
  friend class Waitable;
  SimThread(Machine &M, std::uint64_t Id, std::string Name,
            std::unique_ptr<ThreadBody> Body)
      : M(&M), Id(Id), Name(std::move(Name)), Body(std::move(Body)) {}

  Machine *M;
  std::uint64_t Id;
  std::string Name;
  std::unique_ptr<ThreadBody> Body;
  Waitable ExitEvent;
  ThreadState State = ThreadState::Ready;
  /// Incremented each time the thread blocks; waiter entries older than
  /// the current value are stale (see Waitable).
  std::uint64_t BlockSeq = 0;
  SimTime RemainingBurst = 0;
  int CoreIdx = -1;
  unsigned GangHold = 0; ///< helper cores reserved for the current burst
  // A gang compute that could not reserve its helpers yet; retried when
  // the thread next gets a core (resume() must not be re-invoked).
  unsigned PendingGang = 0;
  SimTime PendingGangCycles = 0;
};

/// Costs of the simulated OS scheduler.
struct MachineConfig {
  /// Scheduling quantum; slices never exceed this.
  SimTime Quantum = 4 * MSec;
  /// Core-occupancy cost paid when a core switches to a different thread.
  SimTime CtxSwitchCost = 5 * USec;
  /// Additional core-occupancy cost on a switch, modelling the incoming
  /// thread's cold-cache refill. Application-dependent: near zero for
  /// compute-bound code, multiple milliseconds for memory-bound code
  /// whose working set exceeds its cache share under oversubscription
  /// (how dedup loses throughput under OS load balancing, Table 8.5).
  SimTime CacheRefillCost = 0;

  // --- Slow-core avoidance (straggler-aware placement) -----------------

  /// When on, dispatch prefers cores whose observed service rate is within
  /// SlowCoreThreshold of nominal; a penalized core becomes last-resort
  /// rather than an equal peer. Off by default: legacy scenarios keep
  /// byte-identical schedules.
  bool SlowCoreAvoidance = false;
  /// A core whose effective rate (1.0 = nominal) falls below this fraction
  /// is penalized in placement.
  static constexpr double SlowCoreThreshold = 0.75;
  /// EWMA time constant for per-core rate samples: one slice's weight is
  /// proportional to its wall time, saturating at RateTau.
  static constexpr SimTime RateTau = 1 * MSec;
  /// A rate estimate older than this reads as nominal again, so a slow
  /// core that went idle (nothing scheduled on it to re-measure) is
  /// re-probed instead of shunned forever.
  static constexpr SimTime RateSampleTtl = 15 * MSec;
};

/// The simulated multicore machine.
///
/// A burst that would run several quanta in a row with nothing to decide
/// at the boundaries between them is armed as one coalesced slice, and
/// split back into per-quantum slices the moment a boundary could matter
/// (DESIGN.md, "Quantum coalescing"). The schedule is the per-quantum
/// one exactly; only the number of simulator events differs.
class Machine : private ScheduleWatch {
public:
  Machine(Simulator &Sim, unsigned NumCores, MachineConfig Cfg = {});
  ~Machine();
  Machine(const Machine &) = delete;
  Machine &operator=(const Machine &) = delete;

  Simulator &sim() { return Sim; }
  const Simulator &sim() const { return Sim; }
  unsigned numCores() const { return static_cast<unsigned>(Cores.size()); }

  /// Creates a thread; it becomes ready immediately. The machine owns it.
  SimThread *spawn(std::string Name, std::unique_ptr<ThreadBody> Body);

  /// Number of cores currently occupied (running a slice or reserved as
  /// gang helpers).
  unsigned busyCores() const { return BusyCount; }

  /// Integral over time of the number of busy cores (core-nanoseconds).
  SimTime busyCoreTime() const;

  /// Number of spawned threads that have not finished.
  unsigned threadsAlive() const { return AliveCount; }

  // --- Fault model (sim/Faults.h) --------------------------------------

  /// Installs a fault plan: offline, domain, and repair events are
  /// scheduled on the simulator, straggler windows dilate slices, and
  /// workers query transient faults via transientFailCount(). Call before
  /// the run starts.
  void installFaultPlan(FaultPlan Plan);
  const FaultPlan *faultPlan() const { return Plan ? &*Plan : nullptr; }

  /// Cores still operational (numCores() minus offlined ones).
  unsigned onlineCores() const { return OnlineCount; }

  /// Permanently fails a core. A thread running on it is stranded (state
  /// ThreadState::Stranded) with its slice's completed work credited; it
  /// stays stranded until rescueStranded().
  void offlineCore(unsigned CoreIdx);

  /// Fails every core of a domain atomically at the current time (one
  /// burst, one topology notification after the last member).
  void offlineDomain(const FailureDomainEvent &D);

  /// Registers a listener fired when a failure domain with a Warning
  /// lead time announces itself (at D.At - D.Warning): the runtime's
  /// window to checkpoint and migrate regions off the doomed cores.
  /// Listeners are multicast in registration order.
  void addDomainWarningListener(
      std::function<void(const FailureDomainEvent &)> L) {
    DomainWarningListeners.push_back(std::move(L));
  }

  /// Repairs a failed core: re-admits it into slice scheduling and the
  /// capacity counts. A no-op on a core that is already online.
  void onlineCore(unsigned CoreIdx);

  /// Repairs applied so far (onlineCore calls that re-admitted a core).
  unsigned repairsApplied() const { return RepairedCount; }

  /// Virtual time of the most recent onlineCore() (watchdog growth
  /// detection latency is measured against this).
  SimTime lastOnlineAt() const { return LastOnlineAt; }

  /// Threads currently stranded on failed cores.
  unsigned strandedThreads() const { return StrandedCount; }

  /// Re-queues every stranded thread on the surviving cores, resuming the
  /// interrupted burst where it stopped. Returns how many were rescued.
  unsigned rescueStranded();

  /// Scoped rescue: re-queues only the stranded threads among \p Targets
  /// (non-stranded or null entries are skipped), leaving other stranded
  /// threads — and the StrandedCount they are counted in — untouched.
  /// Surgical restart uses this to repair one task without disturbing the
  /// rest of the region. Returns how many were rescued.
  unsigned rescueStranded(const std::vector<SimThread *> &Targets);

  /// Kills a thread in any state: its core (if running) is freed, gang
  /// reservations are released, and it counts as finished. Used by the
  /// abortive recovery path that cuts short in-flight iterations.
  void terminate(SimThread *T);

  /// Virtual time of the most recent offlineCore() (watchdog detection
  /// latency is measured against this).
  SimTime lastOfflineAt() const { return LastOfflineAt; }

  /// Fires after the online-core count changes in either direction
  /// (offlineCore shrinks it, onlineCore grows it back).
  std::function<void(unsigned OnlineCores)> OnTopologyChange;

  /// Transient-fault query for workers: attempts of (\p Task, \p Seq) that
  /// fault before one succeeds (0 when no plan is installed).
  unsigned transientFailCount(const std::string &Task,
                              std::uint64_t Seq) const {
    return Plan ? Plan->transientFailCount(Task, Seq) : 0;
  }

  /// Consuming wedge query: true the first time it is called for a
  /// (\p Task, \p Seq) the plan wedges, false ever after. Consumption is
  /// what lets the replacement worker (or an abortive-recovery replay)
  /// re-execute the iteration without wedging again.
  bool takeWedge(const std::string &Task, std::uint64_t Seq);

  // --- Slow-core avoidance (per-core effective service rate) -----------

  /// Observed effective service rate of \p CoreIdx: an EWMA over finished
  /// slices of work-cycles-per-wall-cycle, so 1.0 means nominal and 0.25
  /// means the core runs 4x dilated. An estimate older than
  /// MachineConfig::RateSampleTtl reads as 1.0 (the core is re-probed).
  double coreRate(unsigned CoreIdx) const;

  /// True when slow-core avoidance is on and \p CoreIdx's effective rate
  /// is below MachineConfig::SlowCoreThreshold.
  bool corePenalized(unsigned CoreIdx) const;

  /// Online cores currently penalized (always 0 with avoidance off).
  unsigned penalizedCores() const;

  /// Minimum effective rate across online cores (1.0 on an idle or
  /// healthy machine) — the machine.core_rate gauge.
  double minCoreRate() const;

  /// Event counts over the machine's life (machine.* metrics).
  struct Counts {
    std::uint64_t Slices = 0;         ///< scheduling quanta started
    std::uint64_t CtxSwitches = 0;    ///< slices that paid a switch cost
    std::uint64_t CoresPenalized = 0; ///< slow-core penalty transitions
    std::uint64_t CoresRecovered = 0; ///< ... and their reversals
    std::uint64_t Offlines = 0;       ///< cores failed
    std::uint64_t DomainWarnings = 0; ///< failure-domain warnings fired
    std::uint64_t Rescued = 0;        ///< stranded threads re-queued
  };
  /// Counts so far; Slices includes the quanta coalesced slices have
  /// started by now().
  Counts counts() const;

private:
  friend class Waitable;

  /// A point in the firing order, for placing coalesced quantum boundaries
  /// among real events at one instant. Class 0: a real event armed at an
  /// earlier instant (those run first); 1: a phantom quantum boundary,
  /// ordered by its chain's rank (Hi, Lo); 2: a real zero-delay or carry
  /// event, or no event at all. Real moments of one instant and class
  /// order by Hi (a chain's creation index; ~0 for the present).
  struct Moment {
    SimTime At;
    unsigned Class;
    std::uint64_t Hi, Lo;
    bool operator<(const Moment &O) const {
      if (At != O.At)
        return At < O.At;
      if (Class != O.Class)
        return Class < O.Class;
      return Hi != O.Hi ? Hi < O.Hi : Lo < O.Lo;
    }
  };

  struct Core {
    SimThread *Running = nullptr;
    SimThread *LastThread = nullptr;
    bool Offline = false;
    /// Slice epoch: incremented whenever the in-flight end-of-slice event
    /// must be cancelled (offline strands the runner, terminate kills it).
    /// The scheduled endSlice carries the epoch it was armed under and
    /// no-ops on mismatch — scheduled events cannot be unscheduled.
    std::uint64_t Epoch = 0;
    // Metadata of the in-flight slice, for crediting partial work when a
    // fault interrupts it.
    SimTime SliceAt = 0;       ///< absolute start time
    SimTime SliceOverhead = 0; ///< switch overhead before work begins
    SimTime SliceWork = 0;     ///< work cycles this slice covers
    double SliceDilation = 1.0;
    /// EWMA of observed service rate (work/wall, 1.0 = nominal), updated
    /// at each slice end; stale past RateSampleTtl (see coreRate()).
    double Rate = 1.0;
    SimTime RateSampledAt = 0;
    /// Placement-penalty state as of the last rate sample, kept only to
    /// emit core_penalized / core_recovered transitions exactly once.
    bool PenalizedMark = false;
    // Coalesced slice ("chain"): work runs from ChainStart to ChainEnd,
    // crossing phantom quantum boundaries ChainStart + j * Quantum.
    bool Coalesced = false;
    SimTime ChainStart = 0;
    SimTime ChainEnd = 0;
    /// Order of this chain's phantoms among same-instant phantoms of other
    /// chains (Moment::Hi/Lo); Lo is also the creation index.
    std::uint64_t RankHi = 0, RankLo = 0;
    /// Moment::Class of the chain's arming (at SliceAt).
    unsigned ArmedClass = 0;
  };

  void wake(SimThread *T);
  void dispatch();
  void tryAssign();
  /// Folds one finished slice's observed rate into the core's EWMA and
  /// emits penalty-transition telemetry.
  void noteSliceRate(unsigned CoreIdx);
  void startSlice(unsigned CoreIdx, SimThread *T);
  /// True when every quantum boundary of \p T's burst on \p CoreIdx
  /// would be a no-op as things stand.
  bool coalescible(unsigned CoreIdx, SimThread *T) const;
  /// Arms the slice startSlice() just set up on \p CoreIdx as a chain.
  void armChain(unsigned CoreIdx, SimThread *T, SimTime Overhead,
                std::uint64_t Epoch);
  // Chain geometry and ordering (see Moment).
  std::uint64_t phantomCount(const Core &C) const {
    return (C.ChainEnd - C.ChainStart - 1) / Cfg.Quantum;
  }
  SimTime phantomAt(const Core &C, std::uint64_t J) const {
    return C.ChainStart + J * Cfg.Quantum;
  }
  /// Phantom boundaries of \p C that have fired by the current moment.
  std::uint64_t phantomsPassed(const Core &C) const;
  Moment nowMoment() const;
  Moment phantomMoment(const Core &C, std::uint64_t J) const {
    return Moment{phantomAt(C, J), 1, C.RankHi, C.RankLo};
  }
  /// When boundary J's slice event would have been armed: the previous
  /// boundary, or the chain's own arming for the first one.
  Moment armMoment(const Core &C, std::uint64_t J) const {
    return J == 1 ? Moment{C.SliceAt, C.ArmedClass, C.RankLo, 0}
                  : phantomMoment(C, J - 1);
  }
  /// When the chain's final slice event would have been armed.
  Moment endMoment(const Core &C) const {
    return phantomMoment(C, phantomCount(C));
  }
  /// Ends every listed chain (plus every chain sharing a split instant)
  /// at its next unfired boundary, crediting the quanta it covered.
  void splitChains(std::vector<unsigned> Picked);
  void splitAllChains() {
    if (!Chains.empty())
      splitChains(Chains);
  }
  /// Stops treating \p CoreIdx's slice as a chain (its events stay armed).
  void unchain(unsigned CoreIdx);
  /// Schedules \p Fn at \p At as though armed at moment \p M.
  template <typename F> void scheduleAs(const Moment &M, SimTime At, F &&Fn);
  void beforeSchedule(SimTime At) override;
  bool tryReserveGang(SimThread *T, unsigned Gang, SimTime Cycles);
  void endSlice(unsigned CoreIdx, SimThread *T, SimTime SliceLen,
                std::uint64_t Epoch);
  void releaseGangHold(SimThread *T);
  void setBusyCount(unsigned N);
  void emitBusySample();
  /// Records the capacity timeline: an online_cores counter sample at
  /// every topology change (both directions).
  void emitCapacitySample();

  Simulator &Sim;
  MachineConfig Cfg;
  std::vector<Core> Cores;
  std::deque<SimThread *> ReadyQueue;
  /// Cores running a coalesced slice, and how many chains were ever armed.
  std::vector<unsigned> Chains;
  std::uint64_t ChainsArmed = 0;
  /// The moment the machine's own schedule in progress stands for (null:
  /// the present), read by beforeSchedule().
  const Moment *ArmingAs = nullptr;
  std::vector<std::unique_ptr<SimThread>> Threads;
  unsigned BusyCount = 0;    ///< occupied cores: running + gang-reserved
  unsigned Reserved = 0;     ///< gang helper cores currently reserved
  Waitable GangAvail;        ///< signalled when occupied cores decrease
  unsigned AliveCount = 0;
  unsigned OnlineCount = 0;  ///< cores not offlined by a fault
  unsigned StrandedCount = 0;
  unsigned RepairedCount = 0; ///< cores re-onlined by repair events
  SimTime LastOfflineAt = 0;
  SimTime LastOnlineAt = 0;
  std::optional<FaultPlan> Plan;
  std::vector<std::function<void(const FailureDomainEvent &)>>
      DomainWarningListeners;
  /// Wedges already consumed by takeWedge (each fires at most once).
  std::set<std::pair<std::string, std::uint64_t>> FiredWedges;
  bool InDispatch = false;
  bool DispatchPending = false;
  // Busy-core-time integral bookkeeping.
  mutable SimTime BusyIntegral = 0;
  mutable SimTime BusyIntegralLast = 0;
  // Telemetry (null when tracing is off; every emission is one pointer
  // test on the hot path then).
  telemetry::TraceRecorder *Tel = nullptr;
  std::uint32_t TelPid = 0;
  telemetry::Gauge *CoreRateMetric = nullptr;
  /// Open core-occupancy span per core: consecutive slices of one thread
  /// coalesce into a single span (a trace event per quantum would flood).
  std::vector<SimThread *> TelCoreSpan;
  /// Last busy_cores value emitted; sampled at settled dispatch points
  /// and rate-limited to one sample per gate interval of virtual time.
  unsigned TelBusyEmitted = ~0u;
  SimTime TelBusyLastTs = 0;
  bool TelBusyFlushArmed = false;
  Counts Cnt;
  telemetry::CounterExport Counters; ///< declared last: destroyed first
};

} // namespace parcae::sim

#endif // PARCAE_SIM_MACHINE_H
