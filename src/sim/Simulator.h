//===- Simulator.h - Discrete-event simulation core -------------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The discrete-event core: a virtual clock and an ordered event queue.
/// Everything above it (cores, threads, channels, Morta's controller
/// timers) is driven by events scheduled here. Events at the same virtual
/// time fire in schedule order, so whole-system runs are deterministic.
///
/// The queue has two tiers:
///
///  * a due-now FIFO **ring** for zero-delay events (wakeups, overlapped
///    resumes) — FIFO equals (time, seq) order because every ring entry
///    is due at Now and the clock cannot advance while the ring is
///    non-empty;
///  * a binary **heap** of trivially copyable {time, seq, slot} entries
///    for every future event.
///
/// Both tiers carry the same wrapping 32-bit schedule seq, and every pop
/// merges the ring front with an equal-time heap top by seq, so the tier
/// an event landed in is invisible to replay: same-instant events fire
/// in schedule order whichever tier held them.
///
/// Two hooks serve sim/Machine's quantum coalescing, which must place a
/// re-armed slice event exactly where per-quantum slicing would have:
/// scheduleNowAsArmedEarlier() queues an event due now between the
/// earlier-armed events and the zero-delay ones (a short carry list
/// drained between the two tiers), and a ScheduleWatch sees every future
/// schedule before it takes its seq. Neither touches the heap entries.
///
/// The core is allocation-free in steady state: callbacks are held in
/// small-buffer EventFn cells inside a chunked slab whose addresses are
/// stable (so a handler runs in place while scheduling more events), and
/// the ring and heap are reused vectors. Whole-system runs execute
/// millions of events, so this is the hottest host-side path.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_SIM_SIMULATOR_H
#define PARCAE_SIM_SIMULATOR_H

#include "sim/EventFn.h"
#include "sim/Time.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace parcae::sim {

/// Observer told about every future schedule before the new event takes
/// its place in the order (see Simulator::addWatch). sim/Machine uses it
/// to keep coalesced quantum slices exact (DESIGN.md, "Quantum
/// coalescing").
class ScheduleWatch {
public:
  /// Called from scheduleAt() for \p At > now(), before the new event is
  /// assigned its seq; the watch may schedule events of its own, which
  /// then order before the new one.
  virtual void beforeSchedule(SimTime At) = 0;

protected:
  ~ScheduleWatch() = default;
};

/// Discrete-event simulator: a clock plus a two-tier ordered queue.
class Simulator {
public:
  /// Cheap per-tier dispatch counters, for perf analysis and the
  /// telemetry metrics registry (sim.queue.* gauges).
  struct QueueStats {
    std::uint64_t RingHits = 0; ///< due-now events (ring and carry list)
    std::uint64_t HeapHits = 0; ///< events dispatched from the heap
    /// Always 0 (there is no wheel tier); still read by wsbench/Bench.h.
    static constexpr std::uint64_t WheelHits = 0;
  };

  /// Current virtual time.
  SimTime now() const { return Now; }

  /// Schedules \p Fn to run \p Delay after the current time. The callable
  /// is constructed directly in its slab slot — no intermediate EventFn
  /// relocation on the hot path.
  template <typename F> void schedule(SimTime Delay, F &&Fn) {
    scheduleAt(Now + Delay, std::forward<F>(Fn));
  }

  /// Schedules \p Fn at absolute time \p At (>= now()).
  template <typename F> void scheduleAt(SimTime At, F &&Fn) {
    static_assert(std::is_invocable_r_v<void, std::decay_t<F> &>,
                  "event callback must be callable as void()");
    assert(At >= Now && "cannot schedule an event in the past");
    if (!Watches.empty() && At > Now)
      notifyWatches(At);
    std::uint32_t S = grabSlot();
    slot(S).assign(std::forward<F>(Fn));
    std::uint32_t Seq = NextSeq++;
    if (At == Now) {
      // Due-now fast path: wakeups and overlapped resumes fire at the
      // current instant; they go through a FIFO ring instead of the
      // heap. FIFO equals (time, seq) order here because every ring
      // entry has At == Now, and the clock cannot advance while the ring
      // is non-empty (runOne drains due-now work first).
      Ring.push_back(DueNow{Seq, S});
      return;
    }
    Heap.push_back(Scheduled{At, Seq, S});
    std::push_heap(Heap.begin(), Heap.end(), Later{});
  }

  /// Schedules \p Fn at the current instant as though it had been armed
  /// at an earlier one: it runs after every event due now that was armed
  /// before now() and before every zero-delay event (pending or future).
  /// Several such events run in schedule order.
  template <typename F> void scheduleNowAsArmedEarlier(F &&Fn) {
    std::uint32_t S = grabSlot();
    slot(S).assign(std::forward<F>(Fn));
    Carry.push_back(S);
  }

  /// True while the running event was armed at an earlier instant than
  /// now() (false for zero-delay events and outside any event).
  bool currentArmedEarlier() const { return ArmedEarlier; }

  /// Registers / unregisters a schedule watch (see ScheduleWatch).
  void addWatch(ScheduleWatch *W) { Watches.push_back(W); }
  void removeWatch(ScheduleWatch *W) {
    Watches.erase(std::find(Watches.begin(), Watches.end(), W));
  }

  /// Runs the next event, if any. Returns false when the queue is empty.
  bool runOne();

  /// Runs until the event queue drains or stop() is called.
  void run();

  /// Runs events with timestamps <= \p Deadline; leaves later events queued
  /// and advances the clock to \p Deadline — unless stop() ended the run
  /// early, in which case the clock stays at the stopping event's time so
  /// the events still queued before the deadline fire on time later.
  void runUntil(SimTime Deadline);

  /// Makes run() or runUntil() return after the current event.
  void stop() { Stopped = true; }

  /// Total number of events executed (sanity metric for tests).
  std::uint64_t eventsProcessed() const { return EventsProcessed; }

  bool empty() const {
    return Heap.empty() && RingHead == Ring.size() && CarryHead == Carry.size();
  }

  /// Pre-sizes the heap, the due-now ring and the callback slab (steady
  /// state then never allocates as long as at most \p Events are
  /// outstanding at once).
  void reserve(std::size_t Events);

  /// Tier dispatch counters (see QueueStats).
  QueueStats queueStats() const {
    QueueStats S;
    S.RingHits = RingHits;
    S.HeapHits = HeapHits;
    return S;
  }

  /// Livelock guard: aborting after this many consecutive events at one
  /// virtual instant. Unlike the seed's assert, this check is always on —
  /// a model bug that spins at a single timestamp would otherwise hang
  /// release builds silently. Tests lower it to exercise the diagnostic.
  void setSameTimeLimit(std::uint64_t Limit) { SameTimeLimit = Limit; }
  std::uint64_t sameTimeLimit() const { return SameTimeLimit; }

  /// Test-only: pre-positions the wrapping schedule counter so the seq
  /// wrap tie-break is exercisable without 2^32 schedules. Requires an
  /// empty queue (a wrap with events pending would reorder them).
  void primeSeqCounterForTest(std::uint32_t Seq) {
    assert(empty() && "cannot re-seed the seq counter with events pending");
    NextSeq = Seq;
  }

private:
  /// Heap entry: trivially copyable, 16 bytes, so sift operations are
  /// plain moves with no callback relocation. Seq is a wrapping 32-bit
  /// schedule counter: it only breaks ties between events at the same
  /// virtual instant, and two same-instant events coexisting in the
  /// queue are always far fewer than 2^31 schedules apart, so the
  /// wrap-safe signed-difference compare below orders them correctly.
  struct Scheduled {
    SimTime At;
    std::uint32_t Seq;
    std::uint32_t Slot;
  };
  /// Ring entry for events due at the current instant (At implied = Now).
  struct DueNow {
    std::uint32_t Seq;
    std::uint32_t Slot;
  };
  /// True when A was scheduled after B (wrap-safe; see Scheduled::Seq).
  static bool seqAfter(std::uint32_t A, std::uint32_t B) {
    return static_cast<std::int32_t>(A - B) > 0;
  }
  /// Earliest time first; FIFO within a timestamp. A functor (not a
  /// function pointer) so the heap sift loops inline the comparison.
  struct Later {
    bool operator()(const Scheduled &A, const Scheduled &B) const {
      if (A.At != B.At)
        return A.At > B.At;
      return seqAfter(A.Seq, B.Seq);
    }
  };

  /// Pops the earliest event due exactly at Now: the ring front or an
  /// equal-time heap top, whichever was scheduled first. Returns false
  /// when nothing is due at the current instant.
  bool popDueNow(std::uint32_t &OutSlot);
  /// Advances the clock to the heap's earliest timestamp. Requires an
  /// empty ring; false when the queue is empty.
  bool advanceClock();
  /// Earliest pending timestamp across both tiers (false: queue empty).
  bool nextPendingTime(SimTime &T) const;

  // Callback slab: fixed-size chunks, so slot addresses stay stable while
  // the slab grows — a running handler may schedule (and thus grow the
  // slab) without relocating itself. Freed slots recycle via FreeSlots.
  static constexpr std::size_t ChunkShift = 8; // 256 events per chunk
  static constexpr std::size_t ChunkMask = (std::size_t{1} << ChunkShift) - 1;
  EventFn &slot(std::uint32_t S) {
    return Pool[S >> ChunkShift][S & ChunkMask];
  }
  static constexpr std::uint32_t NoSlot = ~std::uint32_t{0};
  std::uint32_t grabSlot() {
    if (FreeHead != NoSlot) {
      std::uint32_t S = FreeHead;
      FreeHead = slot(S).scratch();
      return S;
    }
    if ((PoolSize >> ChunkShift) == Pool.size())
      Pool.push_back(std::make_unique<EventFn[]>(ChunkMask + 1));
    return static_cast<std::uint32_t>(PoolSize++);
  }
  /// Returns an (empty) slot to the free list, threaded through the dead
  /// callback's storage.
  void freeSlot(std::uint32_t S) {
    slot(S).scratch() = FreeHead;
    FreeHead = S;
  }

  void notifyWatches(SimTime At);
  [[noreturn]] void diagnoseLivelock() const;

  SimTime Now = 0;
  std::uint64_t SameTimeCount = 0;
  std::uint64_t SameTimeLimit = 20'000'000;
  std::uint32_t NextSeq = 0;
  std::uint64_t EventsProcessed = 0;
  bool Stopped = false;
  std::vector<Scheduled> Heap;
  /// FIFO of events due at the current instant; drained before the clock
  /// may advance (interleaved with equal-time heap events by Seq).
  std::vector<DueNow> Ring;
  std::size_t RingHead = 0;
  /// Slots of scheduleNowAsArmedEarlier() events: due now, drained after
  /// the heap's due-now events and before the ring.
  std::vector<std::uint32_t> Carry;
  std::size_t CarryHead = 0;
  bool ArmedEarlier = false;
  std::vector<ScheduleWatch *> Watches;
  // Tier dispatch counters (see queueStats()).
  std::uint64_t RingHits = 0;
  std::uint64_t HeapHits = 0;
  std::vector<std::unique_ptr<EventFn[]>> Pool;
  std::size_t PoolSize = 0;
  std::uint32_t FreeHead = NoSlot;
};

} // namespace parcae::sim

#endif // PARCAE_SIM_SIMULATOR_H
