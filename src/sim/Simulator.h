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
/// The queue is three-tiered, earliest tier first:
///
///  * a due-now FIFO **ring** for zero-delay events (wakeups, overlapped
///    resumes) — FIFO equals (time, seq) order because every ring entry
///    is due at Now and the clock cannot advance while the ring is
///    non-empty;
///  * a calendar **wheel** (TimingWheel.h) for the near-future horizon,
///    where most machine slices land: O(1) amortized insert and pop
///    instead of an O(log n) heap sift;
///  * a binary **heap** of trivially copyable {time, seq, slot} entries
///    for the far horizon. As the clock advances into their epoch, heap
///    entries migrate into the wheel.
///
/// All three tiers carry the same wrapping 32-bit schedule seq, and every
/// pop merges the tier fronts by (time, seq), so the tier an event landed
/// in is invisible to replay: runs are bit-for-bit identical whether the
/// wheel is enabled (QueueMode::Wheel, the default) or not
/// (QueueMode::HeapOnly, kept for A/B measurement).
///
/// The core is allocation-free in steady state: callbacks are held in
/// small-buffer EventFn cells inside a chunked slab whose addresses are
/// stable (so a handler runs in place while scheduling more events), the
/// heap is a reused vector, and wheel buckets are intrusive lists through
/// a slot-indexed side array. Whole-system runs execute millions of
/// events, so this is the hottest host-side path.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_SIM_SIMULATOR_H
#define PARCAE_SIM_SIMULATOR_H

#include "sim/EventFn.h"
#include "sim/Time.h"
#include "sim/TimingWheel.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace parcae::sim {

/// Discrete-event simulator: a clock plus a three-tier ordered queue.
class Simulator {
public:
  /// Which time-ordered tiers back the queue. Event *order* is identical
  /// in both modes (the acceptance gate for the wheel); the mode only
  /// selects the data structure, so benches can A/B them.
  enum class QueueMode { HeapOnly, Wheel };

  /// Cheap per-tier counters plus current occupancy, for perf analysis
  /// and the telemetry metrics registry (sim.queue.* gauges).
  struct QueueStats {
    std::uint64_t RingHits = 0;   ///< events dispatched from the ring
    std::uint64_t WheelHits = 0;  ///< events dispatched from the wheel
    std::uint64_t HeapHits = 0;   ///< events dispatched from the heap
    std::uint64_t SpillMigrations = 0; ///< heap -> wheel epoch migrations
    std::uint64_t MaxBucketDepth = 0;  ///< deepest wheel bucket drained
    std::size_t RingPending = 0;
    std::size_t WheelPending = 0;
    std::size_t HeapPending = 0;
    std::size_t WheelSpan = 0; ///< horizon width in cycles (0: heap-only)
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
    std::uint32_t S = grabSlot();
    slot(S).assign(std::forward<F>(Fn));
    std::uint32_t Seq = NextSeq++;
    if (At == Now) {
      // Due-now fast path: wakeups, wheel kicks, and overlapped resumes
      // fire at the current instant; they go through a FIFO ring instead
      // of the heap. FIFO equals (time, seq) order here because every
      // ring entry has At == Now, and the clock cannot advance while the
      // ring is non-empty (runOne drains due-now work first).
      Ring.push_back(DueNow{Seq, S});
      return;
    }
    if (WheelOn && Wheel.accepts(At, Now)) {
      Wheel.insert(At, Seq, S);
      return;
    }
    Heap.push_back(Scheduled{At, Seq, S});
    std::push_heap(Heap.begin(), Heap.end(), Later{});
  }

  /// Runs the next event, if any. Returns false when the queue is empty.
  bool runOne();

  /// Runs until the event queue drains or stop() is called.
  void run();

  /// Runs events with timestamps <= \p Deadline; leaves later events queued
  /// and advances the clock to \p Deadline.
  void runUntil(SimTime Deadline);

  /// Makes run() return after the current event.
  void stop() { Stopped = true; }

  /// Total number of events executed (sanity metric for tests).
  std::uint64_t eventsProcessed() const { return EventsProcessed; }

  bool empty() const {
    return Heap.empty() && RingHead == Ring.size() &&
           DrainHead == Drain.size() && Wheel.empty();
  }

  /// Pre-sizes every tier — heap, due-now ring, wheel drain buffer and
  /// node array — and the callback slab (steady state then never
  /// allocates as long as at most \p Events are outstanding at once).
  void reserve(std::size_t Events);

  /// Selects the queue backing (wheel by default). Only legal while the
  /// queue is empty; the event order is mode-invariant either way.
  void setQueueMode(QueueMode M) {
    assert(empty() && "cannot switch queue mode with events pending");
    Mode = M;
    WheelOn = M == QueueMode::Wheel;
  }

  /// Re-sizes the wheel horizon (power of two in [16, 2^20] cycles).
  /// Only legal while the queue is empty.
  void setWheelSpan(std::size_t Buckets) {
    assert(empty() && "cannot re-size the wheel with events pending");
    Wheel.configure(Buckets);
  }

  /// Tier counters and occupancy (see QueueStats).
  QueueStats queueStats() const {
    QueueStats S;
    S.RingHits = RingHits;
    S.WheelHits = WheelHits;
    S.HeapHits = HeapHits;
    S.SpillMigrations = SpillMigrations;
    S.MaxBucketDepth = Wheel.maxDepth();
    S.RingPending = Ring.size() - RingHead;
    S.WheelPending = Wheel.size() + (Drain.size() - DrainHead);
    S.HeapPending = Heap.size();
    S.WheelSpan = WheelOn ? Wheel.span() : 0;
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

  /// Pops the earliest event due exactly at Now across the three tier
  /// fronts (drained wheel bucket / equal-time heap top / ring), merged
  /// by seq. Returns false when nothing is due at the current instant.
  bool popDueNow(std::uint32_t &OutSlot);
  /// Advances the clock to the earliest pending timestamp, drains that
  /// wheel bucket into the merge buffer, and migrates heap entries whose
  /// epoch the horizon now covers. False when the queue is empty.
  bool advanceClock();
  /// Earliest pending timestamp across all tiers (false: queue empty).
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

  [[noreturn]] void diagnoseLivelock() const;

  SimTime Now = 0;
  std::uint64_t SameTimeCount = 0;
  std::uint64_t SameTimeLimit = 20'000'000;
  std::uint32_t NextSeq = 0;
  std::uint64_t EventsProcessed = 0;
  bool Stopped = false;
  QueueMode Mode = QueueMode::Wheel;
  bool WheelOn = true;
  std::vector<Scheduled> Heap;
  /// FIFO of events due at the current instant; drained before the clock
  /// may advance (interleaved with equal-time wheel/heap events by Seq).
  std::vector<DueNow> Ring;
  std::size_t RingHead = 0;
  /// Near-future calendar tier; see TimingWheel.h.
  TimingWheel Wheel;
  /// The bucket due at Now, already seq-sorted, being merged out. Reused
  /// storage, same head-cursor discipline as the ring.
  std::vector<TimingWheel::Entry> Drain;
  std::size_t DrainHead = 0;
  // Tier dispatch counters (see queueStats()).
  std::uint64_t RingHits = 0;
  std::uint64_t WheelHits = 0;
  std::uint64_t HeapHits = 0;
  std::uint64_t SpillMigrations = 0;
  std::vector<std::unique_ptr<EventFn[]>> Pool;
  std::size_t PoolSize = 0;
  std::uint32_t FreeHead = NoSlot;
};

} // namespace parcae::sim

#endif // PARCAE_SIM_SIMULATOR_H
