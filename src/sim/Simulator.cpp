//===- Simulator.cpp - Discrete-event simulation core ----------------------===//

#include "sim/Simulator.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

using namespace parcae::sim;

void Simulator::reserve(std::size_t Events) {
  Heap.reserve(Events);
  Ring.reserve(Events);
  std::size_t Chunks = (Events + ChunkMask) >> ChunkShift;
  Pool.reserve(Chunks);
  while (Pool.size() < Chunks)
    Pool.push_back(std::make_unique<EventFn[]>(ChunkMask + 1));
}

bool Simulator::popDueNow(std::uint32_t &OutSlot) {
  // Merge the ring front with an equal-time heap top by seq.
  bool HeapDue = !Heap.empty() && Heap.front().At == Now;
  bool RingDue = RingHead < Ring.size();
  if (HeapDue && (!RingDue || seqAfter(Ring[RingHead].Seq, Heap.front().Seq))) {
    std::pop_heap(Heap.begin(), Heap.end(), Later{});
    OutSlot = Heap.back().Slot;
    Heap.pop_back();
    ++HeapHits;
    ArmedEarlier = true;
    return true;
  }
  ArmedEarlier = false;
  if (!HeapDue && CarryHead < Carry.size()) {
    OutSlot = Carry[CarryHead];
    if (++CarryHead == Carry.size()) {
      Carry.clear();
      CarryHead = 0;
    }
    ++RingHits;
    return true;
  }
  if (!RingDue)
    return false;
  OutSlot = Ring[RingHead].Slot;
  if (++RingHead == Ring.size()) {
    Ring.clear();
    RingHead = 0;
  }
  ++RingHits;
  return true;
}

bool Simulator::advanceClock() {
  assert(RingHead == Ring.size() && CarryHead == Carry.size() &&
         "clock advanced with due-now work pending");
  if (Heap.empty())
    return false;
  assert(Heap.front().At > Now && "event queue went backwards");
  Now = Heap.front().At;
  return true;
}

bool Simulator::nextPendingTime(SimTime &T) const {
  if (RingHead < Ring.size() || CarryHead < Carry.size()) {
    T = Now;
    return true;
  }
  if (Heap.empty())
    return false;
  T = Heap.front().At;
  return true;
}

bool Simulator::runOne() {
  std::uint32_t Slot;
  if (popDueNow(Slot)) {
    // Guard against model bugs that spin forever at one virtual instant.
    // Always on: in release builds an assert would vanish and the run
    // would hang without a diagnostic.
    if (++SameTimeCount >= SameTimeLimit)
      diagnoseLivelock();
  } else {
    if (!advanceClock())
      return false;
    SameTimeCount = 0;
    bool Due = popDueNow(Slot);
    (void)Due;
    assert(Due && "advanceClock produced no due event");
  }
  ++EventsProcessed;
  // Invoked in place: chunk addresses are stable, so the handler may
  // schedule (growing the slab or recycling other slots) while running.
  // This slot is only recycled after the callback is destroyed.
  EventFn &Fn = slot(Slot);
  Fn();
  ArmedEarlier = false;
  Fn.reset();
  freeSlot(Slot);
  return true;
}

void Simulator::notifyWatches(SimTime At) {
  for (std::size_t I = Watches.size(); I-- > 0;) // a watch may leave
    Watches[I]->beforeSchedule(At);
}

void Simulator::diagnoseLivelock() const {
  std::fprintf(stderr,
               "parcae sim: event livelock: %" PRIu64
               " consecutive events at t=%" PRIu64
               " ns without the clock advancing (%" PRIu64
               " events processed in total); a thread body or timer is "
               "re-scheduling itself with zero delay\n",
               SameTimeCount, static_cast<std::uint64_t>(Now),
               EventsProcessed);
  std::fprintf(stderr, "  queue: ring=%zu heap=%zu pending\n",
               Ring.size() - RingHead + Carry.size() - CarryHead,
               Heap.size());
  // The next few (time, seq) pairs across both tiers, globally ordered:
  // a same-time spin shows up as a run of equal timestamps with climbing
  // seqs, naming exactly which schedules keep the clock pinned.
  struct P {
    SimTime At;
    std::uint32_t Seq;
  };
  std::vector<P> Pend;
  for (std::size_t I = RingHead; I < Ring.size() && Pend.size() < 8; ++I)
    Pend.push_back(P{Now, Ring[I].Seq});
  std::vector<Scheduled> H = Heap;
  for (int I = 0; I < 8 && !H.empty(); ++I) {
    std::pop_heap(H.begin(), H.end(), Later{});
    Pend.push_back(P{H.back().At, H.back().Seq});
    H.pop_back();
  }
  std::sort(Pend.begin(), Pend.end(), [](const P &A, const P &B) {
    if (A.At != B.At)
      return A.At < B.At;
    return static_cast<std::int32_t>(A.Seq - B.Seq) < 0;
  });
  std::fprintf(stderr, "  next pending:");
  std::size_t Shown = Pend.size() < 6 ? Pend.size() : 6;
  for (std::size_t I = 0; I < Shown; ++I)
    std::fprintf(stderr, " (t=%" PRIu64 ", seq=%" PRIu32 ")",
                 static_cast<std::uint64_t>(Pend[I].At), Pend[I].Seq);
  std::fprintf(stderr, "%s\n", Pend.empty() ? " <none>" : "");
  std::abort();
}

void Simulator::run() {
  Stopped = false;
  while (!Stopped && runOne())
    ;
}

void Simulator::runUntil(SimTime Deadline) {
  Stopped = false;
  SimTime T = 0;
  while (!Stopped && nextPendingTime(T) && T <= Deadline)
    runOne();
  // Pin the clock only when nothing is due by the deadline: after stop()
  // events may still be queued before it, and jumping past them would
  // make a later run() move time backwards.
  if (!Stopped && Now < Deadline)
    Now = Deadline;
}
