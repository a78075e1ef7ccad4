//===- Watchdog.h - Morta's liveness watchdog -------------------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The failure-detection half of Morta's recovery story. The controller's
/// own measurement loop only advances when iterations retire, so a dead
/// core that strands a worker stalls the pipeline *and* the controller —
/// nobody is left to notice. The watchdog is the independent observer: a
/// periodic tick that
///
///  * polls machine capacity and, when cores have gone offline, rescues
///    stranded threads and shrinks the controller's thread budget
///    (graceful degradation to a lower DoP, or SEQ);
///  * detects capacity *growth* (a repair returned cores) and grows the
///    thread budget back, so the controller re-selects — from its
///    per-budget cache when possible — the richer configuration;
///  * watches region progress against per-task heartbeats and, when
///    nothing retires for a stall threshold, runs a blame scan over the
///    per-worker heartbeats: a single confidently wedged task is repaired
///    surgically (rescue + restart of just that task, the rest of the
///    region keeps running), and only an ambiguous or failed blame falls
///    back to the whole-region abortive recovery;
///  * degrades the region (typically to SEQ) when a transient fault
///    exhausts its retry budget, side-stepping the poisoned
///    configuration;
///  * on a failure-domain warning, migrates the region off the doomed
///    cores before they die (zero aborted work);
///  * records detection latency and MTTR (fault time -> first iteration
///    retired after recovery) as metrics histograms.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_MORTA_WATCHDOG_H
#define PARCAE_MORTA_WATCHDOG_H

#include "morta/Controller.h"
#include "sim/Time.h"
#include "telemetry/Telemetry.h"

#include <cstdint>
#include <deque>
#include <functional>

namespace parcae::rt {

/// Tunables of the liveness watchdog.
struct WatchdogParams {
  /// No retired iteration for this long (with work in flight and no
  /// transition in progress) counts as a stall. Kept above
  /// RegionExec::BlameThreshold, so a genuine stall always has a
  /// convictable culprit by the time it is detected.
  sim::SimTime StallThreshold = 4 * sim::MSec;
  /// Speculative re-issue (straggler avoidance, serving mode): when
  /// commit progress has been quiet for SpecStallThreshold and the oldest
  /// in-flight iteration sits mid-compute on a *penalized* core, clone it
  /// onto a backup worker (RegionExec::speculateLaggard) — the clone
  /// lands on a healthy core and the loser is epoch-cancelled. Needs
  /// MachineConfig::SlowCoreAvoidance on, or no core is ever penalized.
  /// Off by default.
  bool Speculate = false;
  /// Progress silence before speculation is considered. Kept well below
  /// StallThreshold so re-issue beats the abortive path to a core that is
  /// merely slow, not dead.
  sim::SimTime SpecStallThreshold = 1 * sim::MSec;
  /// The laggard worker's own silence before its iteration is re-issued.
  sim::SimTime SpecAgeThreshold = 500 * sim::USec;
};

/// Periodic liveness monitor driving Morta's recovery paths.
class Watchdog {
public:
  Watchdog(RegionController &Ctrl, WatchdogParams P = {});

  /// Arms the periodic tick and hooks fault escalations. Call after the
  /// controller has started.
  void start();

  // --- Counters (bench/test-facing) -----------------------------------

  /// Capacity drops detected (one per tick that saw fewer online cores).
  unsigned detections() const { return Detections; }
  /// Capacity growths detected (one per tick that saw more online cores).
  unsigned growthsDetected() const { return Growths; }
  /// Progress stalls detected.
  unsigned stallsDetected() const { return Stalls; }
  /// Retry-budget escalations handled.
  unsigned escalationsHandled() const { return EscalationsHandled; }
  /// Recoveries whose completion (first retire after the fault) was seen.
  /// Each fault opens its own recovery window, so a burst of faults
  /// counts one completion (and one MTTR sample) per fault.
  unsigned recoveriesCompleted() const { return RecoveriesCompleted; }
  /// Recovery windows opened but not yet completed.
  unsigned recoveriesPending() const {
    return static_cast<unsigned>(RecoveryWindows.size());
  }
  /// Stranded threads rescued in total.
  unsigned threadsRescued() const { return Rescued; }
  /// Speculative re-issues driven (laggard cloned off a penalized core).
  unsigned speculationsIssued() const { return SpeculationsIssued; }
  /// Stalls where the blame scan convicted a single task.
  unsigned blamesAssigned() const { return BlamesAssigned; }
  /// Blamed tasks actually repaired surgically (restart or scoped rescue).
  unsigned surgicalRestarts() const { return SurgicalRestarts; }
  /// Stalls that fell back to whole-region abortive recovery (ambiguous
  /// blame, no culprit, a repeat stall, or a restart that did nothing).
  unsigned fallbackAborts() const { return FallbackAborts; }
  /// Surgical recovery windows completed (first retire after the repair).
  unsigned surgicalRecoveriesCompleted() const {
    return SurgicalRecoveriesCompleted;
  }
  /// Task most recently convicted by the blame scan.
  unsigned lastBlamedTask() const { return LastBlamedTask; }
  /// MTTR of the most recent completed *surgical* recovery.
  sim::SimTime lastSurgicalMttr() const { return LastSurgicalMttr; }
  /// Proactive drains started on a failure-domain warning.
  unsigned drainsStarted() const { return DrainsStarted; }
  /// Drains that completed (region resumed on the survivors).
  unsigned drainsCompleted() const { return DrainsCompleted; }
  /// Warning-to-resumed latency of the most recent completed drain.
  sim::SimTime lastDrainLatency() const { return LastDrainLatency; }

  /// Fires when a proactive drain completed (bench/test hook).
  std::function<void()> OnDrainDone;

  /// Fires right after a surgical restart was driven (bench/test hook:
  /// observe what the rest of the region retired during the repair).
  std::function<void(unsigned TaskIdx)> OnSurgicalRestart;
  /// Latency of the most recent capacity-drop detection (fault to tick).
  sim::SimTime lastDetectionLatency() const { return LastDetectionLatency; }
  /// Latency of the most recent capacity-growth detection (repair to tick).
  sim::SimTime lastGrowthLatency() const { return LastGrowthLatency; }
  /// Most recent mean-time-to-recovery (fault to first retire after).
  sim::SimTime lastMttr() const { return LastMttr; }

private:
  void tick();
  void onEscalation(unsigned TaskIdx);
  void onDomainWarning(const sim::FailureDomainEvent &D);
  /// Opens a recovery window clocked from \p FaultAt. Windows stack: a
  /// new fault during a running recovery gets its own window, so bursts
  /// are not folded into one MTTR sample.
  void beginRecoveryClock(sim::SimTime FaultAt, bool Surgical = false);

  RegionController &Ctrl;
  RegionRunner &Runner;
  sim::Machine &M;
  WatchdogParams P;

  bool Started = false;
  unsigned KnownOnline = 0;
  std::uint64_t LastRetired = 0;
  sim::SimTime LastProgressAt = 0;

  /// One open MTTR clock per outstanding fault, oldest first. A window
  /// completes at the first retire after its fault (outside a
  /// transition); overlapping faults complete separately.
  struct RecoveryWindow {
    sim::SimTime StartAt = 0;
    std::uint64_t RetiredAtFault = 0;
    bool Surgical = false; ///< opened by a surgical restart, not an abort
  };
  std::deque<RecoveryWindow> RecoveryWindows;

  unsigned Detections = 0;
  unsigned Growths = 0;
  unsigned Stalls = 0;
  unsigned EscalationsHandled = 0;
  unsigned RecoveriesCompleted = 0;
  unsigned Rescued = 0;
  unsigned SpeculationsIssued = 0;
  unsigned BlamesAssigned = 0;
  unsigned SurgicalRestarts = 0;
  unsigned FallbackAborts = 0;
  unsigned SurgicalRecoveriesCompleted = 0;
  unsigned LastBlamedTask = 0;
  /// One-shot guard: a surgical restart that produced no retire before
  /// the next stall did not fix the problem — escalate to abortive
  /// recovery instead of restarting the same task forever.
  bool SurgicalSinceProgress = false;
  sim::SimTime LastDetectionLatency = 0;
  sim::SimTime LastGrowthLatency = 0;
  sim::SimTime LastMttr = 0;
  sim::SimTime LastSurgicalMttr = 0;
  unsigned DrainsStarted = 0;
  unsigned DrainsCompleted = 0;
  bool DrainActive = false;
  sim::SimTime DrainWarnedAt = 0;
  sim::SimTime LastDrainLatency = 0;

  // Telemetry (null when tracing is off).
  telemetry::TraceRecorder *Tel = nullptr;
  std::uint32_t TelPid = 0;
  telemetry::CounterExport Counters; ///< declared last: destroyed first
};

} // namespace parcae::rt

#endif // PARCAE_MORTA_WATCHDOG_H
