//===- RegionRunner.h - Lifetime management of a flexible region -*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Owns the execution of one FlexibleRegion across arbitrarily many
/// reconfigurations. The runner picks, per reconfiguration request, the
/// cheapest legal path:
///
///  * DoP-only change, optimized barrier on  -> in-place iteration-count
///    handoff (Section 7.2), no drain;
///  * otherwise -> the full pause / drain / barrier / resume protocol of
///    Section 4.6, with the optimization routine optionally overlapped
///    with the drain (Section 7.3).
///
/// Iteration indices are continuous across every switch, so downstream
/// consumers never observe reordering, loss, or duplication.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_MORTA_REGIONRUNNER_H
#define PARCAE_MORTA_REGIONRUNNER_H

#include "core/Chunking.h"
#include "core/Costs.h"
#include "core/Region.h"
#include "core/WorkSource.h"
#include "morta/RegionExec.h"
#include "sim/Machine.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

namespace parcae::rt {

/// The runner's transferable slice of a region checkpoint, captured at a
/// quiesced point: the exactly-once cursor, the cumulative retire count,
/// the configuration in force, and the learned chunk size.
struct RunnerCheckpoint {
  std::uint64_t Cursor = 0;  ///< next sequence number to execute
  std::uint64_t Retired = 0; ///< totalRetired() (== Cursor when quiesced)
  RegionConfig Config;
  std::uint64_t ChunkK = 1;
};

/// Runs a FlexibleRegion, switching configurations on request.
class RegionRunner {
public:
  RegionRunner(sim::Machine &M, const RuntimeCosts &Costs,
               const FlexibleRegion &Region, WorkSource &Source);
  ~RegionRunner();
  RegionRunner(const RegionRunner &) = delete;
  RegionRunner &operator=(const RegionRunner &) = delete;

  /// Launches execution under \p Initial. A non-zero \p StartSeq resumes
  /// a checkpointed region on a fresh runner (typically on a different
  /// machine): iteration numbering and totalRetired() continue from the
  /// checkpoint cursor, so downstream output stays exactly-once.
  void start(RegionConfig Initial, std::uint64_t StartSeq = 0);

  // --- Checkpoint / restore (src/checkpoint) ---------------------------

  /// Requests a cooperative quiesce-and-suspend. The region drains under
  /// the pause/give-back discipline (in-flight retired work is kept);
  /// once quiescent the execution is torn down, the runner enters the
  /// *suspended* state, and \p Done fires one event later with the
  /// captured checkpoint. If the region completes before reaching the
  /// pause bound, \p Done fires with nullptr instead (nothing left to
  /// migrate). Piggybacks on an in-flight transition when one is already
  /// draining. Returns false when the runner has completed, not started,
  /// is already suspended, or a checkpoint is already pending.
  bool requestCheckpoint(std::function<void(const RunnerCheckpoint *)> Done);

  /// Resumes a suspended runner under \p C from \p StartSeq (normally the
  /// checkpoint cursor) — possibly after the caller offlined cores or
  /// otherwise reshaped the machine while the region held no thread.
  void resume(RegionConfig C, std::uint64_t StartSeq);

  /// True between a completed checkpoint and resume(): the region holds
  /// no execution and consumes no cores.
  bool suspended() const { return Suspended; }

  /// Checkpoints captured over the runner's lifetime.
  unsigned checkpoints() const { return Checkpoints; }

  /// Chunk-policy re-seeds from a previously learned K (fresh executions
  /// that skipped re-learning from K = MinK).
  unsigned chunkReseeds() const { return ChunkReseeds; }

  /// Switches to \p Target. Asynchronous: in-flight iterations finish
  /// under the old configuration. Ignored if the region completed or a
  /// switch is already in progress (the request is coalesced into the
  /// pending one). Returns true if the request was accepted.
  bool reconfigure(RegionConfig Target);

  /// Abortive recovery (the Morta watchdog's fast path): kills in-flight
  /// iterations instead of draining them, rewinds the work source to the
  /// commit frontier, and resumes under \p Target from there. Requires a
  /// sequential tail (RegionExec::canAbort) and a rewindable source;
  /// otherwise falls back to the ordinary pause-drain reconfigure. Exactly
  /// once: everything below the frontier was emitted in order, everything
  /// above it re-executes. Returns true if a switch was accepted.
  bool recover(RegionConfig Target);

  /// Surgical restart (the watchdog's blame path): repairs one task of
  /// the current execution in place — no pause, no drain, no frontier
  /// rewind, no configuration change. Deliberately allowed while a
  /// transition is draining (the wedged task may be exactly what is
  /// blocking the drain); only the resume window, where no execution
  /// exists, rejects it. Returns what the execution actually did.
  RegionExec::RestartResult restartTask(unsigned TaskIdx);

  /// Workers terminated and respawned by surgical restarts.
  unsigned taskRestarts() const { return TaskRestarts; }

  /// True while a pause-drain-resume transition is in flight.
  bool transitioning() const { return Transitioning; }

  bool completed() const { return Completed; }
  const RegionConfig &config() const { return Config; }
  const FlexibleRegion &region() const { return Region; }
  sim::Machine &machine() { return M; }
  WorkSource &source() { return Source; }

  /// The current execution, if any (may be null mid-transition).
  RegionExec *exec() { return Exec.get(); }
  const RegionExec *exec() const { return Exec.get(); }

  /// The region's chunk-size policy. Owned here so the learned K
  /// survives reconfigurations; each execution tunes it online and
  /// degrades it to 1 around pause/drain. Benchmarks pin() it for
  /// fixed-K A/B runs.
  ChunkPolicy &chunkPolicy() { return Chunking; }
  const ChunkPolicy &chunkPolicy() const { return Chunking; }

  /// Iterations retired across all executions of this region.
  std::uint64_t totalRetired() const {
    return RetiredBase + (Exec ? Exec->iterationsRetired() : 0);
  }

  /// Number of reconfigurations applied (in-place + full).
  unsigned reconfigurations() const { return Reconfigurations; }
  /// Number that took the full pause-drain-resume path.
  unsigned fullPauses() const { return FullPauses; }
  /// Number that took the abortive recovery path.
  unsigned recoveries() const { return Recoveries; }

  /// Transient fault attempts across all executions of this region.
  std::uint64_t totalFaults() const {
    return FaultsBase + (Exec ? Exec->faultsInjected() : 0);
  }
  /// Retry-budget exhaustions across all executions.
  std::uint64_t totalEscalations() const {
    return EscalationsBase + (Exec ? Exec->escalations() : 0);
  }

  std::function<void()> OnComplete;
  /// Commit-frontier watermark hook: fires after each retirement with
  /// totalRetired() — continuous across reconfigurations, recoveries,
  /// and checkpoint/resume, so the value only moves forward except
  /// across an abortive recovery, where re-executed iterations repeat
  /// watermarks (callers must treat crossings idempotently). Set before
  /// start(); left null (the default) it costs the hot path nothing.
  /// The serve broker uses it to attribute per-request completions
  /// inside a batched region.
  std::function<void(std::uint64_t TotalRetired)> OnProgress;
  /// Fires when a requested reconfiguration has fully taken effect.
  std::function<void()> OnReconfigured;
  /// Forwarded from the current execution: a transient fault exhausted
  /// its retry budget. The watchdog reacts by degrading the region.
  std::function<void(unsigned TaskIdx)> OnFaultEscalation;

private:
  void beginExec(RegionConfig C, std::uint64_t StartSeq);
  void onQuiescent();
  /// Arms the delayed resume. Pending is read when the delay fires, so a
  /// reconfigure/recover landing inside the window still takes effect.
  void scheduleResume(std::uint64_t StartSeq, sim::SimTime Delay);
  /// Records the outgoing execution's learned chunk K for its scheme.
  void noteLearnedK();
  /// The quiesced endpoint of requestCheckpoint(): captures the
  /// checkpoint, suspends the runner, and defers Done one event.
  void completeCheckpoint(std::uint64_t StartSeq);
  /// Defers the pending checkpoint callback to a fresh simulator event
  /// (the quiesce fires from inside worker code; the callback may tear
  /// down or restart executions, which must not happen re-entrantly).
  void dispatchCheckpointDone(bool Captured);

  sim::Machine &M;
  const RuntimeCosts &Costs;
  const FlexibleRegion &Region;
  WorkSource &Source;

  RegionConfig Config;
  ChunkPolicy Chunking;
  std::unique_ptr<RegionExec> Exec;
  std::unique_ptr<RegionExec> Retiring; ///< kept alive until replaced
  RegionConfig Pending;
  bool Transitioning = false;
  bool Completed = false;
  bool Started = false;
  bool Suspended = false;
  std::uint64_t RetiredBase = 0;
  unsigned Reconfigurations = 0;
  unsigned FullPauses = 0;
  unsigned Recoveries = 0;
  unsigned TaskRestarts = 0;
  unsigned Checkpoints = 0;
  unsigned ChunkReseeds = 0;
  /// Pending checkpoint completion; non-null between requestCheckpoint()
  /// and the deferred Done dispatch.
  std::function<void(const RunnerCheckpoint *)> CheckpointDone;
  RunnerCheckpoint LastCheckpoint;
  sim::SimTime CheckpointAt = 0; ///< when the quiesce was requested
  std::uint64_t CheckpointK = 1; ///< learned K captured pre-degrade
  /// Last learned chunk K per scheme; beginExec re-seeds the policy from
  /// this instead of re-learning from MinK (chunk-aware recovery).
  std::map<Scheme, std::uint64_t> LearnedK;
  std::uint64_t FaultsBase = 0;
  std::uint64_t EscalationsBase = 0;
  sim::SimTime PauseRequestedAt = 0;

  // Telemetry (null when tracing is off).
  telemetry::TraceRecorder *Tel = nullptr;
  std::uint32_t TelPid = 0;
  /// Name of the open runner-lane span ("transition" or "recover"),
  /// closed when the resume fires; null when none is open.
  const char *TelOpenSpan = nullptr;
  telemetry::CounterExport Counters; ///< declared last: destroyed first
};

} // namespace parcae::rt

#endif // PARCAE_MORTA_REGIONRUNNER_H
