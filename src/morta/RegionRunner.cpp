//===- RegionRunner.cpp - Lifetime management of a flexible region ---------===//

#include "morta/RegionRunner.h"

#include <algorithm>

using namespace parcae::rt;

RegionRunner::RegionRunner(sim::Machine &M, const RuntimeCosts &Costs,
                           const FlexibleRegion &Region, WorkSource &Source)
    : M(M), Costs(Costs), Region(Region), Source(Source) {
  Tel = telemetry::recorder();
  if (Tel) {
    TelPid = Tel->processFor(Region.name());
    Tel->nameThread(TelPid, telemetry::TidRunner, "runner");
    std::string Pre = "runner." + Region.name();
    Counters.bind(Tel->metrics());
    // The reconfigs row excludes recoveries; reconfigurations() does not.
    Counters.add(Pre + ".reconfigs",
                 [this] { return Reconfigurations - Recoveries; });
    Counters.add(Pre + ".full_pauses", FullPauses);
    Counters.add(Pre + ".recoveries", Recoveries);
    Counters.add(Pre + ".task_restarts", TaskRestarts);
    Counters.add(Pre + ".checkpoints", Checkpoints);
    Counters.add("chunk.reseed", ChunkReseeds);
  }
}

RegionRunner::~RegionRunner() = default;

void RegionRunner::start(RegionConfig Initial, std::uint64_t StartSeq) {
  assert(!Started && "runner already started");
  Started = true;
  Config = Initial;
  if (StartSeq > 0) {
    // Restoring a checkpoint on a fresh runner: the cursor is also the
    // retire base, so totalRetired() continues from the migrated run.
    RetiredBase = StartSeq;
    if (Tel)
      Tel->instant(TelPid, telemetry::TidRunner, "runner", "restore",
                   {telemetry::TraceArg::num("cursor",
                                             static_cast<double>(StartSeq)),
                    telemetry::TraceArg::str("config", Initial.str())});
  }
  beginExec(std::move(Initial), StartSeq);
}

void RegionRunner::noteLearnedK() {
  std::uint64_t K = std::max(Chunking.current(), Chunking.lastLearned());
  if (!Chunking.pinned() && K > ChunkPolicy::MinK)
    LearnedK[Config.S] = K;
}

void RegionRunner::beginExec(RegionConfig C, std::uint64_t StartSeq) {
  // Chunk-aware resume: re-seed the learned K for the scheme about to
  // run instead of re-learning from MinK after every pause or abort.
  if (!Chunking.pinned()) {
    auto It = LearnedK.find(C.S);
    if (It != LearnedK.end()) {
      Chunking.seed(It->second);
      ++ChunkReseeds;
    } else {
      Chunking.forgetLearned();
    }
  }
  Exec = std::make_unique<RegionExec>(M, Costs, Region.variant(C.S), Source,
                                      C, StartSeq);
  Exec->setChunkPolicy(&Chunking);
  Config = std::move(C);
  Exec->OnComplete = [this] {
    Completed = true;
    // A checkpoint drain can race completion: the pause bound lies past
    // the end of the source, so the region finishes instead of
    // quiescing. Nothing is left to migrate — report the capture failed.
    if (CheckpointDone)
      dispatchCheckpointDone(/*Captured=*/false);
    if (OnComplete)
      OnComplete();
  };
  Exec->OnQuiescent = [this] { onQuiescent(); };
  // Re-wired on every execution so the watermark stream survives
  // reconfigurations and resumes; RetiredBase keeps it continuous.
  if (OnProgress)
    Exec->OnProgress = [this](std::uint64_t Retired) {
      OnProgress(RetiredBase + Retired);
    };
  Exec->OnFaultEscalation = [this](unsigned TaskIdx) {
    if (OnFaultEscalation)
      OnFaultEscalation(TaskIdx);
  };
  Exec->start();
}

bool RegionRunner::reconfigure(RegionConfig Target) {
  // A suspended or checkpointing runner is owned by the checkpoint path:
  // reshaping happens through resume()'s target configuration instead.
  if (Completed || !Started || Suspended || CheckpointDone)
    return false;
  assert(Region.hasVariant(Target.S) && "unknown scheme for this region");
  assert(Target.DoP.size() == Region.variant(Target.S).numTasks() &&
         "one DoP per task of the target variant");

  if (Transitioning) {
    // Coalesce: the pending transition resumes into the newest target.
    Pending = std::move(Target);
    return true;
  }
  if (Target == Config)
    return false;

  ++Reconfigurations;
  if (Target.S == Config.S && Exec && Exec->canReconfigureInPlace()) {
    Exec->reconfigureInPlace(Target.DoP);
    Config = std::move(Target);
    if (OnReconfigured)
      OnReconfigured();
    return true;
  }

  // Full path: pause, drain, then resume under the new configuration.
  ++FullPauses;
  if (Tel) {
    Tel->begin(TelPid, telemetry::TidRunner, "runner", "transition",
               {telemetry::TraceArg::str("from", Config.str()),
                telemetry::TraceArg::str("to", Target.str())});
    TelOpenSpan = "transition";
  }
  Transitioning = true;
  Pending = std::move(Target);
  PauseRequestedAt = M.sim().now();
  Exec->requestPause();
  return true;
}

void RegionRunner::onQuiescent() {
  assert(Transitioning && "quiescent without a pending transition");
  noteLearnedK();
  std::uint64_t StartSeq = Exec->nextSeq();
  RetiredBase += Exec->iterationsRetired();
  FaultsBase += Exec->faultsInjected();
  EscalationsBase += Exec->escalations();
  // Keep the drained exec alive until the new one is constructed: workers
  // have fully exited, but the object owns the channel storage.
  Retiring = std::move(Exec);

  if (CheckpointDone) {
    // The drain was (or became) a checkpoint quiesce: suspend here
    // instead of arming a resume.
    completeCheckpoint(StartSeq);
    return;
  }

  // Section 7.3: with overlap, the optimization routine ran during the
  // drain, so only its remainder (if the drain was shorter) delays the
  // resume; without it, the full routine runs after the barrier.
  sim::SimTime Delay = Costs.ReconfigCompute;
  if (Costs.OverlapReconfig) {
    sim::SimTime Drained = M.sim().now() - PauseRequestedAt;
    Delay = Drained >= Delay ? 0 : Delay - Drained;
  }
  scheduleResume(StartSeq, Delay);
}

void RegionRunner::scheduleResume(std::uint64_t StartSeq, sim::SimTime Delay) {
  M.sim().schedule(Delay, [this, StartSeq] {
    if (CheckpointDone) {
      // A checkpoint request landed inside the resume window: the region
      // is already quiesced, so capture here instead of restarting.
      completeCheckpoint(StartSeq);
      return;
    }
    Transitioning = false;
    Retiring.reset();
    if (Tel && TelOpenSpan) {
      Tel->end(TelPid, telemetry::TidRunner, "runner", TelOpenSpan);
      TelOpenSpan = nullptr;
    }
    // Pending is read here, not at scheduling time, so a target coalesced
    // during the delay window is honoured.
    beginExec(std::move(Pending), StartSeq);
    if (OnReconfigured)
      OnReconfigured();
  });
}

bool RegionRunner::requestCheckpoint(
    std::function<void(const RunnerCheckpoint *)> Done) {
  assert(Done && "a checkpoint needs a completion callback");
  if (Completed || !Started || Suspended || CheckpointDone)
    return false;
  // Capture the learned chunk size before the pause discipline collapses
  // it to MinK (degradeForPause records it, but only transitions through
  // a non-minimal K do; the live value is authoritative here).
  CheckpointK = std::max(Chunking.current(), Chunking.lastLearned());
  CheckpointAt = M.sim().now();
  CheckpointDone = std::move(Done);
  if (!Transitioning) {
    assert(Exec && "a started, non-transitioning runner holds an execution");
    Transitioning = true;
    Pending = Config;
    PauseRequestedAt = M.sim().now();
    if (Tel) {
      Tel->begin(TelPid, telemetry::TidRunner, "runner", "checkpoint_drain",
                 {telemetry::TraceArg::str("config", Config.str())});
      TelOpenSpan = "checkpoint_drain";
    }
    Exec->requestPause();
  }
  // Otherwise a pause/drain or resume window is already in flight; its
  // quiesce (or armed resume) funnels into the checkpoint intercepts.
  return true;
}

void RegionRunner::completeCheckpoint(std::uint64_t StartSeq) {
  Transitioning = false;
  Suspended = true;
  ++Checkpoints;
  LastCheckpoint.Cursor = StartSeq;
  LastCheckpoint.Retired = RetiredBase;
  LastCheckpoint.Config = Config;
  LastCheckpoint.ChunkK = CheckpointK;
  if (Tel) {
    if (TelOpenSpan) {
      Tel->end(TelPid, telemetry::TidRunner, "runner", TelOpenSpan);
      TelOpenSpan = nullptr;
    }
    Tel->metrics()
        .histogram("checkpoint.quiesce_latency_us")
        .add(sim::toSeconds(M.sim().now() - CheckpointAt) * 1e6);
    Tel->instant(TelPid, telemetry::TidRunner, "runner", "checkpoint",
                 {telemetry::TraceArg::num("cursor",
                                           static_cast<double>(StartSeq)),
                  telemetry::TraceArg::num(
                      "retired", static_cast<double>(RetiredBase)),
                  telemetry::TraceArg::num(
                      "chunk_k", static_cast<double>(CheckpointK)),
                  telemetry::TraceArg::str("config", Config.str())});
  }
  dispatchCheckpointDone(/*Captured=*/true);
}

void RegionRunner::dispatchCheckpointDone(bool Captured) {
  M.sim().schedule(0, [this, Captured] {
    // The drained exec is only owed to live worker frames for the event
    // that quiesced it; a suspended runner frees it now.
    if (Suspended)
      Retiring.reset();
    if (!CheckpointDone)
      return;
    auto Done = std::move(CheckpointDone);
    CheckpointDone = nullptr;
    Done(Captured ? &LastCheckpoint : nullptr);
  });
}

void RegionRunner::resume(RegionConfig C, std::uint64_t StartSeq) {
  assert(Started && Suspended && "resume() needs a suspended runner");
  assert(!Exec && "a suspended runner holds no execution");
  Suspended = false;
  Retiring.reset();
  if (Tel) {
    Tel->metrics()
        .histogram("checkpoint.restore_latency_us")
        .add(sim::toSeconds(M.sim().now() - CheckpointAt) * 1e6);
    Tel->instant(TelPid, telemetry::TidRunner, "runner", "restore",
                 {telemetry::TraceArg::num("cursor",
                                           static_cast<double>(StartSeq)),
                  telemetry::TraceArg::str("config", C.str())});
  }
  beginExec(std::move(C), StartSeq);
}

RegionExec::RestartResult RegionRunner::restartTask(unsigned TaskIdx) {
  if (Completed || !Started || !Exec)
    return {};
  RegionExec::RestartResult R = Exec->restartTask(TaskIdx);
  TaskRestarts += R.Restarted;
  return R;
}

bool RegionRunner::recover(RegionConfig Target) {
  if (Completed || !Started || Suspended || CheckpointDone)
    return false;
  assert(Region.hasVariant(Target.S) && "unknown scheme for this region");
  assert(Target.DoP.size() == Region.variant(Target.S).numTasks() &&
         "one DoP per task of the target variant");

  if (!Exec) {
    // Mid-resume window: a resume is already armed and reads Pending when
    // it fires, so retargeting it is all that is needed.
    assert(Transitioning && "no execution outside a transition");
    Pending = std::move(Target);
    return true;
  }
  if (!Exec->canAbort())
    return reconfigure(std::move(Target)); // parallel tail: must drain

  std::uint64_t Frontier = Exec->commitFrontier();
  std::uint64_t InFlight = Exec->nextSeq() - Frontier;
  if (!Source.rewind(InFlight))
    return reconfigure(std::move(Target)); // cannot replay: must drain

  ++Recoveries;
  ++Reconfigurations;
  if (Tel) {
    if (TelOpenSpan) {
      // A drain was in flight; the abort supersedes it.
      Tel->end(TelPid, telemetry::TidRunner, "runner", TelOpenSpan);
      TelOpenSpan = nullptr;
    }
    Tel->begin(TelPid, telemetry::TidRunner, "runner", "recover",
               {telemetry::TraceArg::str("to", Target.str()),
                telemetry::TraceArg::num("frontier",
                                         static_cast<double>(Frontier)),
                telemetry::TraceArg::num("in_flight",
                                         static_cast<double>(InFlight))});
    TelOpenSpan = "recover";
  }
  noteLearnedK();
  // Absolute, not cumulative: the frontier may be one ahead of the retire
  // counter when the abort lands between the tail's functor (side effect
  // durable, frontier advanced) and its IterDone (retire counted). The
  // new execution starts at the frontier, so counting from it keeps
  // totalRetired() continuous and duplicate-free.
  RetiredBase = Frontier;
  FaultsBase += Exec->faultsInjected();
  EscalationsBase += Exec->escalations();
  Transitioning = true;
  Pending = std::move(Target);
  Exec->abort();
  // As in onQuiescent: the dead exec owns channel storage live workers may
  // still be named in; free it only after the new exec exists.
  Retiring = std::move(Exec);
  scheduleResume(Frontier, Costs.ReconfigCompute);
  return true;
}
