//===- Wrappers.h - Wrappers around handed-in interfaces --------*- C++ -*-===//
//
// Part of the Parcae reproduction's whole-stack benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interfaces the benchmark hands into the program — task functors,
/// work sources, lane and pipeline mechanisms, arrival processes and
/// serve region factories — wrapped so a traced pass can time each call
/// (a per-call span) and count what crosses the boundary. Only traced
/// passes install them; every wrapper forwards to the wrapped object
/// unchanged, so the simulation is the same with or without them (the
/// determinism gate checks this).
///
//===----------------------------------------------------------------------===//

#ifndef WSBENCH_WRAPPERS_H
#define WSBENCH_WRAPPERS_H

#include "Spans.h"

#include "core/Region.h"
#include "core/WorkSource.h"
#include "mechanisms/LaneMechanisms.h"
#include "mechanisms/PipeMechanisms.h"
#include "morta/RegionRunner.h"
#include "serve/Arrival.h"

#include <algorithm>
#include <memory>

namespace wsbench {

/// Boundary counts gathered by the wrappers over one traced pass.
struct Probe {
  std::uint64_t FnCalls = 0;      ///< task functor invocations
  std::uint64_t LinkTokens = 0;   ///< output tokens the functors produced
  std::uint64_t Claims = 0;       ///< work-source claim calls
  std::uint64_t ClaimedItems = 0; ///< items those claims returned
  std::uint64_t ClaimWaits = 0;   ///< claims that found nothing yet
  std::uint64_t Rewound = 0;      ///< items handed back by rewind()
  double LinkPressureMax = 0;     ///< highest link occupancy sampled
  std::uint64_t Decides = 0;      ///< mechanism decide/dispatch calls
};

/// Copies \p R with every task functor of every variant wrapped in a
/// task.fn span that also counts calls and output tokens.
inline parcae::rt::FlexibleRegion
wrapRegion(const parcae::rt::FlexibleRegion &R, Probe &P) {
  parcae::rt::FlexibleRegion Out(R.name());
  for (parcae::rt::RegionDesc D : R.variants()) {
    for (parcae::rt::Task &T : D.Tasks) {
      parcae::rt::IterFn Inner = std::move(T.Fn);
      T.Fn = [Inner = std::move(Inner), &P](parcae::rt::IterationContext &C) {
        {
          Span S(SpTaskFn);
          Inner(C);
        }
        ++P.FnCalls;
        P.LinkTokens += C.Out.size();
      };
    }
    Out.addVariant(std::move(D));
  }
  return Out;
}

/// A work source forwarding to another one, timing and counting claims.
/// Every 64th claim also samples the runner's highest link occupancy.
class ProbedSource : public parcae::rt::WorkSource {
public:
  ProbedSource(parcae::rt::WorkSource &Inner, Probe &P) : Inner(Inner), P(P) {}

  void watch(const parcae::rt::RegionRunner *R) { Runner = R; }

  Pull tryPull(parcae::rt::Token &Out) override {
    Pull R;
    {
      Span S(SpCoreClaim);
      R = Inner.tryPull(Out);
    }
    note(R, R == Pull::Got ? 1 : 0);
    return R;
  }
  Pull tryPullChunk(std::uint64_t Max,
                    std::vector<parcae::rt::Token> &Out) override {
    std::size_t Before = Out.size();
    Pull R;
    {
      Span S(SpCoreClaim);
      R = Inner.tryPullChunk(Max, Out);
    }
    note(R, Out.size() - Before);
    return R;
  }
  parcae::sim::Waitable &readyEvent() override { return Inner.readyEvent(); }
  double load() const override { return Inner.load(); }
  bool rewind(std::uint64_t Count) override {
    bool Ok = Inner.rewind(Count);
    if (Ok)
      P.Rewound += Count;
    return Ok;
  }
  bool saveState(parcae::rt::WorkSourceState &Out) const override {
    return Inner.saveState(Out);
  }
  bool restoreState(const parcae::rt::WorkSourceState &S) override {
    return Inner.restoreState(S);
  }

private:
  void note(Pull R, std::size_t Items) {
    ++P.Claims;
    P.ClaimedItems += Items;
    if (R == Pull::Wait)
      ++P.ClaimWaits;
    if ((P.Claims & 63) == 0 && Runner && Runner->exec())
      P.LinkPressureMax =
          std::max(P.LinkPressureMax, Runner->exec()->maxLinkPressure());
  }

  parcae::rt::WorkSource &Inner;
  Probe &P;
  const parcae::rt::RegionRunner *Runner = nullptr;
};

/// A lane mechanism forwarding to another one, timing each dispatch call.
class TimedLaneMech : public parcae::rt::LaneMechanism {
public:
  TimedLaneMech(parcae::rt::LaneMechanism &Inner, Probe &P)
      : Inner(Inner), P(P) {}
  const char *name() const override { return Inner.name(); }
  std::optional<parcae::rt::LaneConfig> onDispatch(double QueueLen) override {
    ++P.Decides;
    Span S(SpMechDecide);
    return Inner.onDispatch(QueueLen);
  }
  parcae::rt::LaneConfig initialConfig() const override {
    return Inner.initialConfig();
  }

private:
  parcae::rt::LaneMechanism &Inner;
  Probe &P;
};

/// A pipeline mechanism forwarding to another one, timing each decision.
class TimedPipeMech : public parcae::rt::PipeMechanism {
public:
  TimedPipeMech(parcae::rt::PipeMechanism &Inner, Probe &P)
      : Inner(Inner), P(P) {}
  const char *name() const override { return Inner.name(); }
  std::optional<parcae::rt::RegionConfig>
  decide(const parcae::rt::PipeMechView &V) override {
    ++P.Decides;
    Span S(SpMechDecide);
    return Inner.decide(V);
  }

private:
  parcae::rt::PipeMechanism &Inner;
  Probe &P;
};

/// An arrival process forwarding to another one, timing each draw.
class TimedArrivals : public parcae::serve::ArrivalProcess {
public:
  explicit TimedArrivals(std::unique_ptr<parcae::serve::ArrivalProcess> Inner)
      : Inner(std::move(Inner)) {}
  std::optional<parcae::sim::SimTime>
  nextDelay(parcae::sim::SimTime Now) override {
    Span S(SpServeArrival);
    return Inner->nextDelay(Now);
  }

private:
  std::unique_ptr<parcae::serve::ArrivalProcess> Inner;
};

} // namespace wsbench

#endif // WSBENCH_WRAPPERS_H
