//===- Run.cpp - Executing compiled loops on the simulator -------------------===//

#include "nona/Run.h"

#include "support/Rng.h"

using namespace parcae::ir;
namespace rt = parcae::rt;
namespace sim = parcae::sim;

CompiledRunResult parcae::ir::runCompiled(CompiledLoop &CL,
                                          rt::RegionConfig C, unsigned Cores,
                                          const rt::RuntimeCosts &Costs) {
  sim::Simulator Sim;
  sim::Machine M(Sim, Cores);
  CL.resetState();
  auto Src = CL.makeSource();
  rt::RegionRunner Runner(M, Costs, CL.region(), *Src);
  Runner.start(std::move(C));
  Sim.run();
  CompiledRunResult R;
  R.Time = Sim.now();
  R.Completed = Runner.completed();
  R.Retired = Runner.totalRetired();
  return R;
}

CompiledRunResult parcae::ir::runCompiledChaotic(CompiledLoop &CL,
                                                 unsigned Cores,
                                                 std::uint64_t Seed,
                                                 unsigned Reconfigs) {
  sim::Simulator Sim;
  sim::Machine M(Sim, Cores);
  rt::RuntimeCosts Costs;
  CL.resetState();
  auto Src = CL.makeSource();
  rt::RegionRunner Runner(M, Costs, CL.region(), *Src);

  // Candidate configurations across every variant the loop exposes.
  parcae::Rng R0(Seed);
  std::vector<rt::RegionConfig> Configs;
  for (const rt::RegionDesc &V : CL.region().variants()) {
    for (unsigned Rep = 0; Rep < 4; ++Rep) {
      rt::RegionConfig C;
      C.S = V.S;
      for (const rt::Task &T : V.Tasks)
        C.DoP.push_back(T.isParallel()
                            ? 1 + static_cast<unsigned>(R0.nextBelow(
                                      std::min(Cores, 8u)))
                            : 1);
      Configs.push_back(std::move(C));
    }
  }
  assert(!Configs.empty());

  Runner.start(Configs[R0.nextBelow(Configs.size())]);
  // Spread reconfigurations over the expected run.
  for (unsigned K = 1; K <= Reconfigs; ++K) {
    rt::RegionConfig C = Configs[R0.nextBelow(Configs.size())];
    Sim.schedule(static_cast<sim::SimTime>(K) * 400 * sim::USec,
                 [&Runner, C = std::move(C)]() mutable {
                   if (!Runner.completed())
                     Runner.reconfigure(std::move(C));
                 });
  }
  Sim.run();
  CompiledRunResult R;
  R.Time = Sim.now();
  R.Completed = Runner.completed();
  R.Retired = Runner.totalRetired();
  return R;
}

ControlledRunResult parcae::ir::runControlled(CompiledLoop &CL,
                                              unsigned Budget) {
  sim::Simulator Sim;
  sim::Machine M(Sim, Budget);
  rt::RuntimeCosts Costs;
  CL.resetState();
  auto Src = CL.makeSource();
  rt::RegionRunner Runner(M, Costs, CL.region(), *Src);
  rt::RegionController Ctrl(Runner);
  Ctrl.start(Budget);
  Sim.run();
  ControlledRunResult R;
  R.Time = Sim.now();
  R.Completed = Runner.completed();
  R.Final = Runner.config();
  R.SeqThroughput = Ctrl.seqThroughput();
  R.BestThroughput = Ctrl.bestThroughput();
  R.Trace = Ctrl.trace();
  return R;
}
