//===- Power.cpp - Platform power model and PDU sampling -------------------===//

#include "sim/Power.h"

using namespace parcae::sim;

EnergyMeter::EnergyMeter(const Machine &M, PowerModel Model)
    : M(M), Model(Model), StartAt(M.sim().now()), StartBusy(M.busyCoreTime()) {}

double EnergyMeter::joules() const {
  return Model.StaticWatts * toSeconds(M.sim().now() - StartAt) +
         Model.PerCoreActiveWatts * toSeconds(M.busyCoreTime() - StartBusy);
}

PduSampler::PduSampler(Simulator &Sim, const EnergyMeter &Meter,
                       std::function<void(double)> OnSample, SimTime Period)
    : Sim(Sim), Meter(Meter), OnSample(std::move(OnSample)), Period(Period) {
  assert(Period > 0 && "sampling period must be positive");
  Sim.schedule(Period, [this] { tick(); });
}

void PduSampler::tick() {
  if (Stopped)
    return;
  LastWatts = Meter.currentWatts();
  if (OnSample)
    OnSample(LastWatts);
  Sim.schedule(Period, [this] { tick(); });
}
