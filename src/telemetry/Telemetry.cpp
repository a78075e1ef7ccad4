//===- Telemetry.cpp - Virtual-time event tracing --------------------------===//

#include "telemetry/Telemetry.h"

#include <algorithm>

using namespace parcae::telemetry;

namespace {
TraceRecorder *GlobalRecorder = nullptr;
} // namespace

TraceRecorder *parcae::telemetry::recorder() { return GlobalRecorder; }

void parcae::telemetry::setRecorder(TraceRecorder *R) { GlobalRecorder = R; }

std::uint32_t TraceRecorder::processFor(const std::string &Name) {
  for (std::size_t I = 0; I < Processes.size(); ++I)
    if (Processes[I] == Name)
      return static_cast<std::uint32_t>(I);
  Processes.push_back(Name);
  return static_cast<std::uint32_t>(Processes.size() - 1);
}

void TraceRecorder::nameThread(std::uint32_t Pid, std::uint32_t Tid,
                               std::string Name) {
  for (auto &Entry : ThreadNames) {
    if (Entry.first.first == Pid && Entry.first.second == Tid) {
      Entry.second = std::move(Name);
      return;
    }
  }
  ThreadNames.push_back({{Pid, Tid}, std::move(Name)});
}

void TraceRecorder::captureSimQueueMetrics(const sim::Simulator &Sim) {
  sim::Simulator::QueueStats S = Sim.queueStats();
  Metrics.gauge("sim.queue.ring_hits").set(static_cast<double>(S.RingHits));
  Metrics.gauge("sim.queue.heap_hits").set(static_cast<double>(S.HeapHits));
}

void TraceRecorder::record(Phase Ph, std::uint32_t Pid, std::uint32_t Tid,
                           const char *Cat, std::string Name,
                           std::vector<TraceArg> Args) {
  if (Events.size() >= Capacity) {
    ++Dropped;
    return;
  }
  TraceEvent E;
  E.Ts = now();
  E.Ph = Ph;
  E.Pid = Pid;
  E.Tid = Tid;
  E.Cat = Cat;
  E.Name = std::move(Name);
  E.Args = std::move(Args);
  Events.push_back(std::move(E));
}
