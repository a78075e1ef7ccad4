//===- Metrics.cpp - Named counters, gauges, and histograms ----------------===//

#include "telemetry/Metrics.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace parcae::telemetry;

CounterExport::~CounterExport() {
  if (!Reg)
    return;
  for (const Source &S : Sources)
    Reg->Counters[S.Row].Retired += S.Read();
  Reg->Exports.erase(
      std::find(Reg->Exports.begin(), Reg->Exports.end(), this));
}

void CounterExport::bind(MetricsRegistry &R) {
  assert(!Reg && "counter export bound twice");
  Reg = &R;
  R.Exports.push_back(this);
}

void CounterExport::add(const std::string &Name, Reader Read, Listing L) {
  if (Reg)
    Sources.push_back({Reg->counterRow(Name, L), std::move(Read)});
}

MetricsRegistry::~MetricsRegistry() {
  for (CounterExport *E : Exports)
    E->Reg = nullptr;
}

std::size_t MetricsRegistry::counterRow(const std::string &Name, Listing L) {
  std::size_t Row = 0;
  while (Row < Counters.size() && Counters[Row].Name != Name)
    ++Row;
  if (Row == Counters.size())
    Counters.push_back({Name});
  Counters[Row].Always |= L == Listing::Always;
  return Row;
}

template <class T>
T &MetricsRegistry::lookup(std::vector<Named<T>> &List,
                           const std::string &Name) {
  for (auto &E : List)
    if (E.Name == Name)
      return *E.M;
  List.push_back({Name, std::make_unique<T>()});
  return *List.back().M;
}

Gauge &MetricsRegistry::gauge(const std::string &Name) {
  return lookup(Gauges, Name);
}

parcae::Histogram &MetricsRegistry::histogram(const std::string &Name) {
  return lookup(Histograms, Name);
}

MetricsSnapshot MetricsRegistry::snapshot(sim::SimTime Now) const {
  MetricsSnapshot S;
  S.At = Now;
  std::vector<std::uint64_t> Totals;
  for (const CounterTotal &C : Counters)
    Totals.push_back(C.Retired);
  for (const CounterExport *E : Exports)
    for (const CounterExport::Source &Src : E->Sources)
      Totals[Src.Row] += Src.Read();
  for (std::size_t I = 0; I < Counters.size(); ++I)
    if (Totals[I] > 0 || Counters[I].Always)
      S.Rows.push_back({MetricRow::Kind::Counter, Counters[I].Name,
                        static_cast<double>(Totals[I])});
  for (const auto &E : Gauges)
    S.Rows.push_back({MetricRow::Kind::Gauge, E.Name, E.M->value()});
  for (const auto &E : Histograms) {
    MetricRow R;
    R.K = MetricRow::Kind::Histogram;
    R.Name = E.Name;
    R.Value = static_cast<double>(E.M->count());
    R.Mean = E.M->mean();
    R.P50 = E.M->p50();
    R.P95 = E.M->p95();
    R.P99 = E.M->p99();
    R.Min = E.M->min();
    R.Max = E.M->max();
    S.Rows.push_back(std::move(R));
  }
  std::sort(S.Rows.begin(), S.Rows.end(),
            [](const MetricRow &A, const MetricRow &B) {
              return A.Name < B.Name;
            });
  return S;
}

std::string MetricsSnapshot::text() const {
  std::string Out;
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), "# metrics at t=%.6f s\n",
                sim::toSeconds(At));
  Out += Buf;
  for (const MetricRow &R : Rows) {
    switch (R.K) {
    case MetricRow::Kind::Counter:
      std::snprintf(Buf, sizeof(Buf), "counter %s %.0f\n", R.Name.c_str(),
                    R.Value);
      break;
    case MetricRow::Kind::Gauge:
      std::snprintf(Buf, sizeof(Buf), "gauge %s %.6g\n", R.Name.c_str(),
                    R.Value);
      break;
    case MetricRow::Kind::Histogram:
      std::snprintf(Buf, sizeof(Buf),
                    "histogram %s count=%.0f mean=%.6g p50=%.6g p95=%.6g "
                    "p99=%.6g min=%.6g max=%.6g\n",
                    R.Name.c_str(), R.Value, R.Mean, R.P50, R.P95, R.P99,
                    R.Min, R.Max);
      break;
    }
    Out += Buf;
  }
  return Out;
}
