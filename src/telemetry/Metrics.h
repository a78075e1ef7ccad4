//===- Metrics.h - Named counters, gauges, and histograms -------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A registry of named metrics, snapshotable at any virtual time:
///
///  * counter   — monotone uint64 ("runner.<region>.full_pauses"), owned
///                by the component that counts it (CounterExport);
///  * Gauge     — last-written double ("decima.SystemPower");
///  * Histogram — recorded samples with p50/p95/p99 (support/Stats.h),
///                e.g. the controller's measured throughputs.
///
/// Gauges and histograms have stable addresses once created, so hot
/// paths look one up once and cache the pointer.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_TELEMETRY_METRICS_H
#define PARCAE_TELEMETRY_METRICS_H

#include "sim/Time.h"
#include "support/Stats.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace parcae::telemetry {

class MetricsRegistry;

/// Last-written value of a sampled quantity.
class Gauge {
public:
  void set(double X) { V = X; }
  double value() const { return V; }

private:
  double V = 0.0;
};

/// When an exported counter's row appears in a snapshot: once its total
/// is non-zero, or from registration on.
enum class Listing { NonZero, Always };

/// A component's counters, exported by name. The component owns each
/// count; the registry only reads it: a snapshot reads the live value,
/// and destroying the export adds the final value into the registry's
/// total for that name. Declare it after every field it reads, so it is
/// destroyed while they are alive.
class CounterExport {
public:
  using Reader = std::function<std::uint64_t()>;

  CounterExport() = default;
  ~CounterExport();
  CounterExport(const CounterExport &) = delete;
  CounterExport &operator=(const CounterExport &) = delete;

  /// Attaches to \p R; call once, at the owner's construction.
  void bind(MetricsRegistry &R);
  /// Exports \p Read's value under \p Name (a no-op while unbound).
  void add(const std::string &Name, Reader Read,
           Listing L = Listing::NonZero);
  template <class Int, std::enable_if_t<std::is_integral_v<Int>, int> = 0>
  void add(const std::string &Name, const Int &Field,
           Listing L = Listing::NonZero) {
    add(Name, [&Field] { return static_cast<std::uint64_t>(Field); }, L);
  }

private:
  friend class MetricsRegistry;
  struct Source {
    std::size_t Row;
    Reader Read;
  };
  MetricsRegistry *Reg = nullptr;
  std::vector<Source> Sources;
};

/// One row of a metrics snapshot.
struct MetricRow {
  enum class Kind { Counter, Gauge, Histogram };
  Kind K;
  std::string Name;
  double Value = 0.0; ///< counter value / gauge value / histogram count
  // Histogram-only fields.
  double Mean = 0.0, P50 = 0.0, P95 = 0.0, P99 = 0.0, Min = 0.0, Max = 0.0;
};

/// A point-in-time view of every registered metric.
struct MetricsSnapshot {
  sim::SimTime At = 0;
  std::vector<MetricRow> Rows;

  /// Flat text dump, one metric per line (the "metrics text" exporter).
  std::string text() const;
};

/// Registry of named metrics. Lookup creates on first use; returned
/// references stay valid for the registry's lifetime.
class MetricsRegistry {
public:
  /// Detaches the exports still bound: they stop reporting.
  ~MetricsRegistry();

  Gauge &gauge(const std::string &Name);
  Histogram &histogram(const std::string &Name);

  /// Snapshot of all metrics at virtual time \p Now, rows sorted by name.
  MetricsSnapshot snapshot(sim::SimTime Now) const;

  bool empty() const { return snapshot(0).Rows.empty(); }

private:
  friend class CounterExport;
  /// A counter name's total over the exports already destroyed.
  struct CounterTotal {
    std::string Name;
    std::uint64_t Retired = 0;
    bool Always = false;
  };
  std::size_t counterRow(const std::string &Name, Listing L);

  template <class T> struct Named {
    std::string Name;
    std::unique_ptr<T> M;
  };
  template <class T>
  static T &lookup(std::vector<Named<T>> &List, const std::string &Name);
  // Linear lookup: registries hold tens of metrics and hot paths cache
  // the returned pointer, so the lookup runs once per metric per run.
  std::vector<CounterTotal> Counters;
  std::vector<CounterExport *> Exports; ///< bound and alive
  std::vector<Named<Gauge>> Gauges;
  std::vector<Named<Histogram>> Histograms;
};

} // namespace parcae::telemetry

#endif // PARCAE_TELEMETRY_METRICS_H
