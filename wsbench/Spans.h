//===- Spans.h - Host-time spans of the benchmark ---------------*- C++ -*-===//
//
// Part of the Parcae reproduction's whole-stack benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Host-clock spans the benchmark records around the calls it makes into
/// the program and around the interfaces it hands in. Coarse spans
/// (workload, setup, sim.run, check) are kept one record each: name,
/// start, end, parent and the run id of the pass. Per-call spans
/// (task.fn, core.claim, mech.decide, serve.make_region, serve.arrival)
/// are aggregated as count, total and self time per (name, parent), so
/// memory stays bounded however many calls a run makes. Self time is a
/// span's duration minus the time its child spans cover. Everything is
/// kept in memory and written out when the benchmark ends.
///
/// Recording is off unless the pass is a traced one; an untraced pass
/// installs no wrappers at all, so its host time carries none of this.
///
//===----------------------------------------------------------------------===//

#ifndef WSBENCH_SPANS_H
#define WSBENCH_SPANS_H

#include <array>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace wsbench {

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum SpanName : unsigned {
  SpWorkload,
  SpSetup,
  SpSimRun,
  SpCheck,
  // Per-call spans (aggregated).
  SpTaskFn,
  SpCoreClaim,
  SpMechDecide,
  SpServeMakeRegion,
  SpServeArrival,
  NumSpanNames
};

inline const char *spanName(unsigned N) {
  static const char *Names[NumSpanNames] = {
      "workload", "setup",       "sim.run",           "check",
      "task.fn",  "core.claim",  "mech.decide",       "serve.make_region",
      "serve.arrival"};
  return N < NumSpanNames ? Names[N] : "root";
}

inline bool isCoarse(SpanName N) { return N <= SpCheck; }

struct SpanRecord {
  SpanName Name;
  std::int64_t StartNs;
  std::int64_t EndNs;
  std::int64_t SelfNs;
  int Parent; ///< index into the record list, -1 for a root span
  unsigned RunId;
};

struct SpanAgg {
  std::uint64_t Count = 0;
  std::int64_t TotalNs = 0;
  std::int64_t SelfNs = 0;
};

class SpanRecorder {
public:
  bool on() const { return On; }
  void setOn(bool B) { On = B; }
  void setRunId(unsigned Id) { RunId = Id; }

  void enter(SpanName N) {
    assert(On);
    Frame F;
    F.Name = N;
    F.StartNs = nowNs();
    if (isCoarse(N)) {
      F.Record = static_cast<int>(Records.size());
      Records.push_back({N, F.StartNs, 0, 0, coarseParent(), RunId});
    }
    Stack.push_back(F);
  }

  void exit() {
    assert(On && !Stack.empty());
    std::int64_t End = nowNs();
    Frame F = Stack.back();
    Stack.pop_back();
    std::int64_t Dur = End - F.StartNs;
    std::int64_t Self = Dur - F.ChildNs;
    unsigned Parent = Stack.empty() ? NumSpanNames : Stack.back().Name;
    if (!Stack.empty())
      Stack.back().ChildNs += Dur;
    SpanAgg &A = Agg[F.Name][Parent];
    ++A.Count;
    A.TotalNs += Dur;
    A.SelfNs += Self;
    if (F.Record >= 0) {
      Records[F.Record].EndNs = End;
      Records[F.Record].SelfNs = Self;
    }
  }

  /// Totals over every parent.
  SpanAgg total(SpanName N) const {
    SpanAgg T;
    for (const SpanAgg &A : Agg[N]) {
      T.Count += A.Count;
      T.TotalNs += A.TotalNs;
      T.SelfNs += A.SelfNs;
    }
    return T;
  }

  /// Writes every record and aggregate as one JSON document.
  bool write(const char *Path) const {
    std::FILE *F = std::fopen(Path, "w");
    if (!F)
      return false;
    std::fprintf(F, "{\"records\":[");
    for (std::size_t I = 0; I < Records.size(); ++I) {
      const SpanRecord &R = Records[I];
      std::fprintf(F,
                   "%s\n{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"self_ns\":%lld,\"parent\":%d,"
                   "\"run\":%u}",
                   I ? "," : "", I, spanName(R.Name),
                   static_cast<long long>(R.StartNs),
                   static_cast<long long>(R.EndNs),
                   static_cast<long long>(R.SelfNs), R.Parent, R.RunId);
    }
    std::fprintf(F, "],\n\"aggregates\":[");
    bool First = true;
    for (unsigned N = 0; N < NumSpanNames; ++N)
      for (unsigned P = 0; P <= NumSpanNames; ++P) {
        const SpanAgg &A = Agg[N][P];
        if (!A.Count)
          continue;
        std::fprintf(F,
                     "%s\n{\"name\":\"%s\",\"parent\":\"%s\",\"count\":%llu,"
                     "\"total_ns\":%lld,\"self_ns\":%lld}",
                     First ? "" : ",", spanName(N), spanName(P),
                     static_cast<unsigned long long>(A.Count),
                     static_cast<long long>(A.TotalNs),
                     static_cast<long long>(A.SelfNs));
        First = false;
      }
    std::fprintf(F, "]}\n");
    return std::fclose(F) == 0;
  }

private:
  struct Frame {
    SpanName Name;
    std::int64_t StartNs = 0;
    std::int64_t ChildNs = 0;
    int Record = -1;
  };

  int coarseParent() const {
    for (auto It = Stack.rbegin(); It != Stack.rend(); ++It)
      if (It->Record >= 0)
        return It->Record;
    return -1;
  }

  bool On = false;
  unsigned RunId = 0;
  std::vector<Frame> Stack;
  std::vector<SpanRecord> Records;
  std::array<std::array<SpanAgg, NumSpanNames + 1>, NumSpanNames> Agg{};
};

/// The one recorder of the benchmark process.
SpanRecorder &spans();

/// Records \p N around a scope when the recorder is on.
class Span {
public:
  explicit Span(SpanName N) : Active(spans().on()) {
    if (Active)
      spans().enter(N);
  }
  ~Span() {
    if (Active)
      spans().exit();
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  bool Active;
};

} // namespace wsbench

#endif // WSBENCH_SPANS_H
