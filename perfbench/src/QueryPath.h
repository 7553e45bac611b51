//===- perfbench/src/QueryPath.h - Per-query path and spans -*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's sequential query path. It drives one query through
/// the same public calls engine::BatchProver::proveOne makes, in the
/// same order: sl::parseEntailment, analysis::analyze (when the
/// pre-solver is on), engine::CanonicalQuery::of, an optional
/// engine::ResultCache lookup, CanonicalQuery::rebuild and
/// core::ProverSession::prove, on one long-lived session that is
/// reset() between queries. The prove call gets a Fuel budget tied to
/// a CancelToken that a watchdog thread fires at the per-query wall
/// deadline, standing in for the paper's timeout.
///
/// Spans are recorded around each layer call into a buffer the
/// benchmark owns, never into obs::TraceRecorder: enabling the
/// program's recorder would also switch on its internal spans.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_PERFBENCH_QUERYPATH_H
#define SLP_PERFBENCH_QUERYPATH_H

#include "core/ProverSession.h"
#include "engine/ResultCache.h"
#include "superposition/Saturation.h"
#include "support/Fuel.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace slpbench {

using Clock = std::chrono::steady_clock;

/// Fires a CancelToken when a deadline passes. One thread serves every
/// query: arming does not wake it while it sleeps towards an earlier
/// deadline, because every later arm has a later deadline; it then
/// re-reads the current one. So a query pays a mutex round trip, not a
/// thread wake-up.
class Watchdog {
public:
  Watchdog();
  ~Watchdog();
  Watchdog(const Watchdog &) = delete;
  Watchdog &operator=(const Watchdog &) = delete;

  /// Fires \p Token at \p Due unless disarm() comes first. \p Token
  /// must stay alive until disarm() returns.
  void arm(slp::CancelToken *Token, Clock::time_point Due);
  void disarm();

private:
  void loop();

  std::mutex M; // Guards every field below except Thread.
  std::condition_variable Cv;
  slp::CancelToken *Token = nullptr;
  Clock::time_point Due;
  bool Sleeping = false; ///< Waiting with no deadline; arm() must notify.
  bool Stop = false;
  std::thread Thread;
};

/// Named intervals recorded around layer calls. Spans of one query
/// share its index; Parent is the index of the enclosing span or -1.
class SpanBuffer {
public:
  struct Span {
    const char *Name;
    uint32_t Query;
    int32_t Parent;
    Clock::time_point Start, End;
  };

  int32_t open(const char *Name, uint32_t Query, int32_t Parent) {
    Spans.push_back({Name, Query, Parent, Clock::now(), {}});
    return static_cast<int32_t>(Spans.size() - 1);
  }
  void close(int32_t Id) { Spans[Id].End = Clock::now(); }

  const std::vector<Span> &spans() const { return Spans; }

  /// Per span name: number of spans, summed self time in seconds (the
  /// span's duration minus the part its child spans cover), and each
  /// span's own self time in microseconds, in recording order.
  struct Layer {
    uint64_t Calls = 0;
    double SelfSeconds = 0;
    std::vector<double> SelfUs;
  };
  std::map<std::string, Layer> selfTimes() const;

private:
  std::vector<Span> Spans;
};

/// Writes the first \p Count buffers as one Chrome trace
/// (chrome://tracing, Perfetto), buffer i as thread i.
bool writeChromeTrace(const std::string &Path,
                      const std::vector<SpanBuffer> &Buffers, size_t Count);

/// RAII span: a no-op when the buffer is null (untraced runs).
class SpanScope {
public:
  SpanScope(SpanBuffer *B, const char *Name, uint32_t Query,
            int32_t Parent = -1)
      : B(B), Id(B ? B->open(Name, Query, Parent) : -1) {}
  ~SpanScope() {
    if (B)
      B->close(Id);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;
  int32_t id() const { return Id; }

private:
  SpanBuffer *B;
  int32_t Id;
};

/// Why a query ended.
enum class Stop : uint8_t {
  Decided,    ///< Valid or Invalid.
  Deadline,   ///< The watchdog fired the CancelToken.
  Fuel,       ///< The inference budget ran out.
  ParseError, ///< The text did not parse.
};
const char *stopName(Stop S);

/// Everything the benchmark keeps about one query.
struct Outcome {
  slp::core::Verdict V = slp::core::Verdict::Unknown;
  Stop S = Stop::Decided;
  bool Presolved = false;
  bool FromCache = false;
  bool Proved = false; ///< prove() ran; Prove and Sat are filled.
  double Ms = 0;       ///< Time to verdict.
  slp::core::ProveStats Prove;
  slp::sup::SaturationStats Sat;
  /// Present iff V == Invalid and the caller asked to keep it. It binds
  /// the term ids of the entailment it refutes; see checkCounterexample.
  std::optional<slp::sl::CounterModel> Cex;
};

struct PathConfig {
  uint64_t Fuel = 0;       ///< Per-query inference budget.
  bool Presolve = true;    ///< Run analysis::analyze ahead of the prover.
  bool Cache = false;      ///< Consult and fill a ResultCache.
  std::chrono::milliseconds Deadline{0}; ///< 0 = no deadline.
};

class QueryPath {
public:
  explicit QueryPath(PathConfig C);

  /// Drives \p Text to a verdict. \p Spans may be null.
  Outcome run(const std::string &Text, uint32_t QueryId, SpanBuffer *Spans,
              bool KeepCex);

  /// Re-derives the entailment an Invalid outcome of run() refuted and
  /// checks its countermodel with sl::isCounterexample. Session resets
  /// reassign term ids deterministically, so replaying the same calls
  /// rebuilds the same ids the countermodel binds.
  bool checkCounterexample(const std::string &Text, const Outcome &O);

  /// Forgets every cached verdict (a fresh pass).
  void clearCache();

private:
  PathConfig C;
  slp::core::ProverSession Session;
  std::unique_ptr<slp::engine::ResultCache> Cache;
  Watchdog Dog;
};

} // namespace slpbench

#endif // SLP_PERFBENCH_QUERYPATH_H
