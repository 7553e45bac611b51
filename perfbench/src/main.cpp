//===- perfbench/src/main.cpp - The SLP benchmark program ---------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One process runs one workload:
///
///   slp-perfbench --workload NAME --seed N --seconds S --trace 0|1
///                 [--corpus-seed N] [--scale N] [--inject-wrong-verdict]
///
/// It sets the workload up, runs timed passes over every query for
/// about --seconds seconds, then a check pass outside the timed region. With --trace 0 the last
/// stdout line reports the end-to-end metrics, with --trace 1 the
/// per-layer metrics from a separate traced run. See perfbench/README.md
/// for the workloads and the layer -> metric -> end-to-end map.
///
//===----------------------------------------------------------------------===//

#include "QueryPath.h"
#include "Inputs.h"

#include "baselines/BerdineProver.h"
#include "engine/BatchProver.h"
#include "engine/CanonicalKey.h"
#include "sl/Parser.h"
#include "support/Random.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <initializer_list>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

using namespace slp;
using namespace slpbench;

namespace {

/// Set-ups at each end of a run; setup_s is the median of these and of
/// the set-ups made between timed rounds.
constexpr unsigned NumSetups = 5;

/// Sequential workloads: a query whose first timed run took longer than
/// this runs in the first round only; the quicker ones run in every
/// round. The slowest few queries of t1-paper take most of a pass, so
/// repeating them would leave a run one sample of every other query.
constexpr double RepeatCapMs = 500;

//===----------------------------------------------------------------------===//
// Arguments
//===----------------------------------------------------------------------===//

struct Options {
  const WorkloadSpec *W = nullptr;
  uint64_t Seed = 0;
  unsigned Seconds = 0;
  int Trace = -1;
  std::optional<uint64_t> CorpusSeed;
  std::optional<unsigned> Scale;
  bool InjectWrongVerdict = false;
};

/// Strict unsigned decimal: digits only, no sign, exponent, or
/// trailing text, and within [Min, Max]. "abc", "1e3" and "" fail.
bool parseUnsigned(const std::string &S, uint64_t Min, uint64_t Max,
                   uint64_t &Out) {
  if (S.empty() || S.size() > 20)
    return false;
  uint64_t V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    uint64_t D = static_cast<uint64_t>(C - '0');
    if (V > (UINT64_MAX - D) / 10)
      return false;
    V = V * 10 + D;
  }
  if (V < Min || V > Max)
    return false;
  Out = V;
  return true;
}

bool usage(const char *Msg, const std::string &Arg = "") {
  std::fprintf(stderr, "slp-perfbench: %s%s%s\n", Msg, Arg.empty() ? "" : ": ",
               Arg.c_str());
  std::fprintf(stderr,
               "usage: slp-perfbench --workload {%s} --seed N --seconds S "
               "--trace 0|1 [--corpus-seed N] [--scale N] "
               "[--inject-wrong-verdict]\n",
               workloadNames().c_str());
  return false;
}

bool parseOptions(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string Key = Argv[I], Value;
    if (Key == "--inject-wrong-verdict") {
      O.InjectWrongVerdict = true;
      continue;
    }
    size_t Eq = Key.find('=');
    if (Eq != std::string::npos) {
      Value = Key.substr(Eq + 1);
      Key.resize(Eq);
    } else if (I + 1 < Argc) {
      Value = Argv[++I];
    } else {
      return usage("missing value for", Key);
    }
    uint64_t N = 0;
    auto Num = [&](uint64_t Min, uint64_t Max) {
      return parseUnsigned(Value, Min, Max, N) ||
             usage("bad value", Key + "=" + Value);
    };
    if (Key == "--workload") {
      if (!(O.W = findWorkload(Value)))
        return usage("unknown workload", Value);
    } else if (Key == "--seed") {
      if (!Num(0, UINT64_MAX))
        return false;
      O.Seed = N;
    } else if (Key == "--seconds") {
      if (!Num(1, 600))
        return false;
      O.Seconds = static_cast<unsigned>(N);
    } else if (Key == "--trace") {
      if (!Num(0, 1))
        return false;
      O.Trace = static_cast<int>(N);
    } else if (Key == "--corpus-seed") {
      if (!Num(0, UINT64_MAX))
        return false;
      O.CorpusSeed = N;
    } else if (Key == "--scale") {
      if (!Num(1, 10000))
        return false;
      O.Scale = static_cast<unsigned>(N);
    } else {
      return usage("unknown option", Key);
    }
  }
  if (!O.W || O.Seconds == 0 || O.Trace < 0)
    return usage("--workload, --seed, --seconds and --trace are required");
  if (O.CorpusSeed && O.W->Kind == WorkloadKind::VcBatch)
    return usage("--corpus-seed only applies to t1-paper and t2-entail");
  return true;
}

//===----------------------------------------------------------------------===//
// Statistics helpers
//===----------------------------------------------------------------------===//

double seconds(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// Nearest-rank quantile of \p V (copied; sorted here).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * V.size()));
  return V[std::min(V.size(), std::max<size_t>(Rank, 1)) - 1];
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

//===----------------------------------------------------------------------===//
// Passes
//===----------------------------------------------------------------------===//

std::vector<core::Verdict>
verdicts(const std::vector<engine::QueryResult> &Out) {
  std::vector<core::Verdict> V;
  for (const engine::QueryResult &R : Out)
    V.push_back(R.Status == engine::QueryStatus::Ok ? R.V
                                                    : core::Verdict::Unknown);
  return V;
}

/// The order pass \p PassNo runs \p Ids in: pass 0 keeps it, every
/// later pass has its own seeded shuffle, so a run averages over the
/// neighbours each query has instead of measuring one arrangement.
std::vector<size_t> passOrder(std::vector<size_t> Ids, uint64_t Seed,
                              unsigned PassNo) {
  if (PassNo) {
    SplitMix64 Rng = SplitMix64::forStream(Seed, 2 + PassNo);
    for (size_t I = Ids.size(); I > 1; --I)
      std::swap(Ids[I - 1], Ids[Rng.below(I)]);
  }
  return Ids;
}

std::vector<size_t> allQueries(const Inputs &In) {
  std::vector<size_t> Ids(In.Queries.size());
  for (size_t I = 0; I != Ids.size(); ++I)
    Ids[I] = I;
  return Ids;
}

/// One sequential pass of the query path over the queries \p Ids, in
/// that order. Every pass keeps its verdicts and times, in the order of
/// Ids. Only a pass that the checks or the per-layer metrics read keeps
/// its full outcomes (with countermodels), indexed by query; those
/// passes run every query. So memory does not grow with the number of
/// passes a machine fits.
struct SeqPass {
  std::vector<size_t> Ids;
  std::vector<Outcome> Out; ///< By query; empty unless kept.
  std::vector<core::Verdict> V;
  std::vector<double> Ms;
  uint64_t ParseErrors = 0;
  double Seconds = 0;
};

SeqPass runSeqPass(QueryPath &D, const Inputs &In, std::vector<size_t> Ids,
                   SpanBuffer *Spans, bool Keep) {
  SeqPass P;
  P.Ids = std::move(Ids);
  std::vector<Outcome> Out;
  Out.reserve(P.Ids.size());
  D.clearCache();
  Clock::time_point T0 = Clock::now();
  for (size_t I : P.Ids)
    Out.push_back(
        D.run(In.Queries[I].Text, static_cast<uint32_t>(I), Spans, Keep));
  P.Seconds = seconds(T0, Clock::now());
  for (const Outcome &O : Out) {
    P.V.push_back(O.V);
    P.Ms.push_back(O.Ms);
    P.ParseErrors += O.S == Stop::ParseError;
  }
  if (Keep) {
    P.Out.resize(In.Queries.size());
    for (size_t K = 0; K != P.Ids.size(); ++K)
      P.Out[P.Ids[K]] = std::move(Out[K]);
  }
  return P;
}

/// vc-batch: one pass is one BatchProver::run call over every query,
/// as slp-batch makes it. Every verdict arrives when run() returns, so
/// each query's time to verdict is the pass time. Each pass gets a
/// fresh engine, so its cache starts cold and re-issued queries hit
/// within the pass. Each pass also gets its own seeded order (pass 0
/// keeps the inputs' order), so one run averages the load balance of
/// many orders instead of measuring one.
struct EnginePass {
  std::vector<engine::QueryResult> Results; ///< Empty unless kept.
  std::vector<core::Verdict> V;             ///< In query order.
  uint64_t ParseErrors = 0;
  double Seconds = 0;
  engine::BatchStats Stats;
};

EnginePass runEnginePass(const Inputs &In, uint64_t Seed, unsigned PassNo,
                         const engine::BatchOptions &Base, unsigned DeadlineMs,
                         Watchdog &Dog, SpanBuffer *Spans, bool Keep) {
  const size_t N = In.Queries.size();
  const std::vector<size_t> Order = passOrder(allQueries(In), Seed, PassNo);
  std::vector<core::ProofTask> Tasks;
  for (size_t I : Order)
    Tasks.push_back({In.Queries[I].Text, "", 0});

  EnginePass P;
  P.Results.resize(N);
  CancelToken Token;
  engine::BatchOptions Opts = Base;
  Opts.Cancel = &Token;
  Clock::time_point T0 = Clock::now();
  Dog.arm(&Token, T0 + std::chrono::milliseconds(DeadlineMs));
  engine::BatchProver Engine(Opts);
  std::vector<engine::QueryResult> R;
  {
    SpanScope S(Spans, "BatchProver::run", PassNo);
    R = Engine.run(Tasks);
  }
  P.Seconds = seconds(T0, Clock::now());
  Dog.disarm();
  for (size_t J = 0; J != N; ++J)
    P.Results[Order[J]] = std::move(R[J]);
  P.Stats = Engine.stats();
  P.V = verdicts(P.Results);
  P.ParseErrors = P.Stats.ParseErrors;
  if (!Keep)
    std::vector<engine::QueryResult>().swap(P.Results);
  return P;
}

/// Runs passes until about \p Budget seconds are used: untraced ones
/// into \p Plain and, when \p Trace is set, traced ones into \p Traced,
/// alternating so that drift in machine speed hits both alike. The
/// first round always runs, and the second whenever time is left (it
/// may run fewer queries than the first); a further round starts only
/// if the previous one would still fit. \p Pass(Traced) runs one pass,
/// and \p Between() runs after each round, outside the pass times.
template <typename PassT, typename Fn, typename BetweenFn>
void repeatPasses(double Budget, bool Trace, std::vector<PassT> &Plain,
                  std::vector<PassT> &Traced, Fn Pass, BetweenFn Between) {
  Clock::time_point T0 = Clock::now();
  double Round = 0;
  for (unsigned R = 0;; ++R) {
    if (R && seconds(T0, Clock::now()) + (R > 1 ? Round : 0) >= Budget)
      break;
    Plain.push_back(Pass(false));
    Round = Plain.back().Seconds;
    if (Trace) {
      Traced.push_back(Pass(true));
      Round += Traced.back().Seconds;
    }
    Between();
  }
}

/// Work counters summed over one pass of the query path.
struct PassCounters {
  uint64_t Attempted = 0, Decided = 0, Deadline = 0, FuelOut = 0, Parse = 0;
  uint64_t PresolveCalls = 0, Presolved = 0, Proved = 0;
  uint64_t Outer = 0, Inner = 0, ModelAttempts = 0;
  uint64_t Given = 0, Derived = 0, Kept = 0, SubChecks = 0, SubScan = 0;
  uint64_t SubsumedFwd = 0, SubsumedBwd = 0, Demodulated = 0;
  uint64_t OrderHits = 0, OrderMisses = 0;
};

PassCounters countPass(const std::vector<Outcome> &Out, bool Presolve) {
  PassCounters C;
  for (const Outcome &O : Out) {
    ++C.Attempted;
    C.Decided += O.V != core::Verdict::Unknown;
    C.Deadline += O.S == Stop::Deadline;
    C.FuelOut += O.S == Stop::Fuel;
    C.Parse += O.S == Stop::ParseError;
    C.PresolveCalls += Presolve && O.S != Stop::ParseError;
    C.Presolved += O.Presolved;
    // A query stopped by the deadline did an amount of work that
    // depends on the machine; it shows in undecided.deadline only, so
    // the counters repeat exactly.
    if (!O.Proved || O.S == Stop::Deadline)
      continue;
    ++C.Proved;
    C.Outer += O.Prove.OuterIterations;
    C.Inner += O.Prove.InnerIterations;
    C.ModelAttempts += O.Prove.ModelAttempts;
    C.Given += O.Prove.FuelUsed;
    C.Derived += O.Sat.Derived;
    C.Kept += O.Sat.Kept;
    C.SubChecks += O.Sat.SubChecks;
    C.SubScan += O.Sat.SubScanBaseline;
    C.SubsumedFwd += O.Sat.SubsumedFwd;
    C.SubsumedBwd += O.Sat.SubsumedBwd;
    C.Demodulated += O.Sat.Demodulated;
    C.OrderHits += O.Sat.OrderCacheHits;
    C.OrderMisses += O.Sat.OrderCacheMisses;
  }
  return C;
}

//===----------------------------------------------------------------------===//
// Checks
//===----------------------------------------------------------------------===//

class Checker {
public:
  void fail(std::string Msg) {
    if (Failures < 20)
      std::fprintf(stderr, "check failed: %s\n", Msg.c_str());
    ++Failures;
  }
  uint64_t failures() const { return Failures; }

private:
  uint64_t Failures = 0;
};

std::string describe(const Query &Q, size_t I) {
  return "query " + std::to_string(I) + " (row " + std::to_string(Q.Row) +
         ", index " + std::to_string(Q.Index) + ")";
}

/// The Berdine baseline's answers, for the agreement check.
struct BerdineRun {
  std::vector<std::pair<size_t, core::Verdict>> Decided; ///< (query, verdict)
  uint64_t Undecided = 0;
  double Seconds = 0; ///< Time spent in BerdineProver::prove.
};

BerdineRun runBerdine(const Inputs &In, const std::vector<size_t> &Queries,
                      uint64_t Budget) {
  BerdineRun R;
  core::ProverSession Tables;
  for (size_t I : Queries) {
    Tables.reset();
    sl::ParseResult P = sl::parseEntailment(Tables.terms(), In.Queries[I].Text);
    if (!P.ok()) {
      ++R.Undecided; // The SLP passes report the parse error.
      continue;
    }
    baselines::BerdineProver B(Tables.terms());
    Fuel F(Budget);
    Clock::time_point T0 = Clock::now();
    baselines::BaselineVerdict V = B.prove(*P.Value, F);
    R.Seconds += seconds(T0, Clock::now());
    if (V == baselines::BaselineVerdict::Unknown)
      ++R.Undecided;
    else
      R.Decided.emplace_back(I, V == baselines::BaselineVerdict::Valid
                                    ? core::Verdict::Valid
                                    : core::Verdict::Invalid);
  }
  return R;
}

/// SLP must agree with Berdine wherever both decide.
void checkBerdine(const Inputs &In, const BerdineRun &B,
                  const std::vector<core::Verdict> &Slp, Checker &Check) {
  for (const auto &[I, V] : B.Decided)
    if (Slp[I] != core::Verdict::Unknown && Slp[I] != V)
      Check.fail(describe(In.Queries[I], I) + ": slp says " +
                 core::verdictName(Slp[I]) + ", berdine says " +
                 core::verdictName(V));
}

/// Every Invalid verdict of \p Out must carry a countermodel that
/// sl::isCounterexample accepts. A cache hit carries none; the proof
/// that filled the cache was checked, and checkSame pins the rest.
void checkCounterexamples(QueryPath &D, const Inputs &In,
                          const std::vector<Outcome> &Out, Checker &Check) {
  for (size_t I = 0; I != Out.size(); ++I)
    if (Out[I].V == core::Verdict::Invalid && !Out[I].FromCache &&
        !D.checkCounterexample(In.Queries[I].Text, Out[I]))
      Check.fail(describe(In.Queries[I], I) +
                 ": invalid verdict without a valid countermodel");
}

/// Known answers (VCs are Valid, regression queries match their label).
void checkExpected(const Inputs &In, const std::vector<core::Verdict> &V,
                   const char *Where, Checker &Check) {
  for (size_t I = 0; I != V.size(); ++I)
    if (In.Queries[I].Expected && V[I] != *In.Queries[I].Expected)
      Check.fail(describe(In.Queries[I], I) + " in " + Where + ": got " +
                 core::verdictName(V[I]) + ", expected " +
                 core::verdictName(*In.Queries[I].Expected));
}

void checkSame(const std::vector<core::Verdict> &A,
               const std::vector<core::Verdict> &B, const Inputs &In,
               const char *What, Checker &Check) {
  if (A.size() != B.size()) {
    Check.fail(std::string(What) + ": result counts differ");
    return;
  }
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I] != B[I])
      Check.fail(describe(In.Queries[I], I) + ": " + What + " gives " +
                 core::verdictName(B[I]) + ", reference " +
                 core::verdictName(A[I]));
}

/// The verdicts of a pass that ran every query, by query.
std::vector<core::Verdict> verdictsOf(const SeqPass &P) {
  std::vector<core::Verdict> V(P.Ids.size());
  for (size_t K = 0; K != P.Ids.size(); ++K)
    V[P.Ids[K]] = P.V[K];
  return V;
}

/// A pass over some of the queries must repeat the reference verdicts.
void checkSame(const std::vector<core::Verdict> &Reference, const SeqPass &P,
               const Inputs &In, const char *What, Checker &Check) {
  for (size_t K = 0; K != P.Ids.size(); ++K)
    if (P.V[K] != Reference[P.Ids[K]])
      Check.fail(describe(In.Queries[P.Ids[K]], P.Ids[K]) + ": " + What +
                 " gives " + core::verdictName(P.V[K]) + ", reference " +
                 core::verdictName(Reference[P.Ids[K]]));
}

/// The canonical-key hash of \p Text, computed by the benchmark itself.
uint64_t canonicalHash(core::ProverSession &Tables, const std::string &Text) {
  Tables.reset();
  sl::ParseResult P = sl::parseEntailment(Tables.terms(), Text);
  return P.ok() ? engine::CanonicalQuery::of(*P.Value).hash() : 0;
}

double peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

/// Per-layer time metrics from the merged self times of every traced
/// pass: the mean self time per call, in microseconds.
double meanUs(const std::map<std::string, SpanBuffer::Layer> &L,
              std::initializer_list<const char *> Names) {
  double Seconds = 0;
  uint64_t Calls = 0;
  for (const char *N : Names)
    if (auto It = L.find(N); It != L.end()) {
      Seconds += It->second.SelfSeconds;
      Calls += It->second.Calls;
    }
  return ratio(Seconds * 1e6, Calls);
}

void merge(std::map<std::string, SpanBuffer::Layer> &Into,
           const std::map<std::string, SpanBuffer::Layer> &From) {
  for (const auto &[Name, L] : From) {
    SpanBuffer::Layer &To = Into[Name];
    To.Calls += L.Calls;
    To.SelfSeconds += L.SelfSeconds;
    To.SelfUs.insert(To.SelfUs.end(), L.SelfUs.begin(), L.SelfUs.end());
  }
}

void printJson(bool Correct, uint64_t Attempted, uint64_t Failed,
               const std::vector<Metric> &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  for (size_t I = 0; I != Metrics.size(); ++I) {
    double V = std::isfinite(Metrics[I].Value) ? Metrics[I].Value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), V, Metrics[I].Unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseOptions(Argc, Argv, O))
    return 2;
  const WorkloadSpec &W = *O.W;
  const bool Batch = W.Kind == WorkloadKind::VcBatch;
  const bool Trace = O.Trace == 1;
  const uint64_t CorpusSeed = O.CorpusSeed.value_or(W.CorpusSeed);
  const unsigned Scale = O.Scale.value_or(W.Scale);
  const unsigned Jobs =
      Batch ? std::clamp(std::thread::hardware_concurrency(), 1u, 4u) : 1u;
  PathConfig PC;
  PC.Fuel = W.Fuel;
  PC.Presolve = W.Presolve;
  PC.Cache = Batch; // The sequential reference pass of vc-batch caches
                    // like the engine it checks.
  PC.Deadline = Batch ? std::chrono::milliseconds(0)
                      : std::chrono::milliseconds(W.DeadlineMs);

  //--- Set-up: inputs, VC generation, session/engine construction. ------
  // setup_s is the median of set-ups spread over the run: NumSetups
  // before the timed passes, one after each second of them, and
  // NumSetups after the reference answers. The machine's speed drifts
  // over seconds, so set-ups made back to back would all share one
  // speed. Every set-up builds the same inputs; the workload keeps the
  // first, and the others build throwaway copies.
  Inputs In;
  std::unique_ptr<QueryPath> QP;
  std::vector<double> SetupSeconds, VcGenSeconds;
  Clock::time_point LastSetUp;
  auto SetUp = [&](Inputs &Into, std::unique_ptr<QueryPath> &Path) {
    Clock::time_point T0 = Clock::now();
    std::optional<std::string> Err = makeInputs(
        W, CorpusSeed, Scale, O.Seed, "data/regression.slp", Into);
    Path = std::make_unique<QueryPath>(PC);
    LastSetUp = Clock::now();
    SetupSeconds.push_back(seconds(T0, LastSetUp));
    VcGenSeconds.push_back(Into.VcGenSeconds);
    return Err;
  };
  // The first set-up's success stands for these: they read and build
  // the same inputs.
  auto SpareSetUps = [&](unsigned N) {
    for (unsigned S = 0; S != N; ++S) {
      Inputs Spare;
      std::unique_ptr<QueryPath> SparePath;
      SetUp(Spare, SparePath);
    }
  };
  if (std::optional<std::string> Err = SetUp(In, QP)) {
    std::fprintf(stderr, "slp-perfbench: %s\n", Err->c_str());
    return 1;
  }
  SpareSetUps(NumSetups - 1);
  auto BetweenRounds = [&] {
    if (seconds(LastSetUp, Clock::now()) >= 1.0)
      SpareSetUps(1);
  };
  engine::BatchOptions BO;
  BO.Jobs = Jobs;
  BO.CacheEnabled = true;
  BO.Presolve = W.Presolve;
  BO.FuelPerQuery = W.Fuel;
  Watchdog PassDog;

  // vc-batch: one untimed pass at Jobs = N first; the workers' first
  // allocations and page faults would otherwise land in the first timed
  // pass.
  std::vector<core::Verdict> JobsN;
  if (Batch)
    JobsN = runEnginePass(In, O.Seed, 0, BO, W.DeadlineMs, PassDog, nullptr,
                          false)
                .V;

  //--- Timed passes; in trace mode traced ones alternate with them. -----
  std::vector<SpanBuffer> Buffers;
  std::vector<SeqPass> Seq, SeqTraced;
  std::vector<EnginePass> Eng, EngTraced;
  // Kept in full: the first untraced pass (its countermodels are
  // checked) and the first traced one (the per-layer metrics read it).
  bool KeepPlain = true, KeepTraced = true;
  unsigned PassNo = 0;
  // Sequential workloads: the first round runs every query; the later
  // ones run the queries the first untraced pass timed at RepeatCapMs
  // or less.
  std::vector<size_t> Repeat;
  if (!Batch)
    repeatPasses(
        O.Seconds, Trace, Seq, SeqTraced,
        [&](bool Traced) {
          if (Traced)
            Buffers.emplace_back();
          const bool First = Traced ? KeepTraced : KeepPlain;
          SeqPass P = runSeqPass(
              *QP, In, passOrder(First ? allQueries(In) : Repeat, O.Seed,
                                 PassNo++),
              Traced ? &Buffers.back() : nullptr,
              std::exchange(Traced ? KeepTraced : KeepPlain, false));
          if (!Traced && First)
            for (size_t I = 0; I != In.Queries.size(); ++I)
              if (P.Out[I].Ms <= RepeatCapMs)
                Repeat.push_back(I);
          return P;
        },
        BetweenRounds);
  else
    repeatPasses(
        O.Seconds, Trace, Eng, EngTraced,
        [&](bool Traced) {
          if (Traced)
            Buffers.emplace_back();
          return runEnginePass(In, O.Seed, PassNo++, BO, W.DeadlineMs,
                               PassDog, Traced ? &Buffers.back() : nullptr,
                               Traced && std::exchange(KeepTraced, false));
        },
        BetweenRounds);
  // Read before the reference answers, so that peak_rss_mb covers the
  // workload's own set-up and passes and none of the reference runs.
  const double PeakRssMb = peakRssMb();

  //--- Reference answers, untimed. ----------------------------------------
  // Berdine decides each query of the random tables once. vc-batch
  // skips it: every answer there is known, and on the larger clones
  // Berdine spends seconds running out of fuel.
  std::vector<size_t> BerdineQueries;
  if (!Batch)
    for (size_t I = 0; I != In.Queries.size(); ++I)
      BerdineQueries.push_back(I);
  const BerdineRun Berdine = runBerdine(In, BerdineQueries, W.Fuel);
  // vc-batch: the same queries through the engine at Jobs = 1, and
  // through the sequential query path with a cache. The latter is the
  // layer pass whose counters and spans give vc-batch's per-layer
  // metrics, so it is traced in trace mode.
  std::vector<core::Verdict> JobsOne;
  SeqPass VcReference;
  if (Batch) {
    engine::BatchOptions One = BO;
    One.Jobs = 1;
    engine::BatchProver Sequential(One);
    std::vector<core::ProofTask> Tasks;
    for (const Query &Q : In.Queries)
      Tasks.push_back({Q.Text, "", 0});
    JobsOne = verdicts(Sequential.run(Tasks));
    if (Trace)
      Buffers.emplace_back();
    VcReference = runSeqPass(*QP, In, allQueries(In),
                             Trace ? &Buffers.back() : nullptr, true);
  }
  SpareSetUps(NumSetups);

  //--- Checks. -------------------------------------------------------------
  Checker Check;
  std::vector<core::Verdict> Reference =
      Batch ? Eng.front().V : verdictsOf(Seq.front());
  if (O.InjectWrongVerdict) {
    // A fabricated wrong answer: the first Valid verdict becomes
    // Invalid, with no countermodel to back it. The checks must reject
    // it on every workload.
    auto It = std::find(Reference.begin(), Reference.end(),
                        core::Verdict::Valid);
    if (It != Reference.end()) {
      *It = core::Verdict::Invalid;
      if (!Batch)
        Seq.front().Out[It - Reference.begin()].V = *It;
    }
  }
  // Every pass, traced or not, must repeat the first pass's verdicts.
  for (size_t P = 1; P < Seq.size(); ++P)
    checkSame(Reference, Seq[P], In, "a later pass", Check);
  for (const SeqPass &P : SeqTraced)
    checkSame(Reference, P, In, "a traced pass", Check);
  for (size_t P = 1; P < Eng.size(); ++P)
    checkSame(Reference, Eng[P].V, In, "a later pass", Check);
  for (const EnginePass &P : EngTraced)
    checkSame(Reference, P.V, In, "a traced pass", Check);
  if (Batch) {
    checkSame(Reference, JobsOne, In, "Jobs=1", Check);
    checkSame(Reference, JobsN, In, "the warm-up pass", Check);
    checkSame(Reference, VcReference, In, "the sequential query path",
              Check);
    checkExpected(In, Reference, "BatchProver::run", Check);
  }
  checkCounterexamples(*QP, In, Batch ? VcReference.Out : Seq.front().Out,
                       Check);
  checkBerdine(In, Berdine, Reference, Check);
  const SeqPass &LayerPass =
      Batch ? VcReference : (Trace ? SeqTraced.front() : Seq.front());

  //--- Metrics. -----------------------------------------------------------
  // Attempted counts every query of the timed untraced passes;
  // queries_per_s and decided_share come from the passes that ran every
  // query.
  uint64_t Attempted = 0, FullQueries = 0, Decided = 0, ParseErrors = 0;
  std::vector<double> FullSeconds;
  // A query's time to verdict is the median of its times over the
  // run's passes that ran it, so a preempted pass does not become the
  // maximum; the percentiles are over queries.
  std::vector<std::vector<double>> PerQuery(In.Queries.size());
  auto Count = [&](const std::vector<core::Verdict> &V, uint64_t Errors,
                   double Seconds) {
    Attempted += V.size();
    ParseErrors += Errors;
    if (V.size() != In.Queries.size())
      return;
    FullSeconds.push_back(Seconds);
    FullQueries += V.size();
    Decided +=
        V.size() - std::count(V.begin(), V.end(), core::Verdict::Unknown);
  };
  for (const SeqPass &P : Seq) {
    Count(P.V, P.ParseErrors, P.Seconds);
    for (size_t K = 0; K != P.Ids.size(); ++K)
      PerQuery[P.Ids[K]].push_back(P.Ms[K]);
  }
  for (const EnginePass &P : Eng) {
    Count(P.V, P.ParseErrors, P.Seconds);
    for (std::vector<double> &Times : PerQuery)
      Times.push_back(P.Seconds * 1e3);
  }
  std::vector<double> Latencies;
  for (const std::vector<double> &Times : PerQuery)
    Latencies.push_back(quantile(Times, 0.5));
  // The median full pass is the one a slow first pass or a preempted
  // one cannot move.
  const double Qps = ratio(In.Queries.size(), quantile(FullSeconds, 0.5));

  std::vector<Metric> Metrics;
  if (!Trace) {
    Metrics = {
        {"setup_s", quantile(SetupSeconds, 0.5), "s"},
        {"queries_per_s", Qps, "1/s"},
        {"query_p50_ms", quantile(Latencies, 0.50), "ms"},
        {"query_p99_ms", quantile(Latencies, 0.99), "ms"},
        {"query_max_ms", quantile(Latencies, 1.0), "ms"},
        {"decided_share", ratio(Decided, FullQueries), "share"},
        {"peak_rss_mb", PeakRssMb, "MB"},
    };
  } else {
    std::map<std::string, SpanBuffer::Layer> L;
    for (const SpanBuffer &B : Buffers)
      merge(L, B.selfTimes());
    const PassCounters C = countPass(LayerPass.Out, W.Presolve);

    // Tracing overhead: the median traced pass against the median
    // untraced one, over passes that ran the same queries (the later
    // rounds' when there are any), so the ratio of pass times is the
    // ratio of queries_per_s.
    std::vector<double> PlainSeconds, TracedSeconds;
    for (const SeqPass &P : Seq)
      if (P.Ids.size() == SeqTraced.back().Ids.size())
        PlainSeconds.push_back(P.Seconds);
    for (const SeqPass &P : SeqTraced)
      if (P.Ids.size() == SeqTraced.back().Ids.size())
        TracedSeconds.push_back(P.Seconds);
    for (const EnginePass &P : Eng)
      PlainSeconds.push_back(P.Seconds);
    uint64_t Hits = 0, Misses = 0, Steals = 0, StealAttempts = 0,
             DupProves = 0;
    // The split inside run(), from BatchStats: each phase's worker
    // seconds as a share of workers x wall; the rest is idle time.
    double Parse = 0, Presolve = 0, Prove = 0, CacheTime = 0,
           WorkerSeconds = 0;
    for (const EnginePass &P : EngTraced) {
      TracedSeconds.push_back(P.Seconds);
      Hits += P.Stats.CacheHits;
      Misses += P.Stats.CacheMisses;
      Parse += P.Stats.ParseSeconds;
      Presolve += P.Stats.PresolveSeconds;
      Prove += P.Stats.ProveSeconds;
      CacheTime += P.Stats.CacheSeconds;
      WorkerSeconds += P.Stats.WorkersUsed * P.Stats.Seconds;
    }
    const double Busy = Parse + Presolve + Prove + CacheTime;
    if (Batch) {
      // Counted on the first traced pass, against canonical keys the
      // benchmark computes itself: a proof of a key already proved in
      // the same pass is duplicate work.
      const EnginePass &P = EngTraced.front();
      Steals = P.Stats.Steals;
      StealAttempts = P.Stats.StealAttempts;
      std::unordered_map<uint64_t, unsigned> Proofs;
      std::vector<uint64_t> Keys;
      core::ProverSession Tables;
      for (const Query &Q : In.Queries)
        Keys.push_back(canonicalHash(Tables, Q.Text));
      for (size_t I = 0; I != P.Results.size(); ++I) {
        const engine::QueryResult &R = P.Results[I];
        if (R.Status == engine::QueryStatus::Ok && !R.FromCache &&
            !R.Presolved && Proofs[Keys[I]]++)
          ++DupProves;
      }
    }
    const double Overhead = 1.0 - ratio(quantile(PlainSeconds, 0.5),
                                        quantile(TracedSeconds, 0.5));

    std::vector<double> ProveUs;
    if (auto It = L.find("rebuild+prove"); It != L.end())
      ProveUs = It->second.SelfUs;

    // The five slowest queries of the layer pass, slowest first.
    std::vector<size_t> ByTime(LayerPass.Out.size());
    for (size_t I = 0; I != ByTime.size(); ++I)
      ByTime[I] = I;
    const size_t Shown = std::min<size_t>(5, ByTime.size());
    std::partial_sort(ByTime.begin(), ByTime.begin() + Shown, ByTime.end(),
                      [&](size_t A, size_t B) {
                        return LayerPass.Out[A].Ms > LayerPass.Out[B].Ms;
                      });
    core::ProverSession Tables;
    for (size_t K = 0; K != Shown; ++K) {
      const Outcome &QO = LayerPass.Out[ByTime[K]];
      const Query &Q = In.Queries[ByTime[K]];
      std::printf("slow query %zu: row %u index %u key %016llx verdict %s "
                  "stop %s %.3f ms given %llu inferences %llu\n",
                  K + 1, Q.Row, Q.Index,
                  static_cast<unsigned long long>(
                      canonicalHash(Tables, Q.Text)),
                  core::verdictName(QO.V), stopName(QO.S), QO.Ms,
                  static_cast<unsigned long long>(QO.Prove.FuelUsed),
                  static_cast<unsigned long long>(QO.Sat.Derived));
    }
    const Outcome &SO = LayerPass.Out[ByTime.front()];
    const Query &SQ = In.Queries[ByTime.front()];
    for (const auto &[Name, Layer] : L)
      std::printf("span %-16s calls %8llu self %10.6f s\n", Name.c_str(),
                  static_cast<unsigned long long>(Layer.Calls),
                  Layer.SelfSeconds);

    Metrics = {
        {"sl.parse_us", meanUs(L, {"parse"}), "us"},
        {"analysis.presolve_us", meanUs(L, {"presolve"}), "us"},
        {"analysis.presolve_decided_ratio",
         ratio(C.Presolved, C.PresolveCalls), "ratio"},
        {"engine.canon_us", meanUs(L, {"canonicalize"}), "us"},
        {"engine.cache_us", meanUs(L, {"cache-lookup", "cache-insert"}),
         "us"},
        {"engine.cache_hit_ratio", ratio(Hits, Hits + Misses), "ratio"},
        {"engine.dup_proves", static_cast<double>(DupProves), "count"},
        {"engine.steals", static_cast<double>(Steals), "count"},
        {"engine.steal_attempts", static_cast<double>(StealAttempts),
         "count"},
        {"engine.run_parse_share", ratio(Parse, WorkerSeconds), "share"},
        {"engine.run_presolve_share", ratio(Presolve, WorkerSeconds),
         "share"},
        {"engine.run_prove_share", ratio(Prove, WorkerSeconds), "share"},
        {"engine.run_cache_share", ratio(CacheTime, WorkerSeconds), "share"},
        {"engine.worker_idle_share",
         Batch ? 1.0 - ratio(Busy, WorkerSeconds) : 0.0, "share"},
        {"engine.run_ms", meanUs(L, {"BatchProver::run"}) / 1e3, "ms"},
        {"core.prove_p50_us", quantile(ProveUs, 0.50), "us"},
        {"core.prove_p99_us", quantile(ProveUs, 0.99), "us"},
        {"core.outer_iterations", static_cast<double>(C.Outer), "count"},
        {"core.inner_iterations", static_cast<double>(C.Inner), "count"},
        {"core.model_attempts", static_cast<double>(C.ModelAttempts),
         "count"},
        {"sat.given_clauses", static_cast<double>(C.Given), "count"},
        {"sat.inferences", static_cast<double>(C.Derived), "count"},
        {"sat.inferences_per_given", ratio(C.Derived, C.Given), "ratio"},
        {"sat.kept_ratio", ratio(C.Kept, C.Derived), "ratio"},
        {"sat.sub_checks", static_cast<double>(C.SubChecks), "count"},
        {"sat.sub_pruning", ratio(C.SubScan, C.SubChecks), "ratio"},
        {"sat.subsumed_fwd", static_cast<double>(C.SubsumedFwd), "count"},
        {"sat.subsumed_bwd", static_cast<double>(C.SubsumedBwd), "count"},
        {"sat.demodulated", static_cast<double>(C.Demodulated), "count"},
        {"sat.order_memo_hit_ratio",
         ratio(C.OrderHits, C.OrderHits + C.OrderMisses), "ratio"},
        {"baselines.berdine_s", Berdine.Seconds, "s"},
        {"baselines.berdine_undecided_share",
         ratio(Berdine.Undecided, BerdineQueries.size()), "share"},
        {"symexec.vcgen_ms", quantile(VcGenSeconds, 0.5) * 1e3, "ms"},
        {"undecided_share", ratio(C.Attempted - C.Decided, C.Attempted),
         "share"},
        {"undecided.deadline", static_cast<double>(C.Deadline), "count"},
        {"undecided.fuel", static_cast<double>(C.FuelOut), "count"},
        {"undecided.parse", static_cast<double>(C.Parse), "count"},
        {"slowest.ms", SO.Ms, "ms"},
        {"slowest.row", static_cast<double>(SQ.Row), "count"},
        {"slowest.index", static_cast<double>(SQ.Index), "count"},
        {"slowest.given_clauses", static_cast<double>(SO.Prove.FuelUsed),
         "count"},
        {"slowest.inferences", static_cast<double>(SO.Sat.Derived), "count"},
        {"trace.overhead_share", Overhead, "share"},
    };

    std::error_code Ignored; // A failure shows when the file is written.
    std::filesystem::create_directories(".bench_build/perfbench-traces",
                                        Ignored);
    const std::string Path =
        std::string(".bench_build/perfbench-traces/") + W.Name + ".json";
    // The first traced pass; for vc-batch, the reference pass and every
    // traced engine pass (one run() span each).
    if (!writeChromeTrace(Path, Buffers, Batch ? Buffers.size() : 1))
      std::fprintf(stderr, "slp-perfbench: cannot write %s\n", Path.c_str());
    else
      std::printf("spans written to %s\n", Path.c_str());
  }

  for (const Metric &M : Metrics)
    std::printf("%-36s %.6g %s\n", M.Name.c_str(), M.Value, M.Unit);
  const PassCounters Kinds = countPass(
      Batch ? VcReference.Out : Seq.front().Out, W.Presolve);
  std::printf("workload %s: %llu queries in %zu timed passes (%zu of "
              "every query), %llu undecided in those (one pass: %llu "
              "deadline, %llu fuel, %llu parse), %llu failed checks\n",
              W.Name, static_cast<unsigned long long>(Attempted),
              Batch ? Eng.size() : Seq.size(), FullSeconds.size(),
              static_cast<unsigned long long>(FullQueries - Decided),
              static_cast<unsigned long long>(Kinds.Deadline),
              static_cast<unsigned long long>(Kinds.FuelOut),
              static_cast<unsigned long long>(Kinds.Parse),
              static_cast<unsigned long long>(Check.failures()));
  const uint64_t Failed = Check.failures() + ParseErrors;
  printJson(Failed == 0, Attempted, Failed, Metrics);
  return Failed == 0 ? 0 : 1;
}
