//===- engine/BatchProver.cpp - Concurrent batch proving ----------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "engine/BatchProver.h"

#include "analysis/StaticAnalyzer.h"
#include "engine/StealPool.h"
#include "engine/ThreadPool.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "sl/Parser.h"
#include "support/Timer.h"

#include <algorithm>
#include <numeric>

using namespace slp;
using namespace slp::engine;

namespace {

/// Cached references to the per-phase latency histograms (registry
/// objects never move, so one lookup serves the process).
struct PhaseHistograms {
  obs::Histogram &Parse;
  obs::Histogram &Presolve;
  obs::Histogram &Canon;
  obs::Histogram &CacheNs;
  obs::Histogram &Prove;
};

PhaseHistograms &phaseHistograms() {
  static PhaseHistograms H{
      obs::metrics().histogram("engine.phase.parse_ns"),
      obs::metrics().histogram("engine.phase.presolve_ns"),
      obs::metrics().histogram("engine.phase.canon_ns"),
      obs::metrics().histogram("engine.phase.cache_ns"),
      obs::metrics().histogram("engine.phase.prove_ns")};
  return H;
}

/// Holds this worker's ResultCache claim on one key: publish() ends it
/// with the verdict; any other exit (the backend-path ParseError
/// return, an exception) abandons it, so a waiter on the same key
/// claims it instead of waiting forever.
class CacheClaim {
public:
  CacheClaim(ResultCache &Cache, const CanonicalQuery &Q)
      : Cache(&Cache), Q(Q) {}
  CacheClaim(const CacheClaim &) = delete;
  CacheClaim &operator=(const CacheClaim &) = delete;
  ~CacheClaim() {
    if (Cache)
      Cache->abandon(Q);
  }

  void publish(core::Verdict V) {
    Cache->insert(Q, V);
    Cache = nullptr;
  }

private:
  ResultCache *Cache;
  const CanonicalQuery &Q;
};

} // namespace

BatchProver::BatchProver(BatchOptions Opts)
    : Opts(Opts), Cache(Opts.Cache) {}

BatchProver::Worker::Worker(const BatchOptions &Opts)
    : Session(Opts.Prover) {
  if (Opts.Backend == BackendKind::Slp) {
    // Fast path: the session itself proves; no backend object, no
    // canonical-text round trip.
    Tally.Name = backendKindName(BackendKind::Slp);
    return;
  }
  if (Opts.Backend == BackendKind::Portfolio) {
    // The per-query Fuel handed to prove() carries the budget; the
    // portfolio derives each member's budget from it.
    PortfolioOptions PO;
    PO.Backends = Opts.Portfolio;
    PO.Prover = Opts.Prover;
    auto P = std::make_unique<PortfolioProver>(std::move(PO));
    Portfolio = P.get();
    Backend = std::move(P);
    return;
  }
  Backend = makeBackend(Opts.Backend, Opts.Prover);
  Tally.Name = Backend->name();
}

std::vector<BackendTally> BatchProver::Worker::tallies() const {
  if (Portfolio)
    return Portfolio->tallies();
  return {Tally};
}

QueryResult BatchProver::proveOne(const core::ProofTask &Task, size_t Index,
                                  Worker &W) {
  QueryResult Out;
  PhaseHistograms &PH = phaseHistograms();
  obs::TraceSpan QuerySpan("query");
  if (!Task.Name.empty())
    QuerySpan.arg("name", Task.Name);

  // Parse once, straight into the worker's session table on top of the
  // baseline checkpoint. TermTable is not thread safe, but sessions
  // are worker-local; the rewind below keeps symbol ids (and thus the
  // term ordering the calculus uses) independent of scheduling
  // history.
  W.Session.reset();
  sl::ParseResult P = [&] {
    obs::TraceSpan Span("parse");
    ScopedTimer ST(PH.Parse, &W.ParseSeconds);
    return sl::parseEntailment(W.Session.terms(), Task.Text);
  }();
  if (!P.ok()) {
    Out.Status = QueryStatus::ParseError;
    Out.Error = P.Error->render();
    return Out;
  }

  // Static pre-solve: the polynomial analyzer runs on the parsed form,
  // ahead of canonicalization and the cache. It is sound, so a
  // definitive answer is the final verdict; Unknown falls through at
  // the cost of one cheap closure pass.
  if (Opts.Presolve) {
    obs::TraceSpan Span("presolve");
    ScopedTimer ST(PH.Presolve, &W.PresolveSeconds);
    analysis::AnalysisResult A =
        analysis::analyze(W.Session.terms(), *P.Value);
    if (A.definitive()) {
      Out.V = A.V;
      Out.Presolved = true;
      Out.Backend = "presolve";
      Span.arg("verdict", std::string(core::verdictName(A.V)));
      Span.arg("reason", std::string(analysis::reasonName(A.R)));
      return Out;
    }
  }

  CanonicalQuery Q = [&] {
    obs::TraceSpan Span("canonicalize");
    ScopedTimer ST(PH.Canon);
    return CanonicalQuery::of(*P.Value);
  }();
  // Single flight: a miss claims the key. A key another worker claims
  // is set aside rather than waited for here, so this worker takes
  // other work while the claimant proves it.
  if (Opts.CacheEnabled) {
    ResultCache::Probe Found;
    {
      obs::TraceSpan Span("cache-lookup");
      ScopedTimer ST(PH.CacheNs, &W.CacheSeconds);
      Found = Cache.probe(Q);
      Span.arg("hit",
               static_cast<uint64_t>(Found.K == ResultCache::Probe::Hit));
    }
    if (Found.K == ResultCache::Probe::Pending) {
      // A placeholder: resolveLater fills in Results[Index].
      W.Later.push_back({Index, std::move(Q), std::move(Found)});
      return Out;
    }
    if (Found.K == ResultCache::Probe::Hit) {
      Out.V = Found.V;
      Out.FromCache = true;
      return Out;
    }
  }
  return proveCanonical(Task, Q, W);
}

QueryResult BatchProver::proveCanonical(const core::ProofTask &Task,
                                        const CanonicalQuery &Q, Worker &W) {
  QueryResult Out;
  PhaseHistograms &PH = phaseHistograms();
  // With the cache on, this worker claims Q: publish the verdict, or
  // abandon the claim on any other exit.
  std::optional<CacheClaim> Claim;
  if (Opts.CacheEnabled)
    Claim.emplace(Cache, Q);

  // Rewind the parse-local terms and re-materialize the canonical form
  // at the baseline, so the verdict is a pure function of the
  // canonical key (see the file comment in the header). The parsed
  // entailment dangles after the reset; only Q is used from here on.
  // The prove phase covers the rebuild, as before.
  W.Session.reset();
  double ProveTime = 0;
  {
    obs::TraceSpan Span("prove");
    ScopedTimer ST(PH.Prove, &W.ProveSeconds);
    Timer ProveTimer;
    sl::Entailment E = Q.rebuild(W.Session.terms());

    if (!W.Backend) {
      // Slp fast path: prove in the session directly.
      Fuel F = Opts.FuelPerQuery ? Fuel(Opts.FuelPerQuery) : Fuel();
      core::ProveResult R = W.Session.prove(E, F);
      ProveTime = ProveTimer.seconds();
      Out.V = R.V;
      Out.Stats = R.Stats;
      if (R.V != core::Verdict::Unknown)
        Out.Backend = W.Tally.Name;
    } else {
      // Backend path: hand the canonical form to the backend as text
      // (its own tables, its own parse), so racing members never touch
      // the worker session.
      core::ProofTask Canon{sl::str(W.Session.terms(), E), Task.Name, Task.Group};
      Fuel F = Opts.FuelPerQuery ? Fuel(Opts.FuelPerQuery) : Fuel();
      core::BackendResult BR = W.Backend->prove(Canon, F);
      ProveTime = ProveTimer.seconds();
      if (!BR.Parsed) {
        // Cannot happen for text we rendered ourselves, but surface it
        // rather than miscount.
        Out.Status = QueryStatus::ParseError;
        Out.Error = BR.Error;
        return Out;
      }
      Out.V = BR.V;
      Out.Stats = BR.Stats;
      // Per the header contract, Backend names a verdict's producer;
      // nobody vouches for Unknown (single backends name themselves in
      // BR.Backend unconditionally, the portfolio already clears it).
      if (BR.V != core::Verdict::Unknown)
        Out.Backend = BR.Backend;
    }
    Span.arg("verdict", std::string(Out.verdictText()));
    if (!Out.Backend.empty())
      Span.arg("backend", Out.Backend);
    Span.arg("fuel", Out.Stats.FuelUsed);
    if (Out.Stats.ModelAttempts) {
      Span.arg("model_attempts", Out.Stats.ModelAttempts);
      Span.arg("gen_replayed_from", Out.Stats.GenReplayedFrom);
      Span.arg("cert_skipped", Out.Stats.CertSkipped);
      Span.arg("nf_cache_reuse", Out.Stats.NfCacheReuse);
    }
  }

  // Single-backend accounting (the portfolio keeps its own tallies).
  if (!W.Portfolio) {
    ++W.Tally.Races;
    bool Definitive = Out.V != core::Verdict::Unknown;
    W.Tally.Wins += Definitive;
    W.Tally.Definitive += Definitive;
    W.Tally.Seconds += ProveTime;
    W.Tally.FuelUsed += Out.Stats.FuelUsed;
  }

  if (Claim) {
    obs::TraceSpan Span("cache-insert");
    ScopedTimer ST(PH.CacheNs, &W.CacheSeconds);
    Claim->publish(Out.V);
  }
  return Out;
}

void BatchProver::resolveLater(const std::vector<core::ProofTask> &Tasks,
                               Worker &W, std::vector<QueryResult> &Results) {
  // This worker holds no claim here, so the waits cannot deadlock.
  for (Worker::Deferred &D : W.Later) {
    std::optional<core::Verdict> V;
    {
      obs::TraceSpan Span("cache-wait");
      ScopedTimer ST(phaseHistograms().CacheNs, &W.CacheSeconds);
      V = Cache.wait(D.Q, std::move(D.P));
    }
    QueryResult &Out = Results[D.Index];
    if (V) {
      Out.V = *V;
      Out.FromCache = true;
    } else { // The claim was abandoned and passed to this worker.
      Out = proveCanonical(Tasks[D.Index], D.Q, W);
    }
  }
  W.Later.clear();
}

std::vector<QueryResult>
BatchProver::run(const std::vector<core::ProofTask> &Tasks) {
  std::vector<QueryResult> Results(Tasks.size());
  Timer T;

  // One worker per task at most, and at least one (its session counts
  // in Stats.Sessions even for an empty batch).
  const unsigned Jobs = static_cast<unsigned>(std::min<size_t>(
      ThreadPool::resolveJobs(Opts.Jobs), std::max<size_t>(Tasks.size(), 1)));
  Stats = BatchStats();
  Stats.WorkersUsed = Jobs;

  // Longest text first (stable): dealt round-robin, every worker
  // starts on a heavy task, and thieves take the short tail.
  std::vector<size_t> Order(Tasks.size());
  std::iota(Order.begin(), Order.end(), size_t(0));
  std::stable_sort(Order.begin(), Order.end(), [&Tasks](size_t A, size_t B) {
    return Tasks[A].Text.size() > Tasks[B].Text.size();
  });
  StealPool Queue(Tasks.size(), Jobs,
                  &obs::metrics().gauge("engine.queue.depth"), Opts.Cancel);
  std::vector<std::unique_ptr<Worker>> Workers(Jobs);
  ThreadPool Pool(Jobs);
  Pool.run([&](unsigned J) {
    // One long-lived worker context per job for the whole batch.
    Workers[J] = std::make_unique<Worker>(Opts);
    size_t P;
    while (Queue.pop(J, P)) {
      size_t I = Order[P];
      Results[I] = proveOne(Tasks[I], I, *Workers[J]);
    }
    resolveLater(Tasks, *Workers[J], Results);
  });

  for (const std::unique_ptr<Worker> &W : Workers) {
    const core::SessionStats &SS = W->Session.stats();
    ++Stats.Sessions;
    Stats.SessionResets += SS.Resets;
    Stats.TermsReclaimed += SS.TermsReclaimed;
    Stats.ArenaBytesReclaimed += SS.BytesReclaimed;
    Stats.ArenaSlabsReused += SS.SlabsReused;
    Stats.ParseSeconds += W->ParseSeconds;
    Stats.PresolveSeconds += W->PresolveSeconds;
    Stats.ProveSeconds += W->ProveSeconds;
    Stats.CacheSeconds += W->CacheSeconds;
    // Merge per-backend tallies across workers, preserving member order.
    for (const BackendTally &BT : W->tallies()) {
      auto Into = std::find_if(
          Stats.Backends.begin(), Stats.Backends.end(),
          [&BT](const BackendTally &E) { return E.Name == BT.Name; });
      if (Into == Stats.Backends.end())
        Stats.Backends.push_back(BT);
      else
        *Into += BT;
    }
  }
  Stats.Steals = Queue.totals().Steals;
  Stats.StealAttempts = Queue.totals().StealAttempts;

  Stats.Seconds = T.seconds();
  Stats.Queries = Tasks.size();
  for (const QueryResult &R : Results) {
    if (R.Status == QueryStatus::ParseError) {
      ++Stats.ParseErrors;
      continue;
    }
    if (R.Presolved)
      ++(R.V == core::Verdict::Valid ? Stats.PresolvedValid
                                     : Stats.PresolvedInvalid);
    else if (R.FromCache)
      ++Stats.CacheHits;
    else if (Opts.CacheEnabled)
      ++Stats.CacheMisses;
    Stats.Work += R.Stats;
    switch (R.V) {
    case core::Verdict::Valid:
      ++Stats.Valid;
      break;
    case core::Verdict::Invalid:
      ++Stats.Invalid;
      break;
    case core::Verdict::Unknown:
      ++Stats.Unknown;
      break;
    }
  }

  // Mirror the run's aggregates into the global metrics registry —
  // monotone counters accumulated over every run() of the process, the
  // payload behind --metrics-json and the snapshot-based --stats
  // printers. BatchStats above stays the per-run source of truth.
  obs::MetricsRegistry &Reg = obs::metrics();
  Reg.counter("engine.queries").inc(Stats.Queries);
  Reg.counter("engine.parse_errors").inc(Stats.ParseErrors);
  Reg.counter("engine.valid").inc(Stats.Valid);
  Reg.counter("engine.invalid").inc(Stats.Invalid);
  Reg.counter("engine.unknown").inc(Stats.Unknown);
  if (Opts.Presolve) {
    Reg.counter("analysis.presolved.valid").inc(Stats.PresolvedValid);
    Reg.counter("analysis.presolved.invalid").inc(Stats.PresolvedInvalid);
    Reg.counter("analysis.presolved.miss")
        .inc(Stats.Queries - Stats.ParseErrors - Stats.PresolvedValid -
             Stats.PresolvedInvalid);
  }
  Reg.gauge("engine.sessions").set(static_cast<int64_t>(Stats.Sessions));
  Reg.counter("session.resets").inc(Stats.SessionResets);
  Reg.counter("session.terms_reclaimed").inc(Stats.TermsReclaimed);
  Reg.counter("session.arena_bytes_reclaimed").inc(Stats.ArenaBytesReclaimed);
  Reg.counter("session.arena_slabs_reused").inc(Stats.ArenaSlabsReused);
  Stats.Work.publish(Reg);
  Reg.gauge("engine.workers").set(static_cast<int64_t>(Stats.WorkersUsed));
  Reg.counter("engine.steal.steals").inc(Stats.Steals);
  Reg.counter("engine.steal.attempts").inc(Stats.StealAttempts);
  publishBackendTallies(Stats.Backends);

  return Results;
}

std::vector<QueryResult>
BatchProver::run(const std::vector<std::string> &Queries) {
  std::vector<core::ProofTask> Tasks;
  Tasks.reserve(Queries.size());
  for (const std::string &Q : Queries)
    Tasks.push_back({Q, /*Name=*/"", /*Group=*/0});
  return run(Tasks);
}

std::vector<std::string>
BatchProver::splitCorpus(std::string_view Text,
                         std::vector<unsigned> *LineNos) {
  std::vector<std::string> Lines;
  size_t Pos = 0;
  unsigned LineNo = 0;
  while (Pos <= Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string_view::npos)
      End = Text.size();
    std::string_view Line = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    ++LineNo;
    size_t NonWs = Line.find_first_not_of(" \t\r");
    if (NonWs == std::string_view::npos)
      continue;
    std::string_view Body = Line.substr(NonWs);
    if (Body[0] == '#' || Body.rfind("//", 0) == 0)
      continue;
    Lines.emplace_back(Line);
    if (LineNos)
      LineNos->push_back(LineNo);
    if (End == Text.size())
      break;
  }
  return Lines;
}
