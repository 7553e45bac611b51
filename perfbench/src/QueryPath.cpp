//===- perfbench/src/QueryPath.cpp - Per-query path and spans -------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "QueryPath.h"

#include "analysis/StaticAnalyzer.h"
#include "engine/CanonicalKey.h"
#include "sl/Parser.h"
#include "sl/Semantics.h"

#include <cstdio>

using namespace slp;

namespace slpbench {

//===----------------------------------------------------------------------===//
// Watchdog
//===----------------------------------------------------------------------===//

Watchdog::Watchdog() : Thread([this] { loop(); }) {}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> L(M);
    Stop = true;
  }
  Cv.notify_one();
  Thread.join();
}

void Watchdog::arm(CancelToken *T, Clock::time_point At) {
  bool Wake;
  {
    std::lock_guard<std::mutex> L(M);
    Token = T;
    Due = At;
    Wake = Sleeping;
  }
  if (Wake)
    Cv.notify_one();
}

void Watchdog::disarm() {
  std::lock_guard<std::mutex> L(M);
  Token = nullptr;
}

void Watchdog::loop() {
  std::unique_lock<std::mutex> L(M);
  while (!Stop) {
    if (!Token) {
      Sleeping = true;
      Cv.wait(L, [this] { return Stop || Token; });
      Sleeping = false;
      continue;
    }
    const Clock::time_point D = Due;
    // Wakes at D, or earlier on Stop. A re-arm moves Due later without
    // a notify; the check below then sees Due != D and sleeps again.
    Cv.wait_until(L, D, [this] { return Stop; });
    if (!Stop && Token && Due == D && Clock::now() >= D) {
      Token->cancel();
      Token = nullptr;
    }
  }
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

std::map<std::string, SpanBuffer::Layer> SpanBuffer::selfTimes() const {
  std::vector<double> ChildSeconds(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildSeconds[S.Parent] +=
          std::chrono::duration<double>(S.End - S.Start).count();
  std::map<std::string, Layer> Out;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    double Self = std::chrono::duration<double>(S.End - S.Start).count() -
                  ChildSeconds[I];
    Layer &L = Out[S.Name];
    ++L.Calls;
    L.SelfSeconds += Self;
    L.SelfUs.push_back(Self * 1e6);
  }
  return Out;
}

bool writeChromeTrace(const std::string &Path,
                      const std::vector<SpanBuffer> &Buffers, size_t Count) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  Clock::time_point Origin = Clock::time_point::max();
  for (size_t B = 0; B != Count; ++B)
    for (const SpanBuffer::Span &S : Buffers[B].spans())
      Origin = std::min(Origin, S.Start);
  auto Us = [&](Clock::time_point T) {
    return std::chrono::duration<double, std::micro>(T - Origin).count();
  };
  std::fprintf(F, "{\"traceEvents\":[");
  const char *Sep = "";
  for (size_t B = 0; B != Count; ++B)
    for (const SpanBuffer::Span &S : Buffers[B].spans()) {
      std::fprintf(F,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"query\":%u}}",
                   Sep, S.Name, B, Us(S.Start), Us(S.End) - Us(S.Start),
                   S.Query);
      Sep = ",";
    }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

//===----------------------------------------------------------------------===//
// QueryPath
//===----------------------------------------------------------------------===//

const char *stopName(Stop S) {
  switch (S) {
  case Stop::Decided:
    return "decided";
  case Stop::Deadline:
    return "deadline";
  case Stop::Fuel:
    return "fuel";
  case Stop::ParseError:
    return "parse-error";
  }
  return "?";
}

QueryPath::QueryPath(PathConfig C)
    : C(C), Cache(C.Cache ? std::make_unique<engine::ResultCache>()
                          : nullptr) {}

void QueryPath::clearCache() {
  if (Cache)
    Cache->clear();
}

Outcome QueryPath::run(const std::string &Text, uint32_t QueryId,
                         SpanBuffer *Spans, bool KeepCex) {
  Outcome Out;
  const Clock::time_point Start = Clock::now();
  auto Finish = [&] {
    Out.Ms = std::chrono::duration<double, std::milli>(Clock::now() - Start)
                 .count();
    return std::move(Out);
  };
  SpanScope Query(Spans, "query", QueryId);

  Session.reset();
  sl::ParseResult P = [&] {
    SpanScope S(Spans, "parse", QueryId, Query.id());
    return sl::parseEntailment(Session.terms(), Text);
  }();
  if (!P.ok()) {
    Out.S = Stop::ParseError;
    return Finish();
  }

  if (C.Presolve) {
    SpanScope S(Spans, "presolve", QueryId, Query.id());
    analysis::AnalysisResult A = analysis::analyze(Session.terms(), *P.Value);
    if (A.definitive()) {
      Out.V = A.V;
      Out.Presolved = true;
      if (KeepCex)
        Out.Cex = std::move(A.Cex);
      return Finish();
    }
  }

  engine::CanonicalQuery Q = [&] {
    SpanScope S(Spans, "canonicalize", QueryId, Query.id());
    return engine::CanonicalQuery::of(*P.Value);
  }();
  if (Cache) {
    SpanScope S(Spans, "cache-lookup", QueryId, Query.id());
    if (std::optional<core::Verdict> Hit = Cache->lookup(Q)) {
      Out.V = *Hit;
      Out.FromCache = true;
      return Finish();
    }
  }

  {
    SpanScope S(Spans, "rebuild+prove", QueryId, Query.id());
    // The parsed entailment dangles after this reset; only Q is used.
    Session.reset();
    sl::Entailment E = Q.rebuild(Session.terms());
    CancelToken Token;
    Fuel F(C.Fuel, &Token);
    if (C.Deadline.count())
      Dog.arm(&Token, Start + C.Deadline);
    core::ProveResult R = Session.prove(E, F);
    Dog.disarm();
    Out.V = R.V;
    Out.Proved = true;
    Out.Prove = R.Stats;
    Out.Sat = Session.prover().saturation().stats();
    if (R.V == core::Verdict::Unknown)
      Out.S = Token.cancelled() ? Stop::Deadline : Stop::Fuel;
    if (KeepCex)
      Out.Cex = std::move(R.Cex);
  }

  if (Cache) {
    SpanScope S(Spans, "cache-insert", QueryId, Query.id());
    Cache->insert(Q, Out.V);
  }
  return Finish();
}

/// sl::isCounterexample evaluates every constant of \p E on the stack;
/// a model that leaves one unbound refutes nothing.
static bool refutes(const sl::CounterModel &M, const sl::Entailment &E) {
  std::vector<const Term *> Constants;
  E.collectTerms(Constants);
  for (const Term *T : Constants)
    if (!M.S.bound(T))
      return false;
  return sl::isCounterexample(M.S, M.H, E);
}

bool QueryPath::checkCounterexample(const std::string &Text,
                                      const Outcome &O) {
  if (!O.Cex)
    return false;
  Session.reset();
  sl::ParseResult P = sl::parseEntailment(Session.terms(), Text);
  if (!P.ok())
    return false;
  if (O.Presolved)
    return refutes(*O.Cex, *P.Value);
  engine::CanonicalQuery Q = engine::CanonicalQuery::of(*P.Value);
  Session.reset();
  sl::Entailment E = Q.rebuild(Session.terms());
  return refutes(*O.Cex, E);
}

} // namespace slpbench
