//===- baselines/Backends.cpp - Baselines behind the backend API --------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "baselines/Backends.h"

#include "sl/Parser.h"

using namespace slp;
using namespace slp::baselines;

namespace {

/// Parses the task into \p Terms, filling the parse-error fields of
/// \p Out on failure.
std::optional<sl::Entailment> parseTask(TermTable &Terms,
                                        const core::ProofTask &Task,
                                        core::BackendResult &Out) {
  sl::ParseResult P = sl::parseEntailment(Terms, Task.Text);
  if (!P.ok()) {
    Out.Parsed = false;
    Out.Error = P.Error->render();
    return std::nullopt;
  }
  return *P.Value;
}

} // namespace

core::BackendResult BerdineBackend::prove(const core::ProofTask &Task,
                                          Fuel &F) {
  core::BackendResult Out;
  Out.Backend = name();

  SymbolTable Syms;
  TermTable Terms(Syms);
  std::optional<sl::Entailment> E = parseTask(Terms, Task, Out);
  if (!E)
    return Out;

  BerdineProver Prover(Terms);
  uint64_t Before = F.used();
  switch (Prover.prove(*E, F)) {
  case BaselineVerdict::Valid:
    Out.V = core::Verdict::Valid;
    break;
  case BaselineVerdict::Invalid:
    Out.V = core::Verdict::Invalid;
    break;
  case BaselineVerdict::Unknown:
    Out.V = core::Verdict::Unknown;
    break;
  }
  Out.Stats.FuelUsed = F.used() - Before;
  Stats = Prover.stats();
  return Out;
}

core::BackendResult UnfoldingBackend::prove(const core::ProofTask &Task,
                                            Fuel &F) {
  core::BackendResult Out;
  Out.Backend = name();

  SymbolTable Syms;
  TermTable Terms(Syms);
  std::optional<sl::Entailment> E = parseTask(Terms, Task, Out);
  if (!E)
    return Out;

  UnfoldingProver Prover(Terms);
  uint64_t Before = F.used();
  // NotProved maps to Unknown: the greedy prover never claims
  // invalidity, so failure to prove is not a verdict.
  Out.V = Prover.prove(*E, F) == GreedyVerdict::Valid
              ? core::Verdict::Valid
              : core::Verdict::Unknown;
  Out.Stats.FuelUsed = F.used() - Before;
  return Out;
}
