//===- core/Backend.cpp - Pluggable entailment backends ----------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "core/Backend.h"

#include "sl/Parser.h"
#include "sl/Semantics.h"

using namespace slp;
using namespace slp::core;

BackendResult SlpBackend::prove(const ProofTask &Task, Fuel &F) {
  BackendResult Out;
  Out.Backend = name();

  Session.reset();
  sl::ParseResult P = sl::parseEntailment(Session.terms(), Task.Text);
  if (!P.ok()) {
    Out.Parsed = false;
    Out.Error = P.Error->render();
    return Out;
  }

  ProveResult R = Session.prove(*P.Value, F);
  Out.V = R.V;
  Out.Stats = R.Stats;
  if (R.Cex)
    Out.CexText = sl::str(Session.terms(), R.Cex->S, R.Cex->H);
  return Out;
}
