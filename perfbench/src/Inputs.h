//===- perfbench/src/Inputs.h - Seeded workload inputs ----------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's workloads and the inputs each one generates. The
/// instances come from fixed corpus seeds (the paper-table seeds 1 and
/// 2, the symbolic executor's VCs, the regression corpus); the run
/// seed only alpha-renames every query and shuffles the order. Neither
/// changes the work the prover does: the engine proves the canonical
/// form and the session is rewound between queries. So two seeds
/// measure the same work on different text, and every work counter
/// repeats exactly across seeds.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_PERFBENCH_INPUTS_H
#define SLP_PERFBENCH_INPUTS_H

#include "core/Prover.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace slpbench {

enum class WorkloadKind { T1Paper, T2Entail, VcBatch };

/// The fixed parameters of one workload.
struct WorkloadSpec {
  WorkloadKind Kind;
  const char *Name;
  uint64_t CorpusSeed; ///< Generator seed (t1/t2); unused by vc-batch.
  unsigned Scale;      ///< Instances per row (t1/t2); re-issues (vc).
  uint64_t Fuel;       ///< Per-query inference budget.
  bool Presolve;
  unsigned DeadlineMs; ///< Per-query wall deadline; 0 = none.
};

/// Looks a workload up by name; null if there is none.
const WorkloadSpec *findWorkload(const std::string &Name);
/// The workload names, comma separated.
std::string workloadNames();

/// One query of a workload.
struct Query {
  std::string Text;
  /// t1/t2: the row's variable count. vc-batch: the clone copy count,
  /// or 0 for the regression corpus.
  unsigned Row = 0;
  /// Position within the row: generator order, VC number, or corpus
  /// query number.
  unsigned Index = 0;
  /// The known answer: Valid for every VC, the label for regression
  /// queries, none for the random tables.
  std::optional<slp::core::Verdict> Expected;
};

struct Inputs {
  std::vector<Query> Queries; ///< Renamed and shuffled by the run seed.
  double VcGenSeconds = 0;    ///< symexec::generateVCs over the corpus.
};

/// Generates the inputs of \p W at \p Scale instances per row (or
/// re-issues) from corpus seed \p CorpusSeed and run seed \p Seed.
/// vc-batch reads the regression corpus from \p RegressionPath.
/// Returns an error message on failure.
std::optional<std::string> makeInputs(const WorkloadSpec &W,
                                      uint64_t CorpusSeed, unsigned Scale,
                                      uint64_t Seed,
                                      const std::string &RegressionPath,
                                      Inputs &Out);

} // namespace slpbench

#endif // SLP_PERFBENCH_INPUTS_H
