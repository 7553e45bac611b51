//===- fuzz/Campaign.h - Metamorphic + differential fuzz campaigns *- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fuzzing orchestrator behind the `slp-fuzz` tool: seeds a corpus
/// (generated from the paper's random distributions plus any caller
/// texts), applies randomized chains of the metamorphic transformers
/// (fuzz/Transformers.h) to every seed, and checks each variant across
/// every configured backend *and* the polynomial pre-solver. Findings:
///
///   cross-backend   two backends return different definitive verdicts
///                   on the same variant;
///   relation        the variant's verdict violates the chain's
///                   composed metamorphic relation against the seed's;
///   presolve        the static analyzer's definitive answer
///                   contradicts the backends' (presolve unsoundness);
///   canonical-key   an alpha-rename-only chain changed the engine's
///                   alpha-invariant cache key;
///   render          a rendered variant failed to re-parse (the
///                   sl::str / parser round trip broke);
///   seed-parse      a caller-supplied seed text did not parse.
///
/// Every finding is shrunk by greedily dropping chain links and then
/// formula atoms while the disagreement persists, down to a minimal
/// reproducer suitable for a standalone `.slp` findings file.
///
/// Determinism: work is split into units (one per seed); unit K draws
/// every random decision from SplitMix64::forStream(CampaignSeed, K)
/// and shrinking is greedy in a fixed order, so the set of variants,
/// findings, and the JSON report are pure functions of the options —
/// independent of Jobs and scheduling. A wall-clock budget can
/// truncate a campaign (whole units not yet started are dropped);
/// truncated reports say so.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_FUZZ_CAMPAIGN_H
#define SLP_FUZZ_CAMPAIGN_H

#include "core/Backend.h"
#include "fuzz/Transformers.h"

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace slp {
namespace fuzz {

/// One chain link: which transformer, and the seed that replays its
/// random decisions (fuzz::apply is deterministic given both).
struct ChainLink {
  TransformerKind Kind;
  uint64_t LinkSeed;
};

/// What kind of disagreement a finding records.
enum class FindingCategory : uint8_t {
  CrossBackend,
  RelationViolation,
  PresolveUnsound,
  CanonicalKeyMismatch,
  RenderError,
  SeedParseError,
};

const char *findingCategoryName(FindingCategory C);

/// One confirmed disagreement, with its minimal reproducer.
struct Finding {
  FindingCategory Category = FindingCategory::CrossBackend;
  unsigned Unit = 0;    ///< Seed-corpus index (== RNG stream id).
  unsigned Variant = 0; ///< Variant index within the unit; 0 = the
                        ///< seed itself (empty chain).
  std::string SeedText;    ///< The (possibly shrunk) seed entailment.
  std::vector<ChainLink> Chain; ///< Surviving links after shrinking.
  Relation Rel = Relation::None; ///< Composed relation of Chain.
  std::string VariantText; ///< The variant as first detected.
  std::string ShrunkText;  ///< Minimal reproducer (== VariantText when
                           ///< shrinking is off or gained nothing).
  std::string Detail;      ///< e.g. "slp=valid berdine=invalid".
  unsigned ShrinkSteps = 0; ///< Reduction attempts spent on this
                            ///< finding (successful or not).
};

/// Per-transformer campaign tallies, in catalogue order.
struct TransformerTally {
  uint64_t Applied = 0;      ///< Links that produced a variant.
  uint64_t Inapplicable = 0; ///< apply() returned nullopt.
  uint64_t Findings = 0;     ///< Findings whose surviving chain uses
                             ///< this transformer.
};

/// Campaign configuration.
struct CampaignOptions {
  uint64_t Seed = 1;        ///< Master seed; all streams derive from it.
  unsigned Jobs = 1;        ///< Worker threads; 0 = hardware concurrency.
  unsigned VariantsPerSeed = 6;
  unsigned MaxChain = 3;    ///< Links per chain, uniform in [1, MaxChain].
  double BudgetSeconds = 0; ///< Wall-clock cap; 0 = none. Checked at
                            ///< unit boundaries.
  uint64_t MaxVariants = 0; ///< Total variant cap; truncates the unit
                            ///< list deterministically. 0 = none.
  uint64_t FuelPerProve = 0; ///< Inference budget per backend call;
                             ///< 0 = unlimited. Fuel-outs are Unknown
                             ///< and skip checks, never findings.
  bool CheckPresolve = true; ///< Run analysis::analyze as an oracle.
  bool Shrink = true;
  int OnlyUnit = -1; ///< >= 0: replay exactly that unit (streams are
                     ///< per-unit, so its variants are bit-identical
                     ///< to the full campaign's).

  /// The seed corpus, one entailment text per entry. Unit K fuzzes
  /// SeedTexts[K].
  std::vector<std::string> SeedTexts;

  /// Creates the backend set one worker proves with, in reporting
  /// order. Defaults to {slp, berdine, unfolding}. The first complete
  /// backend's definitive verdict is the reference for relation
  /// checks. Tests inject faulty backends here.
  std::function<std::vector<std::unique_ptr<core::EntailmentBackend>>()>
      BackendFactory;
};

/// The campaign outcome. json() is deterministic: it contains no wall
/// clock, so same options (and no budget truncation) => same bytes.
struct CampaignReport {
  uint64_t Seed = 0;
  size_t Units = 0;    ///< Seed corpus size after MaxVariants cut.
  size_t UnitsRun = 0; ///< Units actually processed (budget, OnlyUnit).
  uint64_t Variants = 0;       ///< Transformed variants checked.
  uint64_t Checks = 0;         ///< Oracle comparisons performed.
  uint64_t SkippedUnknown = 0; ///< Relation checks skipped because a
                               ///< verdict was Unknown (fuel).
  uint64_t ShrinkSteps = 0;
  bool Truncated = false; ///< The wall-clock budget fired.
  std::array<TransformerTally, NumTransformers> Transformers{};
  std::vector<Finding> Findings;
  double Seconds = 0; ///< Wall clock (stderr only; not in json()).

  std::string json() const;
};

/// Runs campaigns. Also publishes the fuzz.* counters into the global
/// metrics registry at the end of each run().
class Campaign {
public:
  explicit Campaign(CampaignOptions Opts);

  CampaignReport run();

  const CampaignOptions &options() const { return Opts; }

private:
  CampaignOptions Opts;
};

/// The default seed corpus for campaign seed \p Seed: \p GenCount
/// instances each of distribution 1 (Table 1), distribution 2
/// (Table 2), and 2x-cloned distribution 2 (Table 3's construction),
/// over \p GenVars variables. Generated from dedicated RNG streams, so
/// it never overlaps the per-unit fuzzing streams.
std::vector<std::string> defaultSeedCorpus(uint64_t Seed, unsigned GenCount,
                                           unsigned GenVars);

/// Writes each finding of \p R as a standalone `.slp` reproducer under
/// \p Dir (created if missing): commented provenance (category, chain,
/// verdicts, replay command rebuilt from \p ReplayArgs) above the
/// minimal query line. Returns the paths written, or nullopt when the
/// directory could not be created or a file could not be written.
std::optional<std::vector<std::string>>
writeFindings(const CampaignReport &R, const std::string &Dir,
              const std::string &ReplayArgs);

} // namespace fuzz
} // namespace slp

#endif // SLP_FUZZ_CAMPAIGN_H
