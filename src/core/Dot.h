//===- core/Dot.h - Graphviz renderings -------------------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Graphviz (DOT) emitters for the two artifacts users inspect most:
/// refutation proof DAGs (Figure-4 style) and countermodel heaps.
/// Render with e.g. `slp --dot-proof file.slp | dot -Tsvg`.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_CORE_DOT_H
#define SLP_CORE_DOT_H

#include "sl/Semantics.h"
#include "superposition/Saturation.h"

#include <string>
#include <vector>

namespace slp {
namespace core {

/// Renders the derivation DAG of \p RootId: input clauses are boxes
/// annotated with their SL-level provenance, derived clauses ellipses
/// labelled with their rule ("+ cut" when units were cut from them);
/// edges point premise -> conclusion, dashed from a cut unit.
std::string proofToDot(const sup::Saturation &Sat,
                       const std::vector<std::string> &Labels,
                       uint32_t RootId);

/// Renders a countermodel: one node per location (nil is a double
/// circle), one edge per heap cell, and stack variables as labels on
/// their locations.
std::string counterModelToDot(const TermTable &Terms, const sl::Stack &S,
                              const sl::Heap &H);

} // namespace core
} // namespace slp

#endif // SLP_CORE_DOT_H
