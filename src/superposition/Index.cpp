//===- superposition/Index.cpp - Clause indexing --------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "superposition/Index.h"

#include "support/Hashing.h"

#include <algorithm>
#include <cassert>

using namespace slp;
using namespace slp::sup;

//===----------------------------------------------------------------------===//
// ClauseSignature
//===----------------------------------------------------------------------===//

uint64_t ClauseSignature::symbolBit(Symbol S) {
  return 1ull << (hashValue(S.id()) & 63);
}

namespace {

/// Adds the root symbol of every subterm of \p T to \p Mask.
void addSymbols(const Term *T, uint64_t &Mask) {
  Mask |= ClauseSignature::symbolBit(T->symbol());
  for (const Term *A : T->args())
    addSymbols(A, Mask);
}

} // namespace

ClauseSignature ClauseSignature::of(ClauseView C) {
  ClauseSignature S;
  for (const Equation &E : C.neg()) {
    S.Neg |= equationBit(E);
    addSymbols(E.lhs(), S.Symbols);
    addSymbols(E.rhs(), S.Symbols);
  }
  for (const Equation &E : C.pos()) {
    S.Pos |= equationBit(E);
    addSymbols(E.lhs(), S.Symbols);
    addSymbols(E.rhs(), S.Symbols);
  }
  return S;
}

//===----------------------------------------------------------------------===//
// LiteralIndex
//===----------------------------------------------------------------------===//

std::vector<uint32_t> &LiteralIndex::listFor(ClauseView C) {
  if (C.empty())
    return Empty;
  uint64_t Min = ~0ull;
  for (const Equation &E : C.neg())
    Min = std::min(Min, key(E, true));
  for (const Equation &E : C.pos())
    Min = std::min(Min, key(E, false));
  return Lists[Min];
}

void LiteralIndex::insert(uint32_t Id, ClauseView C) {
  std::vector<uint32_t> &L = listFor(C);
  assert(std::find(L.begin(), L.end(), Id) == L.end() &&
         "clause id inserted twice");
  L.push_back(Id);
  ++NumEntries;
}

bool LiteralIndex::erase(uint32_t Id, ClauseView C) {
  std::vector<uint32_t> &L = listFor(C);
  auto It = std::find(L.begin(), L.end(), Id);
  if (It == L.end())
    return false;
  *It = L.back();
  L.pop_back();
  --NumEntries;
  return true;
}

//===----------------------------------------------------------------------===//
// DemodIndex
//===----------------------------------------------------------------------===//

void DemodIndex::addLhs(Symbol S) {
  uint64_t Bit = ClauseSignature::symbolBit(S);
  unsigned Pos = static_cast<unsigned>(__builtin_ctzll(Bit));
  if (BitCount[Pos]++ == 0)
    Mask |= Bit;
}

void DemodIndex::removeLhs(Symbol S) {
  uint64_t Bit = ClauseSignature::symbolBit(S);
  unsigned Pos = static_cast<unsigned>(__builtin_ctzll(Bit));
  assert(BitCount[Pos] != 0 && "removing a rule that was never added");
  if (--BitCount[Pos] == 0)
    Mask &= ~Bit;
}
