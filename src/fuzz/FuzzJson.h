//===----------------------------------------------------------------------===//
///
/// \file
/// Machine-readable form of a fuzz campaign's FuzzSummary — what
/// `helix-fuzz --json FILE` writes alongside the human text. One
/// deterministic JSON object: verdict counts, the Static* checker
/// counters, pass timings, analysis counters and one entry per failure
/// (repro paths included, module text omitted — the corpus dir owns the
/// bytes).
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_FUZZ_FUZZJSON_H
#define HELIX_FUZZ_FUZZJSON_H

#include "fuzz/Fuzzer.h"
#include "support/Json.h"

namespace helix {

Json fuzzSummaryToJson(const FuzzSummary &S);

} // namespace helix

#endif // HELIX_FUZZ_FUZZJSON_H
