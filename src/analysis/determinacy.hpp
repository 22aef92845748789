// Determinacy verification for elaborated ND programs.
//
// A fire-rule table is only correct if every true data dependency of the
// algorithm is represented: any two strands whose declared footprints
// conflict (one writes what the other reads or writes) must be ordered by
// a dependence path in the algorithm DAG. This checker verifies exactly
// that, by computing strand-to-strand reachability and testing every
// conflicting pair. It is the executable form of the paper's claim that
// the DRS produces the algorithm DAG (Sec. 2), and it is what validates
// our transcription of the rule tables (including the documented VH / TM1
// corrections).
//
// Conflicting pairs come from one sort of the declared segments.
// Reachability costs O(|E|·|S|/64) word operations, done in strand-column
// blocks so its bitsets stay near 64 MB; the pairs cost one entry each.
#pragma once

#include <string>

#include "nd/graph.hpp"

namespace ndf {

struct DeterminacyReport {
  bool ok = true;
  std::size_t strands_with_footprint = 0;
  std::size_t conflicting_pairs = 0;  ///< pairs needing an ordering
  std::string message;                ///< first violation, if any
};

/// Checks that all conflicting strand pairs in `g` are ordered. Strands
/// without declared footprints are ignored.
DeterminacyReport check_determinacy(const StrandGraph& g);

}  // namespace ndf
