// Synthetic footprints for generated strands.
//
// Generated workloads have no real data, but the determinacy checker is
// only a real oracle if strands declare footprints. SyntheticMem hands out
// counter-based fake address segments (never real pointers — the same spec
// yields bit-identical segments in every process, which the cross-process
// determinism gate relies on). Generators allocate one segment per
// *generated dependence*: a single strand on the source side writes it and
// strands on the sink side read it, so every conflicting pair the checker
// finds corresponds to a dependence the DRS elaboration must have realized
// as an ordering path — and a generator bug that drops one fails the
// check_determinacy rejection check instead of shipping a racy workload.
#pragma once

#include <algorithm>
#include <cstdint>

#include "nd/spawn_tree.hpp"
#include "support/mem.hpp"

namespace ndf::gen {

class SyntheticMem {
 public:
  MemSegment fresh() {
    const MemSegment s{next_, next_ + 64};
    next_ += 128;  // gap so segments never touch
    return s;
  }

  /// Declares the dependence subtree(from) → subtree(to) as a footprint:
  /// the first strand under `from` writes a fresh segment, up to
  /// `max_readers` strands under `to` read it. Legal only when the
  /// elaboration orders all of `from` before all of `to`.
  void link(SpawnTree& t, NodeId from, NodeId to,
            std::size_t max_readers = 4) {
    const MemSegment s = fresh();
    t.add_writes(t.strands_under(from).front(), {&s, 1});
    const std::vector<NodeId> readers = t.strands_under(to);
    const std::size_t k = std::min(max_readers, readers.size());
    for (std::size_t i = 0; i < k; ++i) t.add_reads(readers[i], {&s, 1});
  }

 private:
  std::uintptr_t next_ = 0x1000;  // fixed base: process-independent
};

}  // namespace ndf::gen
