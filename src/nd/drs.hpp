// DAG Rewriting System (Sec. 2): elaborates an ND spawn tree into the
// equivalent algorithm DAG over strands.
//
// Rewriting of a dashed arrow (src, dst, type):
//   * both endpoints strands          → solid edge (recursion terminated);
//     exception: an empty rule table (the "‖" type) yields no edge.
//   * kFull                           → solid edge exit(src) → enter(dst)
//     (the enter/exit encoding captures the all-to-all shorthand).
//   * otherwise                       → for each rule (+p, T', -q) of the
//     type, recursively rewrite (descend(src, p), descend(dst, q), T').
//
// Elaboration also adds the structural edges of the spawn tree itself
// (enter(parent) → enter(child), exit(child) → exit(parent)) and the solid
// arrows of Seq nodes.
//
// It runs in two passes and keeps no global rewrite memo:
//   1. Emission: one walk over the nodes reachable from the root (marked
//      once, top-down) in id order appends every edge to a flat list and
//      every solid arrow to arrows(). Repeated rewrites are re-expanded;
//      the only repeats that reach the output are solid arrows, and a
//      later copy of a solid arrow (a, b) is dropped once at the end,
//      keeping the first (a counting sort of the arrows by source, no hash
//      table).
//   2. CSR build: StrandGraph's constructor sorts the list by source
//      (stably), so each vertex keeps its successors in emission order.
// The only size cap is the 32-bit VertexId range (fewer than 2^31 nodes).
#pragma once

#include "nd/graph.hpp"
#include "nd/spawn_tree.hpp"

namespace ndf {

struct ElabOptions {
  /// Nested-parallel mode: the serial elision of the fire construct. Every
  /// fire arrow is treated as a full dependency (paper Sec. 3: the NP
  /// versions of the algorithms replace "~>" with ";").
  bool np_mode = false;
};

/// Elaborates `tree` into its strand-level algorithm DAG.
StrandGraph elaborate(const SpawnTree& tree, ElabOptions opts = {});

}  // namespace ndf
