// M-maximal decomposition of a spawn tree (Sec. 4, Fig. 13).
//
// A task is M-maximal if its size s(t) is at most M but its parent's size
// exceeds M. Decomposing a spawn tree by M yields the set of M-maximal
// subtrees plus the "glue nodes" above them; the decomposition is unique.
#pragma once

#include <vector>

#include "nd/spawn_tree.hpp"

namespace ndf {

struct Decomposition {
  double M = 0.0;
  /// Roots of the M-maximal subtrees, in tree order.
  std::vector<NodeId> maximal;
  /// Size s(t) of each maximal task (SpawnTree::size_of of its root),
  /// parallel to `maximal`.
  std::vector<double> maximal_size;
  /// Glue nodes (strictly above every maximal task).
  std::vector<NodeId> glue;
  /// Per spawn-tree node: index into `maximal` of the covering maximal
  /// task, or -1 for glue nodes / nodes outside the root's subtree.
  std::vector<int> owner;

  bool is_glue(NodeId n) const { return owner[n] < 0; }
};

/// Decomposes the tree rooted at `tree.root()` by threshold M.
///
/// A strand whose own size exceeds M is treated as maximal anyway (a leaf
/// cannot be subdivided); the paper's algorithms never produce this case
/// when base-case sizes are below the smallest cache.
Decomposition decompose(const SpawnTree& tree, double M);

}  // namespace ndf
