// Strand-level dependence graph produced by elaborating a spawn tree with
// the DAG Rewriting System (drs.hpp).
//
// Every spawn-tree node contributes two vertices, enter(n) and exit(n); a
// solid arrow between subtrees A → B becomes the single edge
// exit(A) → enter(B), which encodes the paper's "all-to-all between
// descendants" shorthand without materializing quadratically many edges.
// Strand work is carried as a weight on the strand's exit vertex, so the
// weight of a longest (vertex-weighted) path is exactly the span T∞.
//
// The graph is immutable and stored as CSR: one offsets array, one flat
// successor array and the in-degrees, built once from an edge list by a
// stable counting sort on the source, so every vertex lists its successors
// in the order the edge list names them. Vertex ids are 32-bit, so a tree
// may hold fewer than 2^31 nodes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nd/spawn_tree.hpp"

namespace ndf {

using VertexId = std::uint32_t;

/// A dependence edge between spawn-tree nodes recorded during elaboration
/// (solid arrows only, i.e. after all fire rewriting).
struct TaskArrow {
  NodeId from;
  NodeId to;
};

/// One strand-level edge u → v.
struct StrandEdge {
  VertexId from;
  VertexId to;
};

class StrandGraph {
 public:
  /// Builds the graph over the 2·|tree| enter/exit vertices of `tree` from
  /// `edges`, keeping each vertex's successors in list order. `live` marks
  /// the nodes reachable from the root (SpawnTree::reachable()); their
  /// strands carry their work as weight. `arrows` are the solid task-level
  /// arrows behind the exit → enter edges.
  StrandGraph(const SpawnTree& tree, std::vector<bool> live,
              std::span<const StrandEdge> edges,
              std::vector<TaskArrow> arrows = {});

  const SpawnTree& tree() const { return *tree_; }

  static VertexId enter(NodeId n) { return 2 * n; }
  static VertexId exit(NodeId n) { return 2 * n + 1; }
  static NodeId owner(VertexId v) { return v / 2; }
  static bool is_exit(VertexId v) { return v % 2 == 1; }

  /// True if node n is reachable from the tree's root (detached nodes have
  /// no edges and no weight).
  bool live(NodeId n) const { return live_[n]; }

  std::size_t num_vertices() const { return in_degree_.size(); }
  std::size_t num_edges() const { return targets_.size(); }

  std::span<const VertexId> successors(VertexId v) const {
    return {targets_.data() + offsets_[v], targets_.data() + offsets_[v + 1]};
  }
  std::size_t in_degree(VertexId v) const { return in_degree_[v]; }

  /// Solid task-level arrows recorded during elaboration, including seq
  /// ordering edges; used to condense onto M-maximal tasks.
  const std::vector<TaskArrow>& arrows() const { return arrows_; }

  /// Kahn topological order. Throws CheckError if the graph has a cycle
  /// (which would indicate an inconsistent fire-rule table).
  std::vector<VertexId> topological_order() const;

  /// Total work (sum of strand weights).
  double work() const;

  /// Span: maximum vertex-weighted path length. Validates acyclicity.
  double span() const;

  /// Per-vertex longest-path-to-vertex distances (inclusive of the vertex's
  /// own weight), in topological order. Used by schedulers and tests.
  std::vector<double> longest_path_to() const;

 private:
  const SpawnTree* tree_;
  std::vector<bool> live_;
  std::vector<std::uint32_t> offsets_;  ///< num_vertices() + 1 entries
  std::vector<VertexId> targets_;
  std::vector<std::uint32_t> in_degree_;
  std::vector<double> weight_;
  std::vector<TaskArrow> arrows_;
};

}  // namespace ndf
