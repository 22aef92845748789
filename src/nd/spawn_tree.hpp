// Spawn trees for the Nested Dataflow model (Sec. 2).
//
// Internal nodes are composition constructs — Seq (";"), Par ("‖"), Fire
// ("~>", binary, carrying a FireType) — and leaves are strands annotated
// with work (instruction count) and an optional executable kernel. Every
// node may carry a size annotation s(t) (distinct words accessed); per the
// paper, unannotated nodes inherit from the lowest annotated ancestor
// (leaves here always receive an explicit or computed size).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "nd/fire.hpp"
#include "support/check.hpp"
#include "support/mem.hpp"

namespace ndf {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

enum class Kind : std::uint8_t { Strand, Seq, Par, Fire };

/// One node of a spawn tree. Managed by SpawnTree; refer to nodes by id.
struct SpawnNode {
  Kind kind = Kind::Strand;
  FireType fire_type = FireRules::kEmpty;  ///< only meaningful for Fire
  std::vector<NodeId> children;
  NodeId parent = kNoNode;

  double work = 0.0;  ///< strand instruction count (leaves only)
  double size = -1.0; ///< s(t): footprint in words; -1 = inherit

  std::string label;  ///< for diagnostics and printed DAG dumps

  /// Optional executable payload for the real-thread runtime.
  std::function<void()> body;

  /// Optional declared footprint (strands bound to real data); consumed by
  /// the determinacy property tests.
  std::vector<MemSegment> reads, writes;
};

/// An ND spawn tree plus its fire-rule registry.
///
/// Built bottom-up: create strands and compose them; finish with
/// set_root(). The tree is immutable after elaboration starts.
class SpawnTree {
 public:
  FireRules& rules() { return rules_; }
  const FireRules& rules() const { return rules_; }

  /// Creates a strand leaf with given work and footprint size.
  NodeId strand(double work, double size, std::string label = "",
                std::function<void()> body = nullptr);

  /// Serial composition a ; b ; ... (n-ary, left to right).
  NodeId seq(std::vector<NodeId> children, double size = -1.0,
             std::string label = "");

  /// Parallel composition a ‖ b ‖ ....
  NodeId par(std::vector<NodeId> children, double size = -1.0,
             std::string label = "");

  /// Fire composition: left ~type~> right.
  NodeId fire(FireType type, NodeId left, NodeId right, double size = -1.0,
              std::string label = "");

  void set_root(NodeId root);
  NodeId root() const {
    NDF_CHECK_MSG(root_ != kNoNode, "spawn tree has no root");
    return root_;
  }
  bool has_root() const { return root_ != kNoNode; }

  std::size_t num_nodes() const { return nodes_.size(); }
  const SpawnNode& node(NodeId id) const {
    NDF_DCHECK(id < nodes_.size());
    return nodes_[id];
  }
  SpawnNode& node(NodeId id) {
    NDF_DCHECK(id < nodes_.size());
    return nodes_[id];
  }

  bool is_strand(NodeId id) const { return node(id).kind == Kind::Strand; }

  /// Effective size of a task: its own annotation, or the lowest annotated
  /// ancestor's (paper, Sec. 4 "Terminology").
  double size_of(NodeId id) const;

  /// Total work of the subtree rooted at id (sum over strands).
  double work_of(NodeId id) const;

  /// Number of strand leaves in the subtree rooted at id.
  std::size_t strand_count(NodeId id) const;

  /// Descends `p` from node `id`, stopping early at strands (the DRS
  /// recursion-termination rule, Sec. 2).
  NodeId descend(NodeId id, const Pedigree& p) const;

  /// Marks the nodes reachable from the root, in one top-down sweep (a
  /// node's children are always created before it, so they have smaller
  /// ids). Nodes created but never composed under the root stay unmarked.
  std::vector<bool> reachable() const;

  /// True if `desc` lies in the subtree rooted at `anc` (inclusive).
  bool in_subtree(NodeId desc, NodeId anc) const;

  /// All strand ids in the subtree rooted at id, left-to-right.
  std::vector<NodeId> strands_under(NodeId id) const;

 private:
  NodeId add_node(SpawnNode n);
  void adopt(NodeId parent, const std::vector<NodeId>& children);

  FireRules rules_;
  std::vector<SpawnNode> nodes_;
  NodeId root_ = kNoNode;
};

}  // namespace ndf
