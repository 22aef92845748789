// Spawn trees for the Nested Dataflow model (Sec. 2).
//
// Internal nodes are composition constructs — Seq (";"), Par ("‖"), Fire
// ("~>", binary, carrying a FireType) — and leaves are strands annotated
// with work (instruction count) and an optional executable kernel. Every
// node may carry a size annotation s(t) (distinct words accessed); per the
// paper, unannotated nodes inherit from the lowest annotated ancestor
// (leaves here always receive an explicit or computed size).
//
// Layout: one 40-byte hot record per node, and one flat child array in
// which every node's children sit contiguously (they are all known when
// the node is created). Labels live in one per-tree character arena.
// Bodies and declared footprints live in side tables that exist only once
// a builder sets one, so a simulator-only tree carries neither.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "nd/fire.hpp"
#include "support/check.hpp"
#include "support/mem.hpp"

namespace ndf {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

enum class Kind : std::uint8_t { Strand, Seq, Par, Fire };

/// The hot record of one spawn-tree node. Managed by SpawnTree; refer to
/// nodes by id and reach children, labels, bodies and footprints through
/// the tree's accessors.
struct SpawnNode {
  double work = 0.0;   ///< strand instruction count (leaves only)
  double size = -1.0;  ///< s(t): footprint in words; -1 = inherit
  NodeId parent = kNoNode;
  std::uint32_t first_child = 0;  ///< offset into the tree's child array
  std::uint32_t num_children = 0;
  std::uint32_t label = 0;        ///< index into the tree's label table
  FireType fire_type = FireRules::kEmpty;  ///< only meaningful for Fire
  Kind kind = Kind::Strand;
};

/// An ND spawn tree plus its fire-rule registry.
///
/// Built bottom-up: create strands and compose them; finish with
/// set_root(). The tree's shape is immutable after elaboration starts;
/// bodies may still be wrapped (the execution oracle does).
class SpawnTree {
 public:
  using Body = std::function<void()>;

  FireRules& rules() { return rules_; }
  const FireRules& rules() const { return rules_; }

  /// Creates a strand leaf with given work and footprint size.
  NodeId strand(double work, double size, std::string_view label = {},
                Body body = nullptr);

  /// Serial composition a ; b ; ... (n-ary, left to right).
  NodeId seq(std::span<const NodeId> children, double size = -1.0,
             std::string_view label = {}) {
    return add_node(Kind::Seq, children, size, label);
  }
  NodeId seq(std::initializer_list<NodeId> children, double size = -1.0,
             std::string_view label = {}) {
    return add_node(Kind::Seq, children, size, label);
  }

  /// Parallel composition a ‖ b ‖ ....
  NodeId par(std::span<const NodeId> children, double size = -1.0,
             std::string_view label = {}) {
    return add_node(Kind::Par, children, size, label);
  }
  NodeId par(std::initializer_list<NodeId> children, double size = -1.0,
             std::string_view label = {}) {
    return add_node(Kind::Par, children, size, label);
  }

  /// Fire composition: left ~type~> right.
  NodeId fire(FireType type, NodeId left, NodeId right, double size = -1.0,
              std::string_view label = {});

  void set_root(NodeId root);
  NodeId root() const {
    NDF_CHECK_MSG(root_ != kNoNode, "spawn tree has no root");
    return root_;
  }

  std::size_t num_nodes() const { return nodes_.size(); }
  const SpawnNode& node(NodeId id) const {
    NDF_DCHECK(id < nodes_.size());
    return nodes_[id];
  }

  bool is_strand(NodeId id) const { return node(id).kind == Kind::Strand; }

  /// The node's children, left to right (empty for strands). The span is
  /// valid until the next node is created.
  std::span<const NodeId> children(NodeId id) const {
    const SpawnNode& n = node(id);
    return {kids_.data() + n.first_child, n.num_children};
  }

  /// The label the builder gave the node ("" when none), valid until the
  /// next node with a new label is created.
  std::string_view label(NodeId id) const { return label_at(node(id).label); }

  /// A strand's executable payload; an empty function when it has none.
  const Body& body(NodeId id) const {
    return id < bodies_.size() ? bodies_[id] : kNoBody;
  }
  /// Sets (or replaces) a strand's payload. The first non-empty body
  /// allocates the tree's body table.
  void set_body(NodeId id, Body body);
  /// True once any strand has been given a body.
  bool has_bodies() const { return !bodies_.empty(); }

  /// A strand's declared read / write footprint (empty when undeclared),
  /// valid until the next add_reads / add_writes; consumed by the
  /// determinacy check.
  std::span<const MemSegment> reads(NodeId id) const {
    return id < footprints_.size() ? footprints_[id].reads : kNoSegments;
  }
  std::span<const MemSegment> writes(NodeId id) const {
    return id < footprints_.size() ? footprints_[id].writes : kNoSegments;
  }
  /// Appends to a strand's declared footprint. The first non-empty call
  /// allocates the tree's footprint table.
  void add_reads(NodeId id, std::span<const MemSegment> segs);
  void add_writes(NodeId id, std::span<const MemSegment> segs);
  /// True once any strand has declared a footprint.
  bool has_footprints() const { return !footprints_.empty(); }

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
  struct Footprint {
    std::vector<MemSegment> reads, writes;
  };
  inline static const Body kNoBody;
  inline static const std::vector<MemSegment> kNoSegments;

  NodeId add_node(Kind kind, std::span<const NodeId> children, double size,
                  std::string_view label);
  std::uint32_t intern(std::string_view label);
  std::string_view label_at(std::uint32_t ix) const {
    return std::string_view(label_chars_)
        .substr(label_off_[ix], label_off_[ix + 1] - label_off_[ix]);
  }
  Footprint* footprint(NodeId id, std::size_t added);

  FireRules rules_;
  std::vector<SpawnNode> nodes_;
  std::vector<NodeId> kids_;  ///< every node's children, contiguous
  NodeId root_ = kNoNode;

  /// Label table: label i is label_chars_[label_off_[i], label_off_[i+1]);
  /// label 0 is "". Builders name their leaves alike ("mm"), so a label
  /// equal to one of the last few stored reuses that entry.
  std::string label_chars_;
  std::vector<std::uint32_t> label_off_{0, 0};
  std::array<std::uint32_t, 4> recent_labels_{};
  std::vector<Body> bodies_;           ///< by node id; empty until first set
  std::vector<Footprint> footprints_;  ///< by node id; empty until first set
};

}  // namespace ndf
