#include "nd/drs.hpp"

#include <algorithm>

namespace ndf {

namespace {

/// Marks an emitted edge whose solid arrow repeats an earlier one. No real
/// vertex has this id (trees hold fewer than 2^31 nodes).
constexpr VertexId kDropped = static_cast<VertexId>(-1);

class Elaborator {
 public:
  Elaborator(const SpawnTree& tree, ElabOptions opts)
      : tree_(tree), opts_(opts), live_(tree.reachable()) {}

  StrandGraph run() && {
    // Structural + seq edges for every node reachable from the root, in
    // node-id order.
    for (NodeId n = 0; n < tree_.num_nodes(); ++n) {
      if (!live_[n]) continue;  // ignore detached nodes
      const SpawnNode& node = tree_.node(n);
      const std::span<const NodeId> kids = tree_.children(n);
      switch (node.kind) {
        case Kind::Strand:
          edges_.push_back({StrandGraph::enter(n), StrandGraph::exit(n)});
          break;
        case Kind::Seq:
          link_children(n, kids);
          for (std::size_t i = 0; i + 1 < kids.size(); ++i)
            solid(kids[i], kids[i + 1]);
          break;
        case Kind::Par:
          link_children(n, kids);
          break;
        case Kind::Fire:
          link_children(n, kids);
          rewrite(kids[0], kids[1], node.fire_type, 0);
          break;
      }
    }
    drop_repeated_arrows();
    return StrandGraph(tree_, std::move(live_), edges_, std::move(arrows_));
  }

 private:
  void link_children(NodeId n, std::span<const NodeId> kids) {
    for (NodeId c : kids) {
      edges_.push_back({StrandGraph::enter(n), StrandGraph::enter(c)});
      edges_.push_back({StrandGraph::exit(c), StrandGraph::exit(n)});
    }
  }

  /// Emits the solid arrow a → b (full dependency between subtrees).
  /// Repeats are emitted too and dropped once at the end.
  void solid(NodeId a, NodeId b) {
    arrow_edge_.push_back(edges_.size());
    edges_.push_back({StrandGraph::exit(a), StrandGraph::enter(b)});
    arrows_.push_back({a, b});
  }

  void rewrite(NodeId a, NodeId b, FireType type, int depth) {
    NDF_CHECK_MSG(depth < 256, "fire-rule rewriting did not terminate");
    if (type == FireRules::kEmpty) return;
    if (type == FireRules::kFull || opts_.np_mode) {
      solid(a, b);
      return;
    }

    const auto& rules = tree_.rules().rules(type);
    const bool a_strand = tree_.is_strand(a);
    const bool b_strand = tree_.is_strand(b);
    if (a_strand && b_strand) {
      // Recursion terminated: a named fire type between strands is a full
      // dependency (types with no rules behave like "‖").
      if (!rules.empty()) solid(a, b);
      return;
    }
    for (const FireRule& r : rules) {
      const NodeId sa = tree_.descend(a, r.src);
      const NodeId sb = tree_.descend(b, r.dst);
      // Progress guard: at least one endpoint must move, or the type must
      // change, for the rewriting to be well-founded.
      NDF_CHECK_MSG(sa != a || sb != b || r.inner != type,
                    "non-productive fire rule in type "
                        << tree_.rules().name(type));
      rewrite(sa, sb, r.inner, depth + 1);
    }
  }

  /// Keeps the first copy of every solid arrow (a, b) and drops later
  /// repeats, both from arrows_ and from edges_ (two fire-rule paths may
  /// reach the same pair of subtrees). Arrows are grouped by source with a
  /// stable counting sort, so each group lists its arrows in emission
  /// order and the first of equal targets is the one kept.
  void drop_repeated_arrows() {
    const std::size_t A = arrows_.size();
    std::vector<std::uint32_t> start(tree_.num_nodes() + 1, 0);
    for (const TaskArrow& t : arrows_) ++start[t.from + 1];
    for (std::size_t n = 0; n < tree_.num_nodes(); ++n)
      start[n + 1] += start[n];
    std::vector<std::uint32_t> by_src(A);
    {
      std::vector<std::uint32_t> cursor(start.begin(), start.end() - 1);
      for (std::uint32_t i = 0; i < A; ++i)
        by_src[cursor[arrows_[i].from]++] = i;
    }

    bool any = false;
    const auto drop = [&](std::uint32_t i) {
      edges_[arrow_edge_[i]].from = kDropped;
      any = true;
    };
    for (std::size_t n = 0; n < tree_.num_nodes(); ++n) {
      const auto lo = by_src.begin() + start[n];
      const auto hi = by_src.begin() + start[n + 1];
      if (hi - lo < 2) continue;
      // Ascending (target, index): each run of equal targets starts with
      // its first copy.
      std::sort(lo, hi, [&](std::uint32_t x, std::uint32_t y) {
        return arrows_[x].to != arrows_[y].to ? arrows_[x].to < arrows_[y].to
                                              : x < y;
      });
      for (auto it = lo + 1; it != hi; ++it)
        if (arrows_[*it].to == arrows_[*(it - 1)].to) drop(*it);
    }
    if (!any) return;

    std::size_t k = 0;
    for (std::size_t i = 0; i < A; ++i)
      if (edges_[arrow_edge_[i]].from != kDropped) arrows_[k++] = arrows_[i];
    arrows_.resize(k);
    std::erase_if(edges_,
                  [](const StrandEdge& e) { return e.from == kDropped; });
  }

  const SpawnTree& tree_;
  ElabOptions opts_;
  std::vector<bool> live_;
  std::vector<StrandEdge> edges_;
  std::vector<TaskArrow> arrows_;
  std::vector<std::size_t> arrow_edge_;  ///< index in edges_ of each arrow
};

}  // namespace

StrandGraph elaborate(const SpawnTree& tree, ElabOptions opts) {
  return Elaborator(tree, opts).run();
}

}  // namespace ndf
