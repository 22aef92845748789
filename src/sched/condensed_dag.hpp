// Immutable condensation of an elaborated strand DAG against a cache-size
// profile: the per-level σM-maximal decompositions, unit work, task→unit
// counts, and the external-dependence templates every simulation run starts
// from, and every unit's completion frozen into a flat list of effects.
// Building one is the expensive part of simulating a policy (it walks the
// spawn tree once per level and every DAG edge once per level); running
// a policy on top of it is cheap. A sweep over 4 policies × N machines with
// the same cache sizes therefore builds the condensation once and shares it
// across all 4N runs (see src/exp/sweep.hpp), instead of rebuilding it
// inside every SimCore as the pre-split code did.
//
// A CondensedDag depends only on (graph, σ, level cache sizes) — never on
// processor counts, fan-outs or miss costs — so machines that differ only
// in those reuse the same object. SimCore validates compatibility when
// borrowing one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ranges>
#include <span>
#include <vector>

#include "analysis/decompose.hpp"
#include "nd/graph.hpp"

namespace ndf {

class Pmh;

/// The σMi cache-size profile a condensation is keyed by: machine cache
/// sizes from level 1 up.
std::vector<double> level_cache_sizes(const Pmh& machine);

class CondensedDag {
 public:
  /// Decomposes `g`'s spawn tree by σ·sizes[l-1] at every level and
  /// precomputes the run-state templates. `sizes` is ordered level 1 up.
  CondensedDag(const StrandGraph& g, std::vector<double> sizes, double sigma);

  const StrandGraph& graph() const { return *g_; }
  const SpawnTree& tree() const { return *tree_; }
  double sigma() const { return sigma_; }
  const std::vector<double>& sizes() const { return sizes_; }
  std::size_t num_levels() const { return sizes_.size(); }

  /// σM_level-maximal decomposition (level in 1..num_levels()).
  const Decomposition& decomposition(std::size_t level) const {
    return dec_[level - 1];
  }

  /// Atomic units are the σM1-maximal tasks, indexed in spawn-tree
  /// (depth-first, left-to-right) order.
  std::size_t num_units() const { return dec_[0].maximal.size(); }
  NodeId unit_root(int u) const { return dec_[0].maximal[u]; }
  double unit_work(int u) const { return unit_work_[u]; }
  double total_work() const { return total_work_; }

  /// Atomic units inside level-`level` maximal task `t`.
  std::size_t task_units(std::size_t level, int t) const {
    return task_units_[level - 1][t];
  }

  /// Invokes fn(level, task) for every level at which edge (v, w) is an
  /// external incoming arrow of w's maximal task — the boundary-crossing
  /// walk the construction-time template build runs per edge. The event
  /// loop never re-walks it: the result is frozen into the effect lists
  /// below, so the +1 template and SimCore's -1 decrements are literally
  /// the same data and can never diverge.
  template <typename Fn>
  void for_each_external_arrow(VertexId v, VertexId w, Fn&& fn) const {
    const NodeId nu = g_->owner(v), nv = g_->owner(w);
    for (std::size_t l = 1; l <= dec_.size(); ++l) {
      const int tu = dec_[l - 1].owner[nu], tv = dec_[l - 1].owner[nv];
      if (tu == tv && tu >= 0) break;  // internal here and above
      if (tv >= 0) fn(l, tv);
    }
  }

  // --- flat run-state templates (contiguous arenas, memcpy-resettable) ----
  //
  // All per-(level, task) counters of a run live in ONE flat arena indexed
  // by ext_off(level) + task; a SimCore reset is a single vector assign
  // from initial_ext_flat() instead of L allocations.

  /// Offset of level `level`'s counters in the flat (level, task) arena.
  std::size_t ext_off(std::size_t level) const { return ext_off_[level - 1]; }
  /// Size of the flat arena (Σ_level num tasks at that level).
  std::size_t ext_arena_size() const { return ext0_flat_.size(); }
  /// Initial unsatisfied external dataflow arrows, flat arena layout — the
  /// template a run copies its mutable counters from.
  const std::vector<int>& initial_ext_flat() const { return ext0_flat_; }

  // --- frozen firing effects ----------------------------------------------
  //
  // Firing a vertex has two observable effects per out-edge (v, w): one
  // decrement of a (level, task) external-arrow counter per level the edge
  // crosses into w's maximal task, and — when w is a control vertex (one
  // outside every atomic unit) — a decrement of w's in-degree, which
  // cascades w at zero. Edges into unit vertices have no observable
  // in-degree effect: unit vertices fire only when their unit completes.
  //
  // A unit's vertices always fire in one fixed order: the left-to-right
  // post-order of its subtree, enter then exit per node, so the unit
  // root's exit fires last. Node ids are not post-order in every unit, so
  // the order is computed explicitly at build time. Each unit's effects, in
  // that order and then per vertex in successor order, and each control
  // vertex's own effects are stored as one flat CSR of 8-byte entries:
  // list u is unit u's, list num_units() + c is control vertex c's.
  // Control vertices are numbered in vertex order.
  //
  // Firing a node's exit vertex completes every maximal task rooted at that
  // node: a unit's root (its own level-1 task, and the tasks above it that
  // share the root), or a glue node outside every unit. Each list ends with
  // those tasks, in level order, as tagged entries of the same shape — so
  // a unit's whole completion is one scan of contiguous memory, and a list
  // whose vertex roots nothing (an enter vertex, most glue exits) ends
  // with none.

  /// One frozen entry: level == 0 decrements the in-degree of control
  /// vertex `index`; 0 < level < kDone decrements flat counter `index`
  /// (the level-`level` task `index - ext_off(level)` becomes ready at
  /// zero); level == kDone | l completes level-l task `index`.
  struct Effect {
    std::uint32_t index;
    std::uint32_t level;
  };
  static constexpr std::uint32_t kDone = 1u << 31;
  /// Everything completing unit `u` does: its effects in firing order,
  /// then the tasks rooted at its root (level 1, the unit itself, first).
  std::span<const Effect> unit_firing(int u) const {
    return list(std::size_t(u));
  }
  /// Everything firing control vertex `c` does: its effects, then, for an
  /// exit, the tasks rooted at its node.
  std::span<const Effect> control_firing(std::uint32_t c) const {
    return list(num_units() + c);
  }
  /// unit_firing(u) without its completed tasks.
  std::span<const Effect> unit_effects(int u) const {
    return effects(std::size_t(u));
  }
  /// control_firing(c) without its completed tasks.
  std::span<const Effect> control_effects(std::uint32_t c) const {
    return effects(num_units() + c);
  }
  /// Number of control vertices (vertices owned by no atomic unit).
  std::size_t num_controls() const { return ctrl_vertex_.size(); }
  /// Vertex id of control vertex `c`.
  VertexId control_vertex(std::uint32_t c) const { return ctrl_vertex_[c]; }
  /// Initial in-degree per control vertex — the template a run copies its
  /// cascade counters from.
  const std::vector<std::uint32_t>& initial_control_in_degree() const {
    return ctrl_in_deg0_;
  }
  /// Control vertices with no predecessors, in vertex order: the seeds of
  /// every run's initial cascade.
  const std::vector<std::uint32_t>& initially_ready_controls() const {
    return ctrl_ready0_;
  }

  /// Level-`level` maximal task containing unit `u` (flat table — the hot
  /// per-pick lookup of the ws cache model and the occupancy layer).
  int unit_task(std::size_t level, int u) const {
    return int(unit_task_[(level - 1) * num_units() + u]);
  }
  /// Footprint s(t) of level-`level` maximal task `t` (flat arena, same
  /// offsets as the ext counters).
  double task_size(std::size_t level, int t) const {
    return task_size_[ext_off_[level - 1] + t];
  }
  /// True iff level-`level` maximal task `t` exceeds σM_level — a big
  /// strand the decomposition could not subdivide, so no level-`level`
  /// cache can hold it.
  bool task_oversized(std::size_t level, int t) const {
    return task_size(level, t) > sigma_ * sizes_[level - 1];
  }

  // --- the cross-level task tree ------------------------------------------
  //
  // Cache sizes grow with the level, so every level-l maximal task lies
  // inside exactly one level-(l+1) maximal task: the decompositions nest
  // into a tree with the top level's tasks as roots. Tasks are indexed in
  // spawn-tree order and a subtree is contiguous in that order, so a
  // task's children are a contiguous index range: the children CSR needs
  // only its offsets. Both directions live in the ext_off layout.

  /// Level-(level+1) task containing level-`level` task `t`; -1 at the top
  /// level.
  int task_parent(std::size_t level, int t) const {
    return task_parent_[ext_off_[level - 1] + t];
  }
  /// Level-(level-1) tasks inside level-`level` task `t`, in task-index
  /// (spawn-tree) order; empty at level 1.
  std::ranges::iota_view<int, int> task_children(std::size_t level,
                                                  int t) const {
    const int* first = first_child_.data() + ext_off_[level - 1] + level - 1;
    return std::views::iota(first[t], first[t + 1]);
  }

  /// Σ_t s(t) over level-`level` maximal tasks — the schedule-independent
  /// per-level footprint total the distributed charge model bills once.
  double level_footprint(std::size_t level) const {
    return level_footprint_[level - 1];
  }

  /// True iff this condensation can drive a run on `machine` at `sigma`
  /// (same σ, same cache-size profile).
  bool compatible_with(const Pmh& machine, double sigma) const;

  /// Process-wide count of condensations ever built. Tests assert reuse by
  /// differencing it around a sweep ("built exactly once per workload×σ").
  static std::size_t total_builds();
  /// This condensation's position in that count (1-based): unique for the
  /// life of the process, so caches keyed by it cannot be fooled by a freed
  /// dag whose address is reused.
  std::size_t build_id() const { return build_id_; }

 private:
  std::span<const Effect> list(std::size_t i) const {
    return {effects_.data() + effect_off_[i],
            effects_.data() + effect_off_[i + 1]};
  }
  std::span<const Effect> effects(std::size_t i) const {
    std::span<const Effect> s = list(i);
    while (!s.empty() && s.back().level >= kDone) s = s.first(s.size() - 1);
    return s;
  }

  const StrandGraph* g_;
  const SpawnTree* tree_;
  std::size_t build_id_ = 0;
  double sigma_;
  std::vector<double> sizes_;

  std::vector<Decomposition> dec_;                    // dec_[l-1] = σM_l
  std::vector<std::vector<std::size_t>> task_units_;  // [l-1][task]
  std::vector<double> unit_work_;
  double total_work_ = 0.0;

  std::vector<std::size_t> ext_off_;   // [l-1] = arena offset of level l
  std::vector<int> ext0_flat_;         // flat (level, task) template

  // Effect lists: [units + controls + 1] offsets into effects_; each list
  // ends with its completed tasks.
  std::vector<std::uint32_t> effect_off_;
  std::vector<Effect> effects_;
  std::vector<VertexId> ctrl_vertex_;        // [c] = vertex id
  std::vector<std::uint32_t> ctrl_in_deg0_;  // [c] = initial in-degree
  std::vector<std::uint32_t> ctrl_ready0_;   // c with in-degree 0, in order

  std::vector<std::uint32_t> unit_task_; // [(l-1)*units + u] = task at l
  std::vector<double> task_size_;        // flat arena: s(t) per (level, task)
  std::vector<double> level_footprint_;  // [l-1] = Σ_t s(t)

  std::vector<int> task_parent_;  // flat arena: task at level+1, or -1
  std::vector<int> first_child_;  // per level, tasks + 1 offsets: at
                                  // ext_off(l) + l - 1, children of t are
                                  // [first[t], first[t + 1])
};

}  // namespace ndf
