#include "sched/condensed_dag.hpp"

#include <algorithm>
#include <atomic>

#include "pmh/machine.hpp"

namespace ndf {

namespace {
std::atomic<std::size_t> g_builds{0};
}  // namespace

std::vector<double> level_cache_sizes(const Pmh& machine) {
  std::vector<double> sizes;
  sizes.reserve(machine.num_cache_levels());
  for (std::size_t l = 1; l <= machine.num_cache_levels(); ++l)
    sizes.push_back(machine.cache_size(l));
  return sizes;
}

CondensedDag::CondensedDag(const StrandGraph& g, std::vector<double> sizes,
                           double sigma)
    : g_(&g), tree_(&g.tree()), sigma_(sigma), sizes_(std::move(sizes)) {
  NDF_CHECK(sigma_ > 0.0 && sigma_ < 1.0);
  NDF_CHECK_MSG(!sizes_.empty(), "condensation needs at least one cache level");
  build_id_ = ++g_builds;

  const std::size_t L = sizes_.size();
  for (std::size_t l = 2; l <= L; ++l)
    NDF_CHECK_MSG(sizes_[l - 1] >= sizes_[l - 2],
                  "condensation cache sizes must not shrink with the level");
  dec_.reserve(L);
  for (std::size_t l = 1; l <= L; ++l)
    dec_.push_back(decompose(*tree_, sigma_ * sizes_[l - 1]));

  // Flat (level, task) arena layout: level l's counters start at
  // ext_off_[l-1]. All per-run counter state and the per-task size table
  // share these offsets.
  ext_off_.resize(L);
  std::size_t arena = 0;
  for (std::size_t l = 1; l <= L; ++l) {
    ext_off_[l - 1] = arena;
    arena += dec_[l - 1].maximal.size();
  }
  ext0_flat_.assign(arena, 0);

  task_units_.resize(L);
  for (std::size_t l = 1; l <= L; ++l)
    task_units_[l - 1].assign(dec_[l - 1].maximal.size(), 0);

  unit_task_.resize(L * num_units());
  for (std::size_t u = 0; u < num_units(); ++u)
    for (std::size_t l = 1; l <= L; ++l) {
      const int t = dec_[l - 1].owner[dec_[0].maximal[u]];
      unit_task_[(l - 1) * num_units() + u] = std::uint32_t(t);
      ++task_units_[l - 1][t];
    }

  task_size_.resize(arena);
  level_footprint_.assign(L, 0.0);
  for (std::size_t l = 1; l <= L; ++l)
    for (std::size_t t = 0; t < dec_[l - 1].maximal.size(); ++t) {
      const double s = dec_[l - 1].maximal_size[t];
      task_size_[ext_off_[l - 1] + t] = s;
      level_footprint_[l - 1] += s;
    }

  // The task tree: each task's parent is the level-(l+1) task owning its
  // root. Parents come out in non-decreasing order (checked), so each
  // task's children are the contiguous range its first_child_ bounds.
  task_parent_.assign(arena, -1);
  first_child_.assign(arena + L, 0);
  for (std::size_t l = 1; l < L; ++l) {
    const std::size_t n = dec_[l - 1].maximal.size();
    int* first = first_child_.data() + ext_off_[l] + l;  // level l+1's
    int prev = 0;
    for (std::size_t t = 0; t < n; ++t) {
      const int p = dec_[l].owner[dec_[l - 1].maximal[t]];
      NDF_CHECK(p >= prev);
      task_parent_[ext_off_[l - 1] + t] = p;
      for (; prev < p; ++prev) first[prev + 1] = int(t);
    }
    for (std::size_t q = std::size_t(prev) + 1;
         q <= dec_[l].maximal.size(); ++q)
      first[q] = int(n);
  }

  // Control vertices: both vertices of every node outside the atomic
  // units, numbered in vertex order. ctrl_base[n] is the number of node
  // n's enter vertex when n is such a node (its exit is the next number).
  const std::vector<int>& unit_of = dec_[0].owner;
  const std::size_t controls =
      2 * std::size_t(std::count(unit_of.begin(), unit_of.end(), -1));
  ctrl_vertex_.reserve(controls);
  ctrl_in_deg0_.reserve(controls);
  std::vector<std::uint32_t> ctrl_base(tree_->num_nodes());
  for (NodeId n = 0; n < tree_->num_nodes(); ++n) {
    ctrl_base[n] = std::uint32_t(ctrl_vertex_.size());
    if (unit_of[n] >= 0) continue;
    for (const VertexId v : {g_->enter(n), g_->exit(n)}) {
      if (g_->in_degree(v) == 0)
        ctrl_ready0_.push_back(std::uint32_t(ctrl_vertex_.size()));
      ctrl_vertex_.push_back(v);
      ctrl_in_deg0_.push_back(std::uint32_t(g_->in_degree(v)));
    }
  }

  // Dependence-counter template and the effect lists, built by the one
  // boundary-crossing walk (for_each_external_arrow) over every edge: each
  // vertex belongs to exactly one unit or is a control vertex, so every
  // edge is visited once, from its source's list.
  std::size_t edges = 0;
  auto add_vertex = [&](VertexId v) {
    const std::span<const VertexId> succ = g_->successors(v);
    edges += succ.size();
    for (VertexId w : succ) {
      for_each_external_arrow(v, w, [&](std::size_t l, int t) {
        const std::size_t flat = ext_off_[l - 1] + std::size_t(t);
        ++ext0_flat_[flat];
        effects_.push_back({std::uint32_t(flat), std::uint32_t(l)});
      });
      const NodeId nw = g_->owner(w);
      if (unit_of[nw] < 0)
        effects_.push_back({ctrl_base[nw] + (g_->is_exit(w) ? 1 : 0), 0});
    }
  };
  // Completed tasks. Each maximal task closes the list of its root's exit:
  // a unit's list, or the list of a glue node's exit vertex. One pass over
  // the decompositions counts them per list. A unit root is a task root at
  // levels 1..k, its count (it lies inside a task at every level, and once
  // strictly inside one, inside one above too), so its tasks are its
  // unit_task_ entries; a glue node is walked level by level, and only
  // when it roots something.
  NDF_CHECK_MSG(L <= UINT8_MAX, "too many cache levels");
  std::vector<std::uint8_t> done(num_units() + ctrl_vertex_.size(), 0);
  for (std::size_t l = 1; l <= L; ++l)
    for (const NodeId n : dec_[l - 1].maximal)
      ++done[unit_of[n] >= 0 ? std::size_t(unit_of[n])
                             : num_units() + ctrl_base[n] + 1];
  auto close_list = [&](std::size_t list, NodeId n) {
    if (list < num_units()) {
      for (std::size_t l = 1; l <= done[list]; ++l)
        effects_.push_back({unit_task_[(l - 1) * num_units() + list],
                            kDone | std::uint32_t(l)});
    } else {
      for (std::size_t l = 1, found = 0; found < done[list]; ++l) {
        const int t = dec_[l - 1].owner[n];
        if (t < 0 || dec_[l - 1].maximal[t] != n) continue;
        effects_.push_back({std::uint32_t(t), kDone | std::uint32_t(l)});
        ++found;
      }
    }
    NDF_CHECK_MSG(effects_.size() <= UINT32_MAX, "too many firing effects");
    effect_off_.push_back(std::uint32_t(effects_.size()));
  };
  effect_off_.reserve(num_units() + ctrl_vertex_.size() + 1);
  effect_off_.push_back(0);
  // A unit's left-to-right post-order, one explicit DFS per unit. The same
  // walk sums the unit's work exactly as SpawnTree::work_of does: a
  // strand's own work, else its children's works added left to right.
  struct Visit {
    NodeId node;
    std::uint32_t next;  // next child to descend into
    double work;         // children's works summed so far
  };
  std::vector<Visit> stack;
  unit_work_.resize(num_units());
  for (std::size_t u = 0; u < num_units(); ++u) {
    stack.push_back({dec_[0].maximal[u], 0, 0.0});
    while (true) {
      Visit& top = stack.back();
      const SpawnNode& node = tree_->node(top.node);
      if (top.next < node.num_children) {
        stack.push_back({tree_->children(top.node)[top.next++], 0, 0.0});
        continue;
      }
      add_vertex(g_->enter(top.node));
      add_vertex(g_->exit(top.node));
      const double work = node.kind == Kind::Strand ? node.work : top.work;
      stack.pop_back();
      if (stack.empty()) {
        unit_work_[u] = work;
        break;
      }
      stack.back().work += work;
    }
    total_work_ += unit_work_[u];
    close_list(u, dec_[0].maximal[u]);
  }
  for (std::size_t c = 0; c < ctrl_vertex_.size(); ++c) {
    add_vertex(ctrl_vertex_[c]);
    close_list(num_units() + c, g_->owner(ctrl_vertex_[c]));
  }
  NDF_CHECK(edges == g_->num_edges());
  effects_.shrink_to_fit();
}

bool CondensedDag::compatible_with(const Pmh& machine, double sigma) const {
  if (sigma != sigma_) return false;
  if (machine.num_cache_levels() != sizes_.size()) return false;
  for (std::size_t l = 1; l <= sizes_.size(); ++l)
    if (machine.cache_size(l) != sizes_[l - 1]) return false;
  return true;
}

std::size_t CondensedDag::total_builds() { return g_builds.load(); }

}  // namespace ndf
