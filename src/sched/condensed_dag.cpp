#include "sched/condensed_dag.hpp"

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
  ++g_builds;

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
      const double s = tree_->size_of(dec_[l - 1].maximal[t]);
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

  unit_work_.resize(num_units());
  for (std::size_t u = 0; u < num_units(); ++u) {
    unit_work_[u] = tree_->work_of(dec_[0].maximal[u]);
    total_work_ += unit_work_[u];
  }

  // Dependence-counter template and the per-edge arrow CSR, built by the
  // one boundary-crossing walk (for_each_external_arrow). Edge ids follow
  // (vertex, successor-index) order — exactly the order SimCore's firing
  // loop visits them — so the event loop replays this walk as a linear
  // scan of arrows_ instead of re-deriving it per fire.
  edge_base_.resize(g_->num_vertices());
  arrow_off_.reserve(g_->num_edges() + 1);
  arrow_off_.push_back(0);
  std::size_t e = 0;
  for (VertexId v = 0; v < g_->num_vertices(); ++v) {
    edge_base_[v] = e;
    for (VertexId w : g_->successors(v)) {
      for_each_external_arrow(v, w, [&](std::size_t l, int t) {
        const std::size_t flat = ext_off_[l - 1] + std::size_t(t);
        ++ext0_flat_[flat];
        arrows_.push_back({std::uint32_t(flat), std::uint32_t(l)});
      });
      arrow_off_.push_back(std::uint32_t(arrows_.size()));
      ++e;
    }
  }
  NDF_CHECK(e == g_->num_edges());

  in_deg0_.resize(g_->num_vertices());
  for (VertexId v = 0; v < g_->num_vertices(); ++v)
    in_deg0_[v] = g_->in_degree(v);
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
