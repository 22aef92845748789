#include "nd/stats.hpp"

#include <algorithm>

namespace ndf {

std::vector<std::size_t> parallelism_profile(const StrandGraph& g) {
  const SpawnTree& tree = g.tree();
  // Depth = number of strands on the longest path ending at each vertex
  // (control vertices pass depth through; a strand's exit adds one).
  const std::vector<VertexId> order = g.topological_order();
  std::vector<std::uint32_t> depth(g.num_vertices(), 0);
  std::uint32_t max_depth = 0;
  for (VertexId v : order) {
    std::uint32_t d = depth[v];
    if (g.is_exit(v) && tree.node(g.owner(v)).kind == Kind::Strand) ++d;
    max_depth = std::max(max_depth, d);
    for (VertexId w : g.successors(v)) depth[w] = std::max(depth[w], d);
  }
  std::vector<std::size_t> hist(max_depth, 0);
  for (NodeId n = 0; n < tree.num_nodes(); ++n)
    if (tree.node(n).kind == Kind::Strand && g.live(n))
      ++hist[depth[g.enter(n)]];  // depth *before* executing the strand
  return hist;
}

DagStats compute_stats(const StrandGraph& g) {
  DagStats s;
  const SpawnTree& tree = g.tree();
  for (NodeId n = 0; n < tree.num_nodes(); ++n)
    if (tree.node(n).kind == Kind::Strand && g.live(n))
      ++s.strands;
  s.edges = g.num_edges();
  s.work = g.work();
  s.span = g.span();
  s.parallelism = s.span > 0 ? s.work / s.span : 0.0;
  const auto prof = parallelism_profile(g);
  s.depth_levels = prof.size();
  for (std::size_t w : prof) s.max_level_width = std::max(s.max_level_width, w);
  s.avg_level_width =
      prof.empty() ? 0.0 : double(s.strands) / double(prof.size());
  return s;
}

}  // namespace ndf
