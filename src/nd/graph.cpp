#include "nd/graph.hpp"

#include <algorithm>

namespace ndf {

StrandGraph::StrandGraph(const SpawnTree& tree, std::vector<bool> live,
                         std::span<const StrandEdge> edges,
                         std::vector<TaskArrow> arrows)
    : tree_(&tree),
      live_(std::move(live)),
      offsets_(2 * tree.num_nodes() + 1, 0),
      in_degree_(2 * tree.num_nodes(), 0),
      weight_(2 * tree.num_nodes(), 0.0),
      arrows_(std::move(arrows)) {
  const std::size_t V = in_degree_.size();
  NDF_CHECK_MSG(tree.num_nodes() < (std::size_t(1) << 31),
                "spawn tree has more nodes than 32-bit vertex ids can name");
  NDF_CHECK_MSG(edges.size() < (std::size_t(1) << 32),
                "strand graph has more edges than 32-bit offsets can index");
  NDF_CHECK(live_.size() == tree.num_nodes());
  for (NodeId n = 0; n < tree.num_nodes(); ++n)
    if (live_[n] && tree.node(n).kind == Kind::Strand)
      weight_[exit(n)] = tree.node(n).work;

  // Stable counting sort by source: count, prefix-sum, then place each edge
  // at its source's cursor in list order.
  for (const StrandEdge& e : edges) {
    NDF_DCHECK(e.from < V && e.to < V);
    ++offsets_[e.from + 1];
    ++in_degree_[e.to];
  }
  for (std::size_t v = 0; v < V; ++v) offsets_[v + 1] += offsets_[v];
  targets_.resize(edges.size());
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const StrandEdge& e : edges) targets_[cursor[e.from]++] = e.to;
}

std::vector<VertexId> StrandGraph::topological_order() const {
  std::vector<std::uint32_t> indeg = in_degree_;
  std::vector<VertexId> order;
  order.reserve(num_vertices());
  std::vector<VertexId> frontier;
  for (VertexId v = 0; v < num_vertices(); ++v)
    if (indeg[v] == 0) frontier.push_back(v);
  while (!frontier.empty()) {
    VertexId v = frontier.back();
    frontier.pop_back();
    order.push_back(v);
    for (VertexId w : successors(v))
      if (--indeg[w] == 0) frontier.push_back(w);
  }
  NDF_CHECK_MSG(order.size() == num_vertices(),
                "cycle detected in elaborated DAG ("
                    << order.size() << " of " << num_vertices()
                    << " vertices ordered) — inconsistent fire rules?");
  return order;
}

double StrandGraph::work() const {
  double w = 0.0;
  for (double x : weight_) w += x;
  return w;
}

std::vector<double> StrandGraph::longest_path_to() const {
  const std::vector<VertexId> order = topological_order();
  std::vector<double> dist(num_vertices(), 0.0);
  for (VertexId v : order) {
    dist[v] += weight_[v];
    for (VertexId w : successors(v)) dist[w] = std::max(dist[w], dist[v]);
  }
  return dist;
}

double StrandGraph::span() const {
  const std::vector<double> dist = longest_path_to();
  double s = 0.0;
  for (double d : dist) s = std::max(s, d);
  return s;
}

}  // namespace ndf
