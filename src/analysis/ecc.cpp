#include "analysis/ecc.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace ndf {

double MaximalDag::longest_chain(const std::vector<double>& weights) const {
  NDF_CHECK(weights.size() == num_maximal);
  auto weight = [&](std::uint32_t v) {
    return v < num_maximal ? weights[v] : 0.0;
  };
  // Kahn order + DP.
  std::vector<std::uint32_t> indeg = in_degree;
  std::vector<std::uint32_t> frontier;
  std::vector<double> dist(num_supernodes(), 0.0);
  std::size_t seen = 0;
  for (std::uint32_t v = 0; v < num_supernodes(); ++v)
    if (indeg[v] == 0) frontier.push_back(v);
  double best = 0.0;
  while (!frontier.empty()) {
    std::uint32_t v = frontier.back();
    frontier.pop_back();
    ++seen;
    dist[v] += weight(v);
    best = std::max(best, dist[v]);
    for (std::uint32_t w : succ[v]) {
      dist[w] = std::max(dist[w], dist[v]);
      if (--indeg[w] == 0) frontier.push_back(w);
    }
  }
  NDF_CHECK_MSG(seen == num_supernodes(),
                "condensed maximal-task graph has a cycle");
  return best;
}

MaximalDag build_maximal_dag(const StrandGraph& g, const Decomposition& d) {
  // Supernode mapping: vertex v of the strand graph -> supernode id.
  // Maximal task i -> i. Glue vertices get fresh ids after the maximals.
  const std::uint32_t nm = static_cast<std::uint32_t>(d.maximal.size());
  std::vector<std::uint32_t> super(g.num_vertices(),
                                   std::uint32_t(-1));
  std::uint32_t next = nm;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const NodeId n = g.owner(v);
    const int own = d.owner[n];
    if (own >= 0)
      super[v] = static_cast<std::uint32_t>(own);
    else if (g.live(n))
      super[v] = next++;
  }

  MaximalDag m;
  m.num_maximal = nm;
  m.succ.resize(next);
  m.in_degree.assign(next, 0);

  std::unordered_set<std::uint64_t> seen;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (super[v] == std::uint32_t(-1)) continue;
    for (VertexId w : g.successors(v)) {
      const std::uint32_t a = super[v], b = super[w];
      if (a == b || b == std::uint32_t(-1)) continue;
      const std::uint64_t key = (std::uint64_t(a) << 32) | b;
      if (!seen.insert(key).second) continue;
      m.succ[a].push_back(b);
      ++m.in_degree[b];
    }
  }
  return m;
}

EccResult effective_cache_complexity(const SpawnTree& tree,
                                     const StrandGraph& g,
                                     const Decomposition& d, double alpha) {
  NDF_CHECK(alpha >= 0.0);
  const MaximalDag m = build_maximal_dag(g, d);

  const double s_root = tree.size_of(tree.root());
  NDF_CHECK(s_root > 0.0);

  // Effective depth of each maximal task ti: ⌈Q̂α(ti)/s(ti)^α⌉ with
  // Q̂α(ti) = Q*(ti;M) = s(ti), i.e. ⌈s(ti)^{1-α}⌉.
  std::vector<double> eff(d.maximal.size());
  double q_sum = 0.0;
  for (std::size_t i = 0; i < d.maximal.size(); ++i) {
    const double s = d.maximal_size[i];
    NDF_CHECK(s > 0.0);
    eff[i] = std::ceil(std::pow(s, 1.0 - alpha));
    q_sum += s;
  }

  EccResult r;
  r.depth_term = m.longest_chain(eff);
  r.work_term = std::ceil(q_sum / std::pow(s_root, alpha));
  r.effective_depth = std::max(r.depth_term, r.work_term);
  r.q_hat = r.effective_depth * std::pow(s_root, alpha);
  return r;
}

double parallelizability(const SpawnTree& tree, const StrandGraph& g,
                         const Decomposition& d, double cU, double lo,
                         double hi, double step) {
  const double q_star = parallel_cache_complexity(tree, d);
  double best = lo;
  for (double a = lo; a <= hi + 1e-12; a += step) {
    const EccResult r = effective_cache_complexity(tree, g, d, a);
    if (r.q_hat <= cU * q_star)
      best = a;
    else
      break;  // q_hat/q_star is monotone in α once depth dominates
  }
  return best;
}

}  // namespace ndf
