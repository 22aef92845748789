// Direct tests of the StrandGraph API: topological order, longest-path
// distances, cycle detection, and the enter/exit vertex encoding.
#include <gtest/gtest.h>

#include <algorithm>

#include "algos/trs.hpp"
#include "nd/drs.hpp"
#include "nd/graph.hpp"

namespace ndf {
namespace {

SpawnTree diamond() {
  // a ; (b ‖ c) ; d
  SpawnTree t;
  NodeId a = t.strand(1, 1, "a");
  NodeId b = t.strand(2, 1, "b");
  NodeId c = t.strand(3, 1, "c");
  NodeId d = t.strand(4, 1, "d");
  t.set_root(t.seq({a, t.par({b, c}), d}, 4));
  return t;
}

TEST(Graph, VertexEncodingRoundTrips) {
  SpawnTree t = diamond();
  StrandGraph g = elaborate(t);
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    EXPECT_EQ(g.owner(g.enter(n)), n);
    EXPECT_EQ(g.owner(g.exit(n)), n);
    EXPECT_FALSE(g.is_exit(g.enter(n)));
    EXPECT_TRUE(g.is_exit(g.exit(n)));
  }
}

TEST(Graph, TopologicalOrderRespectsEveryEdge) {
  SpawnTree t = make_trs_tree(16, 4);
  StrandGraph g = elaborate(t);
  const auto order = g.topological_order();
  ASSERT_EQ(order.size(), g.num_vertices());
  std::vector<std::size_t> pos(g.num_vertices());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    for (VertexId w : g.successors(v)) EXPECT_LT(pos[v], pos[w]);
}

TEST(Graph, LongestPathToIsMonotoneAlongEdges) {
  SpawnTree t = diamond();
  StrandGraph g = elaborate(t);
  const auto dist = g.longest_path_to();
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    for (VertexId w : g.successors(v))
      EXPECT_LE(dist[v], dist[w]) << v << "->" << w;
  // The sink exit carries the span.
  const double span = *std::max_element(dist.begin(), dist.end());
  EXPECT_DOUBLE_EQ(span, g.span());
  EXPECT_DOUBLE_EQ(span, 1 + 3 + 4);
}

TEST(Graph, CycleIsDetected) {
  SpawnTree t = diamond();
  const StrandGraph dag = elaborate(t);
  // The diamond's edges plus a back edge exit(root) -> enter(root).
  std::vector<StrandEdge> edges;
  for (VertexId v = 0; v < dag.num_vertices(); ++v)
    for (VertexId w : dag.successors(v)) edges.push_back({v, w});
  edges.push_back({dag.exit(t.root()), dag.enter(t.root())});
  const StrandGraph g(t, t.reachable(), edges);
  EXPECT_THROW(g.topological_order(), CheckError);
  EXPECT_THROW(g.span(), CheckError);
}

TEST(Graph, EdgeAndWeightAccounting) {
  SpawnTree t = diamond();
  StrandGraph g = elaborate(t);
  // 4 strands: enter->exit each (4), tree edges 2 per child of each
  // composite (root: 3 children => 6; par: 2 children => 4), seq arrows 2.
  EXPECT_EQ(g.num_edges(), 4u + 6u + 4u + 2u);
  EXPECT_DOUBLE_EQ(g.work(), 10.0);
  EXPECT_EQ(g.in_degree(g.enter(t.root())), 0u);
}

TEST(Graph, ArrowsRecordSeqAndFireOnly) {
  SpawnTree t = diamond();
  StrandGraph g = elaborate(t);
  // Two seq arrows: a -> par, par -> d.
  ASSERT_EQ(g.arrows().size(), 2u);
  EXPECT_EQ(g.arrows()[0].from, 0u);  // strand a is node 0
}

}  // namespace
}  // namespace ndf
