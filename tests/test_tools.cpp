// Tests for the tooling layer: DOT export, DAG statistics and parallelism
// profiles, static fire-rule validation, and the NP-lowering transform.
#include <gtest/gtest.h>

#include "algos/lcs.hpp"
#include "algos/matmul.hpp"
#include "algos/trs.hpp"
#include "nd/dot.hpp"
#include "nd/drs.hpp"
#include "nd/lower.hpp"
#include "nd/stats.hpp"
#include "nd/validate.hpp"

namespace ndf {
namespace {

TEST(Dot, SpawnTreeMentionsConstructsAndStrands) {
  SpawnTree t;
  const FireType fg = t.rules().add_type("FG");
  t.rules().add_rule(fg, {1}, FireRules::kFull, {1});
  NodeId a = t.strand(1, 1, "alpha");
  NodeId b = t.strand(1, 1, "beta");
  t.set_root(t.fire(fg, a, b, 2));
  const std::string dot = to_dot(t);
  EXPECT_NE(dot.find("alpha"), std::string::npos);
  EXPECT_NE(dot.find("~FG~>"), std::string::npos);
  EXPECT_NE(dot.find("digraph spawn_tree"), std::string::npos);
}

TEST(Dot, DagExportContainsArrows) {
  SpawnTree t = make_mm_tree(8, 4);
  StrandGraph g = elaborate(t);
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("digraph algorithm_dag"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(Dot, DagExportGuardsAgainstHugeGraphs) {
  SpawnTree t = make_mm_tree(32, 2);
  StrandGraph g = elaborate(t);
  EXPECT_THROW(to_dot(g, 16), CheckError);
}

TEST(Stats, ParallelismProfileOfSerialChain) {
  SpawnTree t;
  std::vector<NodeId> ss;
  for (int i = 0; i < 5; ++i) ss.push_back(t.strand(1, 1));
  t.set_root(t.seq(std::move(ss), 5));
  const auto prof = parallelism_profile(elaborate(t));
  ASSERT_EQ(prof.size(), 5u);
  for (std::size_t w : prof) EXPECT_EQ(w, 1u);
}

TEST(Stats, ParallelismProfileOfParBlock) {
  SpawnTree t;
  std::vector<NodeId> ss;
  for (int i = 0; i < 6; ++i) ss.push_back(t.strand(1, 1));
  t.set_root(t.par(std::move(ss), 6));
  const auto prof = parallelism_profile(elaborate(t));
  ASSERT_EQ(prof.size(), 1u);
  EXPECT_EQ(prof[0], 6u);
}

TEST(Stats, LcsNdProfileIsWiderThanNp) {
  SpawnTree t = make_lcs_tree(64, 4);
  const DagStats nd = compute_stats(elaborate(t));
  const DagStats np = compute_stats(elaborate(t, {.np_mode = true}));
  EXPECT_EQ(nd.strands, np.strands);
  EXPECT_DOUBLE_EQ(nd.work, np.work);
  EXPECT_GT(nd.parallelism, np.parallelism);
  EXPECT_LE(nd.depth_levels, np.depth_levels);
  EXPECT_GE(nd.max_level_width, np.max_level_width);
}

TEST(Stats, CountsMatchTree) {
  SpawnTree t = make_mm_tree(16, 4);
  const DagStats s = compute_stats(elaborate(t));
  EXPECT_EQ(s.strands, t.strand_count(t.root()));
  EXPECT_DOUBLE_EQ(s.work, 2.0 * 16 * 16 * 16);
  EXPECT_GT(s.edges, s.strands);  // structural edges alone exceed strands
}

TEST(Validate, AcceptsAllShippedRuleTables) {
  {
    SpawnTree t;
    LinalgTypes::install(t);
    EXPECT_TRUE(validate_rules(t.rules()).empty());
  }
  {
    SpawnTree t;
    LcsTypes::install(t);
    EXPECT_TRUE(validate_rules(t.rules()).empty());
  }
}

TEST(Validate, FlagsNonProductiveSelfRule) {
  FireRules r;
  const FireType a = r.add_type("A");
  r.add_rule(a, {}, a, {});
  const auto issues = validate_rules(r);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].type, a);
}

TEST(Validate, FlagsEmptyPedigreeCycle) {
  FireRules r;
  const FireType a = r.add_type("A");
  const FireType b = r.add_type("B");
  r.add_rule(a, {}, b, {});
  r.add_rule(b, {}, a, {});
  EXPECT_FALSE(validate_rules(r).empty());
}

TEST(Validate, AcceptsEmptyPedigreeDag) {
  FireRules r;
  const FireType a = r.add_type("A");
  const FireType b = r.add_type("B");
  r.add_rule(a, {}, b, {});         // a -> b, no cycle
  r.add_rule(b, {1}, b, {1});       // productive
  EXPECT_TRUE(validate_rules(r).empty());
}

TEST(Lower, LoweredTreeMatchesNpElaboration) {
  for (std::size_t n : {16u, 32u}) {
    SpawnTree t = make_trs_tree(n, 4);
    SpawnTree np = lower_to_np(t);
    // No fire nodes remain.
    for (NodeId i = 0; i < np.num_nodes(); ++i)
      EXPECT_NE(np.node(i).kind, Kind::Fire);
    const double lowered = elaborate(np).span();
    const double np_mode = elaborate(t, {.np_mode = true}).span();
    EXPECT_DOUBLE_EQ(lowered, np_mode);
    EXPECT_DOUBLE_EQ(elaborate(np).work(), elaborate(t).work());
  }
}

TEST(Lower, PreservesKernelsAndFootprints) {
  Matrix<double> A(8, 8, 1.0), B(8, 8, 1.0), C(8, 8, 0.0), Cref(8, 8, 0.0);
  mm_reference(A.view(), B.view(), Cref.view(), 1.0, false);
  SpawnTree t;
  const LinalgTypes ty = LinalgTypes::install(t);
  t.set_root(build_mm(t, ty, 8, 8, 8, 4, 1.0,
                      MmViews{A.view(), B.view(), C.view(), false}));
  SpawnTree np = lower_to_np(t);
  // Execute the lowered tree serially; kernels must have been carried over.
  std::size_t bodies = 0;
  for (NodeId i = 0; i < np.num_nodes(); ++i)
    if (np.is_strand(i) && np.body(i)) {
      np.body(i)();
      ++bodies;
    }
  EXPECT_EQ(bodies, t.strand_count(t.root()));
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j)
      EXPECT_NEAR(C(i, j), Cref(i, j), 1e-9);
}

}  // namespace
}  // namespace ndf
