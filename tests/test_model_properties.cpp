// Cross-algorithm property tests of the model itself, parameterized over
// every algorithm family and a sweep of sizes:
//   P1  work is identical under ND and NP elaboration (only ordering moves)
//   P2  ND span never exceeds NP span (removing artificial dependencies
//       cannot lengthen the critical path)
//   P3  span is at least the heaviest strand and at most the work
//   P4  elaboration is deterministic (same edge multiset both times)
//   P5  Q* is composition-independent and monotone non-increasing in M
//   P6  Q̂α is monotone non-decreasing in α (up to ceiling slack) and
//       bounded below by Q*-minus-glue at α = 0
//   P7  M-maximal decompositions are nested across increasing M and cover
//       every strand exactly once
//   P8  left-to-right DFS of the spawn tree is a valid serial schedule
//       (every recorded arrow points forward in DFS order)
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "algos/cholesky.hpp"
#include "algos/fw1d.hpp"
#include "algos/fw2d.hpp"
#include "algos/gotoh.hpp"
#include "algos/lcs.hpp"
#include "algos/lu.hpp"
#include "algos/matmul.hpp"
#include "algos/trs.hpp"
#include "analysis/decompose.hpp"
#include "analysis/ecc.hpp"
#include "analysis/pcc.hpp"
#include "nd/drs.hpp"

namespace ndf {
namespace {

struct AlgoCase {
  const char* name;
  std::function<SpawnTree(std::size_t, std::size_t)> make;
  std::size_t n;
  std::size_t base;
};

std::vector<AlgoCase> all_cases() {
  std::vector<AlgoCase> cs;
  for (std::size_t n : {16u, 24u, 32u}) {
    cs.push_back({"mm", [](std::size_t n_, std::size_t b) {
                    return make_mm_tree(n_, b);
                  },
                  n, 4});
    cs.push_back({"trs", make_trs_tree, n, 4});
    cs.push_back({"cho", make_cholesky_tree, n, 4});
    cs.push_back({"lu", make_lu_tree, n, 4});
    cs.push_back({"fw2d", make_fw2d_tree, n, 4});
  }
  for (std::size_t n : {32u, 64u, 96u}) {
    cs.push_back({"lcs", make_lcs_tree, n, 4});
    cs.push_back({"gotoh", make_gotoh_tree, n, 4});
    cs.push_back({"fw1d", make_fw1d_tree, n, 4});
  }
  return cs;
}

class ModelProperty : public ::testing::TestWithParam<std::size_t> {
 protected:
  const AlgoCase& c() const {
    static const std::vector<AlgoCase> cs = all_cases();
    return cs[GetParam()];
  }
};

TEST_P(ModelProperty, WorkInvariantUnderElaborationMode) {  // P1
  SpawnTree t = c().make(c().n, c().base);
  EXPECT_DOUBLE_EQ(elaborate(t).work(),
                   elaborate(t, {.np_mode = true}).work());
  EXPECT_DOUBLE_EQ(elaborate(t).work(), t.work_of(t.root()));
}

TEST_P(ModelProperty, NdSpanAtMostNpSpan) {  // P2
  SpawnTree t = c().make(c().n, c().base);
  EXPECT_LE(elaborate(t).span(),
            elaborate(t, {.np_mode = true}).span() + 1e-9);
}

TEST_P(ModelProperty, SpanBounds) {  // P3
  SpawnTree t = c().make(c().n, c().base);
  StrandGraph g = elaborate(t);
  double heaviest = 0.0;
  for (NodeId n = 0; n < t.num_nodes(); ++n)
    if (t.node(n).kind == Kind::Strand && t.in_subtree(n, t.root()))
      heaviest = std::max(heaviest, t.node(n).work);
  EXPECT_GE(g.span(), heaviest);
  EXPECT_LE(g.span(), g.work() + 1e-9);
}

TEST_P(ModelProperty, ElaborationIsDeterministic) {  // P4
  SpawnTree t = c().make(c().n, c().base);
  StrandGraph a = elaborate(t);
  StrandGraph b = elaborate(t);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.arrows().size(), b.arrows().size());
  EXPECT_DOUBLE_EQ(a.span(), b.span());
}

TEST_P(ModelProperty, PccMonotoneInM) {  // P5
  SpawnTree t = c().make(c().n, c().base);
  double prev = 1e300;
  for (double M : {16.0, 64.0, 256.0, 1024.0, 4096.0}) {
    const double q = parallel_cache_complexity(t, M);
    EXPECT_LE(q, prev * 1.01)
        << c().name << ": Q* rose from M smaller to M=" << M;
    EXPECT_GT(q, 0.0);
    prev = q;
  }
}

TEST_P(ModelProperty, EccQhatMonotoneInAlpha) {  // P6
  SpawnTree t = c().make(c().n, c().base);
  StrandGraph g = elaborate(t);
  Decomposition d = decompose(t, 64.0);
  const double q_star = parallel_cache_complexity(t, d);
  double prev = 0.0;
  for (double a : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const EccResult r = effective_cache_complexity(t, g, d, a);
    // Q̂α = ⌈·⌉·s^α: the underlying quantity is non-decreasing in α; the
    // ceiling introduces at most one s^α of slack in each term.
    EXPECT_GE(r.q_hat, prev * 0.90 - 1e-9) << "alpha=" << a;
    prev = std::max(prev, r.q_hat);
    EXPECT_GE(r.q_hat + 1e-9,
              q_star - double(d.glue.size()) * kGlueCost);
  }
}

TEST_P(ModelProperty, DecompositionsNestAndCover) {  // P7
  SpawnTree t = c().make(c().n, c().base);
  const Decomposition fine = decompose(t, 32.0);
  const Decomposition coarse = decompose(t, 512.0);
  // Cover: every strand owned exactly once at each granularity.
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    if (t.node(n).kind != Kind::Strand || !t.in_subtree(n, t.root()))
      continue;
    ASSERT_GE(fine.owner[n], 0);
    ASSERT_GE(coarse.owner[n], 0);
  }
  // Nesting: two strands in the same fine task share their coarse task.
  for (std::size_t i = 0; i < fine.maximal.size(); ++i) {
    const auto strands = t.strands_under(fine.maximal[i]);
    for (NodeId s : strands)
      EXPECT_EQ(coarse.owner[s], coarse.owner[strands[0]]);
  }
  EXPECT_LE(coarse.maximal.size(), fine.maximal.size());
}

TEST_P(ModelProperty, DfsOrderIsValidSerialSchedule) {  // P8
  SpawnTree t = c().make(c().n, c().base);
  StrandGraph g = elaborate(t);
  // DFS position of every node.
  std::vector<std::size_t> pos(t.num_nodes(), 0);
  std::size_t counter = 0;
  std::vector<NodeId> stack{t.root()};
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    pos[n] = counter++;
    const auto ch = t.children(n);
    for (auto it = ch.rbegin(); it != ch.rend(); ++it) stack.push_back(*it);
  }
  for (const TaskArrow& a : g.arrows())
    EXPECT_LT(pos[a.from], pos[a.to])
        << c().name << ": arrow " << a.from << "->" << a.to
        << " points backwards in DFS order";
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgos, ModelProperty,
    ::testing::Range<std::size_t>(0, all_cases().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      static const std::vector<AlgoCase> cs = all_cases();
      return std::string(cs[info.param].name) + "_n" +
             std::to_string(cs[info.param].n);
    });

}  // namespace
}  // namespace ndf
