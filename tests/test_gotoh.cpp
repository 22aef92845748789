// Affine-gap alignment (Gotoh): numeric equivalence with the serial
// reference, determinacy of the reused LCS fire types over the three-table
// footprint, ND span optimality, and runtime execution.
#include <gtest/gtest.h>

#include "algos/gotoh.hpp"
#include "analysis/determinacy.hpp"
#include "nd/drs.hpp"
#include "runtime/executor.hpp"
#include "support/fit.hpp"
#include "support/rng.hpp"

namespace ndf {
namespace {

struct Fixture {
  std::vector<int> S, T;
  Matrix<double> M, E, F;
  GotohParams params;

  explicit Fixture(std::size_t n, std::uint64_t seed = 11)
      : M(n + 1, n + 1, 0.0), E(n + 1, n + 1, 0.0), F(n + 1, n + 1, 0.0) {
    Rng rng(seed);
    S.resize(n);
    T.resize(n);
    for (auto& x : S) x = int(rng.below(4));
    for (std::size_t i = 0; i < n; ++i)
      T[i] = rng.uniform() < 0.25 ? int(rng.below(4)) : S[i];
  }
};

class GotohSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GotohSizes, NdExecutionMatchesReference) {
  const std::size_t n = GetParam(), base = 4;
  Fixture ref(n), nd(n);
  const double expected =
      gotoh_reference(ref.S, ref.T, ref.params, ref.M, ref.E, ref.F);

  gotoh_init_borders(nd.params, nd.M, nd.E, nd.F);
  SpawnTree t;
  const LcsTypes ty = LcsTypes::install(t);
  t.set_root(build_gotoh(t, ty, n, base,
                         GotohViews{&nd.S, &nd.T, &nd.M, &nd.E, &nd.F,
                                    nd.params}));
  execute_serial(elaborate(t));
  const double got = std::max({nd.M(n, n), nd.E(n, n), nd.F(n, n)});
  EXPECT_NEAR(got, expected, 1e-9);
  for (std::size_t i = 0; i <= n; ++i)
    for (std::size_t j = 0; j <= n; ++j)
      EXPECT_NEAR(nd.M(i, j), ref.M(i, j), 1e-9);
}

TEST_P(GotohSizes, Determinacy) {
  const std::size_t n = GetParam();
  Fixture f(n);
  gotoh_init_borders(f.params, f.M, f.E, f.F);
  SpawnTree t;
  const LcsTypes ty = LcsTypes::install(t);
  t.set_root(build_gotoh(t, ty, n, 2,
                         GotohViews{&f.S, &f.T, &f.M, &f.E, &f.F, f.params}));
  const auto rep = check_determinacy(elaborate(t));
  EXPECT_TRUE(rep.ok) << rep.message;
  EXPECT_GT(rep.conflicting_pairs, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GotohSizes,
                         ::testing::Values(4, 8, 12, 16, 17),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           std::string name = "n";
                           name += std::to_string(i.param);
                           return name;
                         });

TEST(Gotoh, NdSpanLinearNpSuperlinear) {
  std::vector<double> ns, nd, np;
  for (std::size_t n : {64, 128, 256, 512}) {
    SpawnTree t = make_gotoh_tree(n, 2);
    ns.push_back(double(n));
    nd.push_back(elaborate(t).span());
    np.push_back(elaborate(t, {.np_mode = true}).span());
  }
  EXPECT_NEAR(fit_loglog(ns, nd).slope, 1.0, 0.1);
  EXPECT_GT(fit_loglog(ns, np).slope, 1.05);
}

TEST(Gotoh, ParallelRuntimeMatchesReference) {
  const std::size_t n = 128, base = 16;
  Fixture ref(n), nd(n);
  const double expected =
      gotoh_reference(ref.S, ref.T, ref.params, ref.M, ref.E, ref.F);
  gotoh_init_borders(nd.params, nd.M, nd.E, nd.F);
  SpawnTree t;
  const LcsTypes ty = LcsTypes::install(t);
  t.set_root(build_gotoh(t, ty, n, base,
                         GotohViews{&nd.S, &nd.T, &nd.M, &nd.E, &nd.F,
                                    nd.params}));
  execute_parallel(elaborate(t), 4);
  EXPECT_NEAR(std::max({nd.M(n, n), nd.E(n, n), nd.F(n, n)}), expected,
              1e-9);
}

TEST(Gotoh, IdenticalSequencesScoreAllMatches) {
  const std::size_t n = 32;
  std::vector<int> S(n, 1), T(n, 1);
  GotohParams p;
  Matrix<double> M(n + 1, n + 1), E(n + 1, n + 1), F(n + 1, n + 1);
  const double score = gotoh_reference(S, T, p, M, E, F);
  EXPECT_DOUBLE_EQ(score, p.match * double(n));
}

}  // namespace
}  // namespace ndf
