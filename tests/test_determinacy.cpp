// Determinacy property tests: for every algorithm, any two strands with
// conflicting declared footprints must be ordered by a dependence path in
// the elaborated DAG. This validates the fire-rule tables themselves —
// a missing or wrong rule shows up as an unordered conflicting pair.
#include <gtest/gtest.h>

#include "algos/cholesky.hpp"
#include "algos/fw1d.hpp"
#include "algos/fw2d.hpp"
#include "algos/lcs.hpp"
#include "algos/lu.hpp"
#include "algos/matmul.hpp"
#include "algos/trs.hpp"
#include "analysis/determinacy.hpp"
#include "nd/drs.hpp"
#include "support/rng.hpp"

namespace ndf {
namespace {

struct SizeCase {
  std::size_t n;
  std::size_t base;
};

class Determinacy : public ::testing::TestWithParam<SizeCase> {};

TEST_P(Determinacy, Matmul) {
  const auto [n, base] = GetParam();
  Matrix<double> A(n, n, 1.0), B(n, n, 1.0), C(n, n, 0.0);
  SpawnTree t;
  const LinalgTypes ty = LinalgTypes::install(t);
  t.set_root(build_mm(t, ty, n, n, n, base, 1.0,
                      MmViews{A.view(), B.view(), C.view(), false}));
  const auto rep = check_determinacy(elaborate(t));
  EXPECT_TRUE(rep.ok) << rep.message;
  EXPECT_GT(rep.conflicting_pairs, 0u);
}

TEST_P(Determinacy, TrsBothSides) {
  const auto [n, base] = GetParam();
  for (TrsSide side : {TrsSide::LeftLower, TrsSide::RightLowerT}) {
    Matrix<double> T(n, n, 1.0), B(n, n, 1.0);
    SpawnTree t;
    const LinalgTypes ty = LinalgTypes::install(t);
    t.set_root(build_trs(t, ty, side, n, n, base,
                         TrsViews{T.view(), B.view()}));
    const auto rep = check_determinacy(elaborate(t));
    EXPECT_TRUE(rep.ok) << rep.message;
    EXPECT_GT(rep.conflicting_pairs, 0u);
  }
}

TEST_P(Determinacy, Cholesky) {
  const auto [n, base] = GetParam();
  Matrix<double> A(n, n, 1.0);
  SpawnTree t;
  const LinalgTypes ty = LinalgTypes::install(t);
  t.set_root(build_cholesky(t, ty, n, base, A.view()));
  const auto rep = check_determinacy(elaborate(t));
  EXPECT_TRUE(rep.ok) << rep.message;
}

TEST_P(Determinacy, Lu) {
  const auto [n, base] = GetParam();
  Matrix<double> A(n, n, 1.0);
  std::vector<int> ipiv;
  SpawnTree t;
  const LinalgTypes ty = LinalgTypes::install(t);
  t.set_root(build_lu(t, ty, n, base, LuViews{A.view(), &ipiv}));
  const auto rep = check_determinacy(elaborate(t));
  EXPECT_TRUE(rep.ok) << rep.message;
}

TEST_P(Determinacy, Lcs) {
  const auto [n, base] = GetParam();
  std::vector<int> S(n, 0), T(n, 1);
  Matrix<int> X(n + 1, n + 1, 0);
  SpawnTree t;
  const LcsTypes ty = LcsTypes::install(t);
  t.set_root(build_lcs(t, ty, n, base, LcsViews{&S, &T, &X}));
  const auto rep = check_determinacy(elaborate(t));
  EXPECT_TRUE(rep.ok) << rep.message;
  EXPECT_GT(rep.conflicting_pairs, 0u);
}

TEST_P(Determinacy, Fw1d) {
  const auto [n, base] = GetParam();
  Matrix<double> D(n + 1, n + 1, 0.0);
  SpawnTree t;
  const Fw1dTypes ty = Fw1dTypes::install(t);
  t.set_root(build_fw1d(t, ty, n, base, &D));
  const auto rep = check_determinacy(elaborate(t));
  EXPECT_TRUE(rep.ok) << rep.message;
}

TEST_P(Determinacy, Fw2dNp) {
  const auto [n, base] = GetParam();
  Matrix<double> D(n, n, 1.0);
  SpawnTree t;
  t.set_root(build_fw2d_np(t, n, base, &D));
  const auto rep = check_determinacy(elaborate(t));
  EXPECT_TRUE(rep.ok) << rep.message;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, Determinacy,
    ::testing::Values(SizeCase{8, 2}, SizeCase{16, 4}, SizeCase{12, 3},
                      SizeCase{16, 2}),
    [](const ::testing::TestParamInfo<SizeCase>& info) {
      std::string name = "n";
      name += std::to_string(info.param.n);
      name += "b";
      name += std::to_string(info.param.base);
      return name;
    });

/// A deliberately broken rule table must be caught: drop LCS's vertical
/// rules and observe an unordered conflicting pair.
TEST(DeterminacyNegative, MissingRuleIsDetected) {
  const std::size_t n = 8, base = 2;
  std::vector<int> S(n, 0), T(n, 1);
  Matrix<int> X(n + 1, n + 1, 0);
  SpawnTree t;
  FireRules& R = t.rules();
  LcsTypes ty;
  ty.HV = R.add_type("HV");
  ty.VH = R.add_type("VH");
  ty.H = R.add_type("H");
  ty.V = R.add_type("V");
  // Only horizontal dependencies — vertical ones are "forgotten".
  R.add_rule(ty.HV, {}, ty.H, {1});
  R.add_rule(ty.VH, {2, 2}, ty.H, {});
  R.add_rule(ty.H, {1, 2, 1}, ty.H, {1, 1});
  R.add_rule(ty.H, {2}, ty.H, {1, 2, 2});
  R.add_rule(ty.V, {1, 2, 2}, ty.V, {1, 1});
  R.add_rule(ty.V, {2}, ty.V, {1, 2, 1});
  t.set_root(build_lcs(t, ty, n, base, LcsViews{&S, &T, &X}));
  const auto rep = check_determinacy(elaborate(t));
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.message.empty());
}

}  // namespace
}  // namespace ndf
