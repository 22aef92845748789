// Numerical correctness of every algorithm: the elaborated ND DAG, executed
// serially in a topological order of the algorithm DAG, must reproduce the
// serial reference result. Parameterized over problem size (including odd,
// non-power-of-two sizes) and base case.
#include <gtest/gtest.h>

#include <cmath>

#include "algos/cholesky.hpp"
#include "algos/fw1d.hpp"
#include "algos/fw2d.hpp"
#include "algos/lcs.hpp"
#include "algos/lu.hpp"
#include "algos/matmul.hpp"
#include "algos/trs.hpp"
#include "nd/drs.hpp"
#include "runtime/executor.hpp"
#include "support/rng.hpp"

namespace ndf {
namespace {

Matrix<double> random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Matrix<double> m(r, c);
  Rng rng(seed);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.uniform(-1.0, 1.0);
  return m;
}

/// Random well-conditioned lower-triangular matrix.
Matrix<double> random_lower(std::size_t n, std::uint64_t seed) {
  Matrix<double> m = random_matrix(n, n, seed);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) m(i, j) = 0.0;
    m(i, i) = 2.0 + std::abs(m(i, i));  // keep it far from singular
  }
  return m;
}

/// Random symmetric positive-definite matrix (AAᵀ + n·I).
Matrix<double> random_spd(std::size_t n, std::uint64_t seed) {
  Matrix<double> a = random_matrix(n, n, seed);
  Matrix<double> s(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < n; ++k) s(i, j) += a(i, k) * a(j, k);
      if (i == j) s(i, j) += double(n);
    }
  return s;
}

double max_abs_diff(const Matrix<double>& a, const Matrix<double>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      d = std::max(d, std::abs(a(i, j) - b(i, j)));
  return d;
}

double max_abs_diff_lower(const Matrix<double>& a, const Matrix<double>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j <= i; ++j)
      d = std::max(d, std::abs(a(i, j) - b(i, j)));
  return d;
}

struct SizeCase {
  std::size_t n;
  std::size_t base;
};

class AlgoNumeric : public ::testing::TestWithParam<SizeCase> {};

TEST_P(AlgoNumeric, MatmulMatchesReference) {
  const auto [n, base] = GetParam();
  Matrix<double> A = random_matrix(n, n, 1), B = random_matrix(n, n, 2);
  Matrix<double> C = random_matrix(n, n, 3), Cref = C;

  mm_reference(A.view(), B.view(), Cref.view(), +1.0, false);

  SpawnTree t;
  const LinalgTypes ty = LinalgTypes::install(t);
  t.set_root(build_mm(t, ty, n, n, n, base, +1.0,
                      MmViews{A.view(), B.view(), C.view(), false}));
  execute_serial(elaborate(t));
  EXPECT_LT(max_abs_diff(C, Cref), 1e-9);
}

TEST_P(AlgoNumeric, MatmulTransposedBMatchesReference) {
  const auto [n, base] = GetParam();
  Matrix<double> A = random_matrix(n, n, 4), B = random_matrix(n, n, 5);
  Matrix<double> C = random_matrix(n, n, 6), Cref = C;
  mm_reference(A.view(), B.view(), Cref.view(), -1.0, true);

  SpawnTree t;
  const LinalgTypes ty = LinalgTypes::install(t);
  t.set_root(build_mm(t, ty, n, n, n, base, -1.0,
                      MmViews{A.view(), B.view(), C.view(), true}));
  execute_serial(elaborate(t));
  EXPECT_LT(max_abs_diff(C, Cref), 1e-9);
}

TEST_P(AlgoNumeric, TrsLeftLowerSolves) {
  const auto [n, base] = GetParam();
  Matrix<double> T = random_lower(n, 7);
  Matrix<double> B = random_matrix(n, n, 8), X = B;

  SpawnTree t;
  const LinalgTypes ty = LinalgTypes::install(t);
  t.set_root(build_trs(t, ty, TrsSide::LeftLower, n, n, base,
                       TrsViews{T.view(), X.view()}));
  execute_serial(elaborate(t));

  // Verify T·X = B directly.
  Matrix<double> R = B;
  mm_reference(T.view(), X.view(), R.view(), -1.0, false);
  double resid = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) resid = std::max(resid, std::abs(R(i, j)));
  EXPECT_LT(resid, 1e-9);
}

TEST_P(AlgoNumeric, TrsRightLowerTSolves) {
  const auto [n, base] = GetParam();
  Matrix<double> L = random_lower(n, 9);
  Matrix<double> B = random_matrix(n, n, 10), X = B;

  SpawnTree t;
  const LinalgTypes ty = LinalgTypes::install(t);
  t.set_root(build_trs(t, ty, TrsSide::RightLowerT, n, n, base,
                       TrsViews{L.view(), X.view()}));
  execute_serial(elaborate(t));

  // Verify X·Lᵀ = B.
  Matrix<double> R = B;
  mm_reference(X.view(), L.view(), R.view(), -1.0, true);
  double resid = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) resid = std::max(resid, std::abs(R(i, j)));
  EXPECT_LT(resid, 1e-9);
}

TEST_P(AlgoNumeric, CholeskyMatchesReference) {
  const auto [n, base] = GetParam();
  Matrix<double> A = random_spd(n, 11), Aref = A;
  cholesky_reference(Aref.view());

  SpawnTree t;
  const LinalgTypes ty = LinalgTypes::install(t);
  t.set_root(build_cholesky(t, ty, n, base, A.view()));
  execute_serial(elaborate(t));
  EXPECT_LT(max_abs_diff_lower(A, Aref), 1e-8);
}

TEST_P(AlgoNumeric, LuReconstructsPA) {
  const auto [n, base] = GetParam();
  Matrix<double> A0 = random_matrix(n, n, 12);
  Matrix<double> A = A0;
  std::vector<int> ipiv;

  SpawnTree t;
  const LinalgTypes ty = LinalgTypes::install(t);
  t.set_root(build_lu(t, ty, n, base, LuViews{A.view(), &ipiv}));
  execute_serial(elaborate(t));

  // P·A0 (apply recorded swaps in order), then compare to L·U.
  Matrix<double> PA = A0;
  apply_pivots(PA.view(), ipiv, 0, n, 0, n);
  Matrix<double> LU(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      const std::size_t kmax = std::min(i, j);  // L unit-lower, U upper
      for (std::size_t k = 0; k < kmax; ++k) acc += A(i, k) * A(k, j);
      if (i <= j)
        acc += A(i, j);  // L(i,i) = 1
      else
        acc += A(i, j) * A(j, j);
      LU(i, j) = acc;
    }
  EXPECT_LT(max_abs_diff(PA, LU), 1e-9);
}

TEST_P(AlgoNumeric, LcsMatchesReference) {
  const auto [n, base] = GetParam();
  Rng rng(13);
  std::vector<int> S(n), T(n);
  for (auto& x : S) x = int(rng.below(4));
  for (auto& x : T) x = int(rng.below(4));

  Matrix<int> Xref(n + 1, n + 1, 0);
  const int ref = lcs_reference(S, T, Xref);

  Matrix<int> X(n + 1, n + 1, 0);
  SpawnTree t;
  const LcsTypes ty = LcsTypes::install(t);
  t.set_root(build_lcs(t, ty, n, base, LcsViews{&S, &T, &X}));
  execute_serial(elaborate(t));
  EXPECT_EQ(X(n, n), ref);
  for (std::size_t i = 0; i <= n; ++i)
    for (std::size_t j = 0; j <= n; ++j) EXPECT_EQ(X(i, j), Xref(i, j));
}

TEST_P(AlgoNumeric, Fw1dMatchesReference) {
  const auto [n, base] = GetParam();
  Rng rng(14);
  Matrix<double> D(n + 1, n + 1, 0.0), Dref(n + 1, n + 1, 0.0);
  for (std::size_t j = 0; j <= n; ++j) D(0, j) = Dref(0, j) = rng.uniform(0, 8);

  fw1d_reference(Dref);

  SpawnTree t;
  const Fw1dTypes ty = Fw1dTypes::install(t);
  t.set_root(build_fw1d(t, ty, n, base, &D));
  execute_serial(elaborate(t));
  EXPECT_LT(max_abs_diff(D, Dref), 1e-12);
}

TEST_P(AlgoNumeric, Fw2dMatchesReference) {
  const auto [n, base] = GetParam();
  Rng rng(15);
  Matrix<double> D(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      D(i, j) = i == j ? 0.0 : rng.uniform(1.0, 10.0);
  Matrix<double> Dref = D;
  fw2d_reference(Dref);

  SpawnTree t;
  t.set_root(build_fw2d_np(t, n, base, &D));
  execute_serial(elaborate(t));
  EXPECT_LT(max_abs_diff(D, Dref), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, AlgoNumeric,
    ::testing::Values(SizeCase{4, 2}, SizeCase{8, 2}, SizeCase{8, 4},
                      SizeCase{16, 4}, SizeCase{16, 8}, SizeCase{24, 4},
                      SizeCase{17, 3}, SizeCase{32, 8}),
    [](const ::testing::TestParamInfo<SizeCase>& info) {
      std::string name = "n";
      name += std::to_string(info.param.n);
      name += "b";
      name += std::to_string(info.param.base);
      return name;
    });

}  // namespace
}  // namespace ndf
