// Unit tests for the support library: matrices, RNG, fitting, tables.
#include <gtest/gtest.h>

#include <cmath>

#include "support/fit.hpp"
#include "support/matrix.hpp"
#include "support/mem.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace ndf {
namespace {

TEST(Matrix, BasicAccess) {
  Matrix<double> m(3, 4, 1.5);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_DOUBLE_EQ(m(2, 3), 1.5);
  m(1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 7.0);
}

TEST(Matrix, ViewBlockAddressing) {
  Matrix<double> m(4, 4);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) m(i, j) = double(10 * i + j);
  auto v = m.view();
  auto b = v.block(1, 2, 2, 2);
  EXPECT_DOUBLE_EQ(b(0, 0), 12.0);
  EXPECT_DOUBLE_EQ(b(1, 1), 23.0);
  b(0, 1) = -1.0;
  EXPECT_DOUBLE_EQ(m(1, 3), -1.0);
}

TEST(Matrix, QuadrantsOfEvenMatrix) {
  Matrix<double> m(4, 4);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) m(i, j) = double(10 * i + j);
  auto v = m.view();
  EXPECT_DOUBLE_EQ(v.quadrant(0, 0)(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(v.quadrant(0, 1)(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(v.quadrant(1, 0)(0, 0), 20.0);
  EXPECT_DOUBLE_EQ(v.quadrant(1, 1)(1, 1), 33.0);
}

TEST(Matrix, BlockOutOfRangeThrows) {
  Matrix<double> m(4, 4);
  EXPECT_THROW(m.view().block(2, 2, 3, 3), CheckError);
}

TEST(MemSegment, OverlapDetection) {
  MemSegment a{100, 200}, b{150, 250}, c{200, 300};
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_FALSE(a.overlaps(c));  // half-open ranges touch but don't overlap
}

TEST(MemSegment, ViewSegmentsRespectStride) {
  Matrix<double> m(4, 4);
  auto left = m.view().block(0, 0, 4, 2);
  auto right = m.view().block(0, 2, 4, 2);
  EXPECT_FALSE(segments_overlap(segments_of(left), segments_of(right)));
  auto mid = m.view().block(0, 1, 4, 2);
  EXPECT_TRUE(segments_overlap(segments_of(left), segments_of(mid)));
}

TEST(Rng, DeterministicAndRoughlyUniform) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  Rng r(123);
  double sum = 0;
  const int N = 20000;
  for (int i = 0; i < N; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / N, 0.5, 0.02);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Fit, RecoversLinearCoefficients) {
  std::vector<double> xs, ys;
  for (int i = 1; i <= 20; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i + 2.0);
  }
  auto f = fit_linear(xs, ys);
  EXPECT_NEAR(f.slope, 3.0, 1e-9);
  EXPECT_NEAR(f.intercept, 2.0, 1e-9);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Fit, LogLogRecoversExponent) {
  std::vector<double> xs, ys;
  for (int i = 1; i <= 10; ++i) {
    const double x = std::pow(2.0, i);
    xs.push_back(x);
    ys.push_back(5.0 * x * std::sqrt(x));  // exponent 1.5
  }
  auto f = fit_loglog(xs, ys);
  EXPECT_NEAR(f.slope, 1.5, 1e-9);
}

TEST(Fit, RejectsDegenerateInput) {
  std::vector<double> xs{1.0, 1.0}, ys{2.0, 3.0};
  EXPECT_THROW(fit_linear(xs, ys), CheckError);
  std::vector<double> neg{-1.0, 2.0};
  EXPECT_THROW(fit_loglog(neg, ys), CheckError);
}

TEST(Table, RendersAlignedRows) {
  Table t("demo");
  t.set_header({"n", "value"});
  t.add_row({(long long)8, 3.25});
  t.add_row({(long long)16, std::string("x")});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("value"), std::string::npos);
}

TEST(Table, RejectsMismatchedRowWidth) {
  Table t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({(long long)1}), CheckError);
}

}  // namespace
}  // namespace ndf
