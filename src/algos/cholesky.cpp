#include "algos/cholesky.hpp"

#include <cmath>

#include "algos/matmul.hpp"
#include "algos/trs.hpp"

namespace ndf {

void cholesky_reference(MatrixView<double> A) {
  const std::size_t n = A.rows();
  NDF_CHECK(A.cols() == n);
  for (std::size_t j = 0; j < n; ++j) {
    double d = A(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= A(j, k) * A(j, k);
    NDF_CHECK_MSG(d > 0.0, "matrix not positive definite at column " << j);
    const double l = std::sqrt(d);
    A(j, j) = l;
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = A(i, j);
      for (std::size_t k = 0; k < j; ++k) acc -= A(i, k) * A(j, k);
      A(i, j) = acc / l;
    }
  }
}

namespace {

struct ChoBuilder {
  SpawnTree& t;
  const LinalgTypes& ty;
  std::size_t base;

  double leaf_work(std::size_t n) const {
    return double(n) * n * n / 3.0 + 1.0;
  }
  double task_size(std::size_t n) const { return 0.5 * double(n) * n + 1.0; }

  NodeId build(std::size_t n, const std::optional<MatrixView<double>>& A) {
    if (n <= base) {
      if (!A) return t.strand(leaf_work(n), task_size(n), "cho");
      const MatrixView<double> Av = *A;
      const NodeId id = t.strand(leaf_work(n), task_size(n), "cho",
                                 [Av] { cholesky_reference(Av); });
      t.add_reads(id, segments_of(Av));
      t.add_writes(id, segments_of(Av));
      return id;
    }

    const std::size_t nh = (n + 1) / 2, nl = n - nh;
    std::optional<MatrixView<double>> A00, A10, A11;
    std::optional<TrsViews> tv;
    std::optional<MmViews> mv;
    if (A) {
      A00 = A->block(0, 0, nh, nh);
      A10 = A->block(nh, 0, nl, nh);
      A11 = A->block(nh, nh, nl, nl);
      tv = TrsViews{*A00, *A10};           // L10·L00ᵀ = A10, in place
      mv = MmViews{*A10, *A10, *A11, true};  // A11 -= L10·L10ᵀ
    }

    const NodeId cho00 = build(nh, A00);
    const NodeId trs10 =
        build_trs(t, ty, TrsSide::RightLowerT, nh, nl, base, tv);
    const NodeId mms11 = build_mm(t, ty, nl, nh, nl, base, -1.0, mv);
    const NodeId cho11 = build(nl, A11);

    const NodeId left = t.fire(ty.CT, cho00, trs10);
    const NodeId right = t.fire(ty.MC, mms11, cho11);
    return t.fire(ty.CTMC, left, right, task_size(n), "CHO");
  }
};

}  // namespace

NodeId build_cholesky(SpawnTree& tree, const LinalgTypes& ty, std::size_t n,
                      std::size_t base,
                      const std::optional<MatrixView<double>>& A) {
  NDF_CHECK(n >= 1 && base >= 2);
  if (A) NDF_CHECK(A->rows() == n && A->cols() == n);
  ChoBuilder b{tree, ty, base};
  return b.build(n, A);
}

SpawnTree make_cholesky_tree(std::size_t n, std::size_t base) {
  SpawnTree tree;
  const LinalgTypes ty = LinalgTypes::install(tree);
  tree.set_root(build_cholesky(tree, ty, n, base, std::nullopt));
  return tree;
}

}  // namespace ndf
