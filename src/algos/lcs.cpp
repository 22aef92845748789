#include "algos/lcs.hpp"

#include <algorithm>

namespace ndf {

LcsTypes LcsTypes::install(SpawnTree& tree) {
  FireRules& R = tree.rules();
  LcsTypes t;
  t.HV = R.add_type("HV");
  t.VH = R.add_type("VH");
  t.H = R.add_type("H");
  t.V = R.add_type("V");

  // Eq. (18): X00 feeds X01 horizontally and X10 vertically.
  R.add_rule(t.HV, {}, t.H, {1});
  R.add_rule(t.HV, {}, t.V, {2});
  // Eq. (19) (corrected, see header): X01 feeds X11 vertically, X10
  // horizontally.
  R.add_rule(t.VH, {2, 1}, t.V, {});
  R.add_rule(t.VH, {2, 2}, t.H, {});
  // Eq. (20): horizontal refinement — the source's right-column quadrants
  // feed the sink's left-column quadrants. Within an LCS task the quadrant
  // pedigrees are X00=(1)(1), X01=(1)(2)(1), X10=(1)(2)(2), X11=(2).
  R.add_rule(t.H, {1, 2, 1}, t.H, {1, 1});
  R.add_rule(t.H, {2}, t.H, {1, 2, 2});
  // Eq. (21): vertical refinement — bottom-row quadrants feed top-row ones.
  R.add_rule(t.V, {1, 2, 2}, t.V, {1, 1});
  R.add_rule(t.V, {2}, t.V, {1, 2, 1});
  return t;
}

namespace {

/// Fills DP cells (i, j) for i in [i0, i0+si), j in [j0, j0+sj).
void lcs_block(const std::vector<int>& S, const std::vector<int>& T,
               Matrix<int>& X, std::size_t i0, std::size_t j0,
               std::size_t si, std::size_t sj) {
  for (std::size_t i = i0; i < i0 + si; ++i)
    for (std::size_t j = j0; j < j0 + sj; ++j)
      X(i, j) = S[i - 1] == T[j - 1]
                    ? X(i - 1, j - 1) + 1
                    : std::max(X(i, j - 1), X(i - 1, j));
}

struct LcsBuilder {
  SpawnTree& t;
  const LcsTypes& ty;
  std::size_t base;

  double task_size(std::size_t si, std::size_t sj) const {
    return 2.0 * double(si + sj) + 2.0;  // boundaries + sequence slices
  }

  NodeId build(std::size_t i0, std::size_t j0, std::size_t si,
               std::size_t sj, const std::optional<LcsViews>& v) {
    if (std::max(si, sj) <= base) {
      if (!v) return t.strand(double(si) * sj, task_size(si, sj), "lcs");
      const LcsViews cv = *v;
      const NodeId id = t.strand(
          double(si) * sj, task_size(si, sj), "lcs", [cv, i0, j0, si, sj] {
            lcs_block(*cv.S, *cv.T, *cv.X, i0, j0, si, sj);
          });
      // Reads: the row above (incl. the diagonal corner) and the column
      // to the left of the block.
      MatrixView<int> xv = cv.X->view();
      t.add_reads(id, segments_of(xv.block(i0 - 1, j0 - 1, 1, sj + 1)));
      t.add_reads(id, segments_of(xv.block(i0, j0 - 1, si, 1)));
      t.add_writes(id, segments_of(xv.block(i0, j0, si, sj)));
      return id;
    }

    const std::size_t ih = (si + 1) / 2, il = si - ih;
    const std::size_t jh = (sj + 1) / 2, jl = sj - jh;
    const NodeId q00 = build(i0, j0, ih, jh, v);
    const NodeId q01 = build(i0, j0 + jh, ih, jl, v);
    const NodeId q10 = build(i0 + ih, j0, il, jh, v);
    const NodeId q11 = build(i0 + ih, j0 + jh, il, jl, v);
    const NodeId hv = t.fire(ty.HV, q00, t.par({q01, q10}));
    return t.fire(ty.VH, hv, q11, task_size(si, sj), "LCS");
  }
};

}  // namespace

NodeId build_lcs(SpawnTree& tree, const LcsTypes& ty, std::size_t n,
                 std::size_t base, const std::optional<LcsViews>& views) {
  NDF_CHECK(n >= 1 && base >= 1);
  if (views) {
    NDF_CHECK(views->S->size() >= n && views->T->size() >= n);
    NDF_CHECK(views->X->rows() >= n + 1 && views->X->cols() >= n + 1);
  }
  LcsBuilder b{tree, ty, base};
  return b.build(1, 1, n, n, views);
}

SpawnTree make_lcs_tree(std::size_t n, std::size_t base) {
  SpawnTree tree;
  const LcsTypes ty = LcsTypes::install(tree);
  tree.set_root(build_lcs(tree, ty, n, base, std::nullopt));
  return tree;
}

int lcs_reference(const std::vector<int>& S, const std::vector<int>& T,
                  Matrix<int>& X) {
  const std::size_t n = X.rows() - 1, m = X.cols() - 1;
  for (std::size_t i = 0; i <= n; ++i) X(i, 0) = 0;
  for (std::size_t j = 0; j <= m; ++j) X(0, j) = 0;
  lcs_block(S, T, X, 1, 1, n, m);
  return X(n, m);
}

}  // namespace ndf
