#include "algos/gotoh.hpp"

#include <algorithm>

namespace ndf {

namespace {

constexpr double kNegInf = -1e30;

/// Fills cells (i, j), i ∈ [i0, i0+si), j ∈ [j0, j0+sj), of all three
/// tables.
void gotoh_block(const std::vector<int>& S, const std::vector<int>& T,
                 const GotohParams& p, Matrix<double>& M, Matrix<double>& E,
                 Matrix<double>& F, std::size_t i0, std::size_t j0,
                 std::size_t si, std::size_t sj) {
  for (std::size_t i = i0; i < i0 + si; ++i)
    for (std::size_t j = j0; j < j0 + sj; ++j) {
      const double sub = S[i - 1] == T[j - 1] ? p.match : p.mismatch;
      const double best_nw =
          std::max({M(i - 1, j - 1), E(i - 1, j - 1), F(i - 1, j - 1)});
      M(i, j) = best_nw + sub;
      E(i, j) = std::max(E(i, j - 1) + p.gap_extend,
                         std::max(M(i, j - 1), F(i, j - 1)) + p.gap_open +
                             p.gap_extend);
      F(i, j) = std::max(F(i - 1, j) + p.gap_extend,
                         std::max(M(i - 1, j), E(i - 1, j)) + p.gap_open +
                             p.gap_extend);
    }
}

struct GotohBuilder {
  SpawnTree& t;
  const LcsTypes& ty;
  std::size_t base;

  double task_size(std::size_t si, std::size_t sj) const {
    // Linear-space footprint: three tables' boundaries plus sequences.
    return 6.0 * double(si + sj) + 2.0;
  }

  NodeId build(std::size_t i0, std::size_t j0, std::size_t si,
               std::size_t sj, const std::optional<GotohViews>& v) {
    if (std::max(si, sj) <= base) {
      const double work = 3.0 * double(si) * sj;
      if (!v) return t.strand(work, task_size(si, sj), "gotoh");
      const GotohViews cv = *v;
      const NodeId id = t.strand(
          work, task_size(si, sj), "gotoh", [cv, i0, j0, si, sj] {
            gotoh_block(*cv.S, *cv.T, cv.params, *cv.M, *cv.E, *cv.F, i0,
                        j0, si, sj);
          });
      for (Matrix<double>* X : {cv.M, cv.E, cv.F}) {
        MatrixView<double> xv = X->view();
        t.add_reads(id, segments_of(xv.block(i0 - 1, j0 - 1, 1, sj + 1)));
        t.add_reads(id, segments_of(xv.block(i0, j0 - 1, si, 1)));
        t.add_writes(id, segments_of(xv.block(i0, j0, si, sj)));
      }
      return id;
    }

    const std::size_t ih = (si + 1) / 2, il = si - ih;
    const std::size_t jh = (sj + 1) / 2, jl = sj - jh;
    const NodeId q00 = build(i0, j0, ih, jh, v);
    const NodeId q01 = build(i0, j0 + jh, ih, jl, v);
    const NodeId q10 = build(i0 + ih, j0, il, jh, v);
    const NodeId q11 = build(i0 + ih, j0 + jh, il, jl, v);
    const NodeId hv = t.fire(ty.HV, q00, t.par({q01, q10}));
    return t.fire(ty.VH, hv, q11, task_size(si, sj), "GOT");
  }
};

}  // namespace

void gotoh_init_borders(const GotohParams& p, Matrix<double>& M,
                        Matrix<double>& E, Matrix<double>& F) {
  const std::size_t n = M.rows() - 1, m = M.cols() - 1;
  M(0, 0) = 0.0;
  E(0, 0) = F(0, 0) = kNegInf;
  for (std::size_t j = 1; j <= m; ++j) {
    M(0, j) = kNegInf;
    F(0, j) = kNegInf;
    E(0, j) = p.gap_open + p.gap_extend * double(j);
  }
  for (std::size_t i = 1; i <= n; ++i) {
    M(i, 0) = kNegInf;
    E(i, 0) = kNegInf;
    F(i, 0) = p.gap_open + p.gap_extend * double(i);
  }
}

double gotoh_reference(const std::vector<int>& S, const std::vector<int>& T,
                       const GotohParams& p, Matrix<double>& M,
                       Matrix<double>& E, Matrix<double>& F) {
  const std::size_t n = M.rows() - 1, m = M.cols() - 1;
  gotoh_init_borders(p, M, E, F);
  gotoh_block(S, T, p, M, E, F, 1, 1, n, m);
  return std::max({M(n, m), E(n, m), F(n, m)});
}

NodeId build_gotoh(SpawnTree& tree, const LcsTypes& ty, std::size_t n,
                   std::size_t base, const std::optional<GotohViews>& views) {
  NDF_CHECK(n >= 1 && base >= 1);
  if (views) {
    NDF_CHECK(views->S->size() >= n && views->T->size() >= n);
    for (Matrix<double>* X : {views->M, views->E, views->F})
      NDF_CHECK(X && X->rows() >= n + 1 && X->cols() >= n + 1);
  }
  GotohBuilder b{tree, ty, base};
  return b.build(1, 1, n, n, views);
}

SpawnTree make_gotoh_tree(std::size_t n, std::size_t base) {
  SpawnTree tree;
  const LcsTypes ty = LcsTypes::install(tree);
  tree.set_root(build_gotoh(tree, ty, n, base, std::nullopt));
  return tree;
}

}  // namespace ndf
