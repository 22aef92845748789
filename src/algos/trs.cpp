#include "algos/trs.hpp"

#include "algos/matmul.hpp"

namespace ndf {

void trs_reference(TrsSide side, MatrixView<double> T, MatrixView<double> B,
                   bool unit_diag) {
  if (side == TrsSide::LeftLower) {
    const std::size_t n = T.rows(), m = B.cols();
    NDF_CHECK(T.cols() == n && B.rows() == n);
    for (std::size_t j = 0; j < m; ++j)
      for (std::size_t i = 0; i < n; ++i) {
        double acc = B(i, j);
        for (std::size_t k = 0; k < i; ++k) acc -= T(i, k) * B(k, j);
        B(i, j) = unit_diag ? acc : acc / T(i, i);
      }
  } else {
    const std::size_t k = T.rows(), m = B.rows();
    NDF_CHECK(T.cols() == k && B.cols() == k);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < k; ++j) {
        double acc = B(i, j);
        for (std::size_t l = 0; l < j; ++l) acc -= B(i, l) * T(j, l);
        B(i, j) = unit_diag ? acc : acc / T(j, j);
      }
  }
}

namespace {

struct TrsBuilder {
  SpawnTree& t;
  const LinalgTypes& ty;
  TrsSide side;
  std::size_t base;

  double leaf_work(std::size_t n, std::size_t m) const {
    return double(n) * n * m;  // triangular substitution flops (≈ n²m)
  }
  double task_size(std::size_t n, std::size_t m) const {
    return 0.5 * double(n) * n + double(n) * m;  // triangle + RHS
  }

  NodeId build(std::size_t n, std::size_t m,
               const std::optional<TrsViews>& v) {
    if (std::max(n, m) <= base) {
      if (!v) return t.strand(leaf_work(n, m), task_size(n, m), "trs");
      const TrsViews cv = *v;
      const TrsSide s = side;
      const NodeId id = t.strand(
          leaf_work(n, m), task_size(n, m), "trs",
          [cv, s] { trs_reference(s, cv.T, cv.B, cv.unit_diag); });
      t.add_reads(id, segments_of(cv.T));
      t.add_writes(id, segments_of(cv.B));
      return id;
    }

    const std::size_t nh = (n + 1) / 2, nl = n - nh;
    const std::size_t mh = (m + 1) / 2, ml = m - mh;

    // Triangle quadrants (shared by both sides; for RightLowerT the roles
    // of B's rows/columns are exchanged below).
    std::optional<MatrixView<double>> T00, T10, T11;
    if (v) {
      T00 = v->T.block(0, 0, nh, nh);
      T10 = v->T.block(nh, 0, nl, nh);
      T11 = v->T.block(nh, nh, nl, nl);
    }

    // One (TRS ~TM~> MMS) pair: solve the leading part of one RHS strip,
    // then down-date the trailing part of the same strip.
    auto pair = [&](int strip) {
      std::optional<TrsViews> tv;
      std::optional<MmViews> mv;
      std::size_t pn, pm;  // dimensions of the leading sub-TRS
      if (side == TrsSide::LeftLower) {
        pn = nh;
        pm = strip ? ml : mh;
        if (v) {
          auto Btop = v->B.block(0, strip ? mh : 0, nh, pm);
          auto Bbot = v->B.block(nh, strip ? mh : 0, nl, pm);
          tv = TrsViews{*T00, Btop, v->unit_diag};
          mv = MmViews{*T10, Btop, Bbot, false};  // Bbot -= T10·X(top)
        }
        const NodeId trs = build(pn, pm, tv);
        const NodeId mms =
            build_mm(t, ty, nl, nh, pm, base, -1.0, mv);
        return t.fire(ty.TM, trs, mms);  // left variant: X feeds B-operand
      }
      // RightLowerT: strips are row blocks of B; X00·L00ᵀ = B00 then
      // B01 -= X00·L10ᵀ.
      pn = nh;
      pm = strip ? ml : mh;
      if (v) {
        auto Bleft = v->B.block(strip ? mh : 0, 0, pm, nh);
        auto Bright = v->B.block(strip ? mh : 0, nh, pm, nl);
        tv = TrsViews{*T00, Bleft, v->unit_diag};
        mv = MmViews{Bleft, *T10, Bright, true};  // Bright -= X·L10ᵀ
      }
      const NodeId trs = build(pn, pm, tv);
      const NodeId mms = build_mm(t, ty, pm, nh, nl, base, -1.0, mv);
      return t.fire(ty.TM1, trs, mms);  // right variant: X feeds A-operand
    };

    const NodeId src = t.par({pair(0), pair(1)});

    // Trailing solves with T11 on the down-dated strips.
    auto tail = [&](int strip) {
      std::optional<TrsViews> tv;
      std::size_t pm = strip ? ml : mh;
      if (v) {
        auto Bv = side == TrsSide::LeftLower
                      ? v->B.block(nh, strip ? mh : 0, nl, pm)
                      : v->B.block(strip ? mh : 0, nh, pm, nl);
        tv = TrsViews{*T11, Bv, v->unit_diag};
      }
      return build(nl, pm, tv);
    };
    const NodeId snk = t.par({tail(0), tail(1)});

    return t.fire(side == TrsSide::LeftLower ? ty.T2M2T : ty.T2M2T1, src,
                  snk, task_size(n, m), "TRS");
  }
};

}  // namespace

NodeId build_trs(SpawnTree& tree, const LinalgTypes& ty, TrsSide side,
                 std::size_t n, std::size_t m, std::size_t base,
                 const std::optional<TrsViews>& views) {
  NDF_CHECK(n >= 1 && m >= 1 && base >= 1);
  if (views) {
    NDF_CHECK(views->T.rows() == n && views->T.cols() == n);
    if (side == TrsSide::LeftLower)
      NDF_CHECK(views->B.rows() == n && views->B.cols() == m);
    else
      NDF_CHECK(views->B.rows() == m && views->B.cols() == n);
  }
  TrsBuilder b{tree, ty, side, base};
  return b.build(n, m, views);
}

SpawnTree make_trs_tree(std::size_t n, std::size_t base) {
  SpawnTree tree;
  const LinalgTypes ty = LinalgTypes::install(tree);
  tree.set_root(build_trs(tree, ty, TrsSide::LeftLower, n, n, base,
                          std::nullopt));
  return tree;
}

}  // namespace ndf
