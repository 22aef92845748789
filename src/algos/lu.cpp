#include "algos/lu.hpp"

#include <cmath>
#include <memory>
#include <utility>

#include "algos/matmul.hpp"
#include "algos/trs.hpp"

namespace ndf {

namespace {

/// Partial-pivot LU on the panel rows [row0, n) × cols [col0, col0+c) of
/// the full matrix A; swaps are confined to the panel's own columns (the
/// enclosing spawn tree applies them elsewhere) and recorded globally.
void lu_panel(MatrixView<double> A, std::vector<int>& ipiv, std::size_t row0,
              std::size_t col0, std::size_t c) {
  const std::size_t n = A.rows();
  for (std::size_t j = 0; j < c; ++j) {
    const std::size_t pr = row0 + j;   // pivot row position
    const std::size_t pc = col0 + j;   // pivot column
    if (pr >= n) break;
    std::size_t best = pr;
    double bestv = std::abs(A(pr, pc));
    for (std::size_t i = pr + 1; i < n; ++i)
      if (std::abs(A(i, pc)) > bestv) {
        bestv = std::abs(A(i, pc));
        best = i;
      }
    ipiv[pr] = static_cast<int>(best);
    if (best != pr)
      for (std::size_t k = col0; k < col0 + c; ++k)
        std::swap(A(pr, k), A(best, k));
    const double piv = A(pr, pc);
    NDF_CHECK_MSG(piv != 0.0, "singular pivot at column " << pc);
    for (std::size_t i = pr + 1; i < n; ++i) {
      const double l = A(i, pc) / piv;
      A(i, pc) = l;
      for (std::size_t k = pc + 1; k < col0 + c; ++k)
        A(i, k) -= l * A(pr, k);
    }
  }
}

struct LuBuilder {
  SpawnTree& t;
  const LinalgTypes& ty;
  std::size_t n;  ///< full matrix dimension (rows)
  std::size_t base;

  /// Parallel panel factorization on rows [col0, n) × cols
  /// [col0, col0+c): per column, a parallel chunked pivot search, a
  /// log-depth reduction tree, the row swap, then parallel row updates.
  /// This is what keeps the paper's O(m log n) span: a serial panel strand
  /// would put Θ(r·c²) on the critical path.
  NodeId build_panel(std::size_t col0, std::size_t c,
                     const std::optional<LuViews>& v) {
    using Cand = std::pair<double, std::size_t>;  // |value|, row
    const std::size_t rows0 = n - col0;
    const std::size_t maxchunks = (rows0 + base - 1) / base;
    std::shared_ptr<std::vector<Cand>> scratch;
    if (v) scratch = std::make_shared<std::vector<Cand>>(maxchunks);

    std::vector<NodeId> cols;
    for (std::size_t j = 0; j < c; ++j) {
      const std::size_t pr = col0 + j, pc = col0 + j;
      const std::size_t rows = n - pr;
      const std::size_t nchunks = (rows + base - 1) / base;
      std::vector<NodeId> steps;

      // 1) Chunked pivot scan of column pc over rows [pr, n).
      std::vector<NodeId> scans;
      for (std::size_t k = 0; k < nchunks; ++k) {
        const std::size_t lo = pr + k * base;
        const std::size_t len = std::min(base, n - lo);
        NodeId s;
        if (v) {
          LuViews cv = *v;
          auto sc = scratch;
          s = t.strand(double(len), double(len) + 1.0, "piv_scan",
                       [cv, sc, k, lo, len, pc] {
                         Cand best{std::abs(cv.A(lo, pc)), lo};
                         for (std::size_t i = lo + 1; i < lo + len; ++i) {
                           const double a = std::abs(cv.A(i, pc));
                           if (a > best.first) best = {a, i};
                         }
                         (*sc)[k] = best;
                       });
          t.add_reads(s, segments_of(cv.A.block(lo, pc, len, 1)));
        } else {
          s = t.strand(double(len), double(len) + 1.0, "piv_scan");
        }
        scans.push_back(s);
      }
      steps.push_back(scans.size() > 1 ? t.par(std::move(scans))
                                       : scans[0]);

      // 2) Log-depth reduction to scratch[0] (left priority ties match the
      // serial first-maximum rule).
      for (std::size_t stride = 1; stride < nchunks; stride *= 2) {
        std::vector<NodeId> lvl;
        for (std::size_t i = 0; i + stride < nchunks; i += 2 * stride) {
          NodeId s;
          if (v) {
            auto sc = scratch;
            const std::size_t a = i, b2 = i + stride;
            s = t.strand(1.0, 2.0, "piv_red", [sc, a, b2] {
              if ((*sc)[b2].first > (*sc)[a].first) (*sc)[a] = (*sc)[b2];
            });
          } else {
            s = t.strand(1.0, 2.0, "piv_red");
          }
          lvl.push_back(s);
        }
        steps.push_back(lvl.size() > 1 ? t.par(std::move(lvl)) : lvl[0]);
      }

      // 3) Record the pivot and swap rows pr ↔ best over the panel columns.
      {
        NodeId s;
        if (v) {
          LuViews cv = *v;
          auto sc = scratch;
          s = t.strand(double(c) + 1.0, 2.0 * c + 1.0, "piv_swap",
                       [cv, sc, pr, col0, c, pc] {
                         const std::size_t best = (*sc)[0].second;
                         (*cv.ipiv)[pr] = static_cast<int>(best);
                         if (best != pr)
                           for (std::size_t k = col0; k < col0 + c; ++k)
                             std::swap(cv.A(pr, k), cv.A(best, k));
                         NDF_CHECK_MSG(cv.A(pr, pc) != 0.0,
                                       "singular pivot at column " << pc);
                       });
          // Conservative: the pivot row is data dependent.
          auto span_rows = cv.A.block(pr, col0, n - pr, c);
          t.add_reads(s, segments_of(span_rows));
          t.add_writes(s, segments_of(span_rows));
        } else {
          s = t.strand(double(c) + 1.0, 2.0 * c + 1.0, "piv_swap");
        }
        steps.push_back(s);
      }

      // 4) Parallel elimination below the pivot row, within the panel.
      if (pr + 1 < n) {
        std::vector<NodeId> upds;
        const std::size_t w = col0 + c - pc;  // columns pc..col0+c
        for (std::size_t lo = pr + 1; lo < n; lo += base) {
          const std::size_t len = std::min(base, n - lo);
          NodeId s;
          if (v) {
            LuViews cv = *v;
            s = t.strand(double(len) * w, double(len) * w + w, "piv_upd",
                         [cv, lo, len, pr, pc, col0, c] {
                           const double piv = cv.A(pr, pc);
                           for (std::size_t i = lo; i < lo + len; ++i) {
                             const double l = cv.A(i, pc) / piv;
                             cv.A(i, pc) = l;
                             for (std::size_t k = pc + 1; k < col0 + c; ++k)
                               cv.A(i, k) -= l * cv.A(pr, k);
                           }
                         });
            t.add_reads(s, segments_of(cv.A.block(pr, pc, 1, w)));
            t.add_writes(s, segments_of(cv.A.block(lo, pc, len, w)));
          } else {
            s = t.strand(double(len) * w, double(len) * w + w, "piv_upd");
          }
          upds.push_back(s);
        }
        steps.push_back(upds.size() > 1 ? t.par(std::move(upds)) : upds[0]);
      }

      cols.push_back(steps.size() > 1
                         ? t.seq(std::move(steps), double(rows) * (c - j) + 1)
                         : steps[0]);
    }
    if (cols.size() == 1) return cols[0];
    return t.seq(std::move(cols), double(rows0) * c, "panel");
  }

  /// Strand applying swaps ipiv[k0..k1) to columns [c0, c0+w).
  NodeId pivot_chunk(std::size_t k0, std::size_t k1, std::size_t c0,
                     std::size_t w, const std::optional<LuViews>& v) {
    const double work = double(k1 - k0) * w + 1.0;
    const double size = double(n - k0) * w + 1.0;
    if (!v) return t.strand(work, size, "piv");
    LuViews cv = *v;
    NodeId id = t.strand(work, size, "piv", [cv, k0, k1, c0, w] {
      apply_pivots(cv.A, *cv.ipiv, k0, k1, c0, c0 + w);
    });
    auto touched = cv.A.block(k0, c0, n - k0, w);
    t.add_reads(id, segments_of(touched));
    t.add_writes(id, segments_of(touched));
    return id;
  }

  /// Parallel pivot application over base-width column chunks.
  NodeId pivot_task(std::size_t k0, std::size_t k1, std::size_t c0,
                    std::size_t c1, const std::optional<LuViews>& v) {
    std::vector<NodeId> chunks;
    for (std::size_t c = c0; c < c1; c += base)
      chunks.push_back(pivot_chunk(k0, k1, c, std::min(base, c1 - c), v));
    if (chunks.size() == 1) return chunks[0];
    return t.par(std::move(chunks),
                 double(n - k0) * double(c1 - c0) + 1.0, "PIV");
  }

  /// Spawn tree for the instance on columns [col0, col0+c), rows [col0, n).
  NodeId build(std::size_t col0, std::size_t c,
               const std::optional<LuViews>& v) {
    const double r = double(n - col0);
    if (c <= base) return build_panel(col0, c, v);

    const std::size_t ch = (c + 1) / 2, cl = c - ch;
    const std::size_t mid = col0 + ch;

    const NodeId left = build(col0, ch, v);

    // Apply left-half swaps to the right-half columns, in parallel over
    // base-width column chunks (a monolithic pivot strand would put its
    // whole r·c work on the critical path).
    const NodeId piv_r =
        pivot_task(col0, mid, mid, col0 + c, v);

    // U01 ← L00⁻¹ A01 (unit-diagonal TRS), A11 −= L10·U01 (tall MMS),
    // composed with the ND fire construct TM just like inside TRS.
    std::optional<TrsViews> tv;
    std::optional<MmViews> mv;
    if (v) {
      auto L00 = v->A.block(col0, col0, ch, ch);
      auto A01 = v->A.block(col0, mid, ch, cl);
      auto L10 = v->A.block(mid, col0, n - mid, ch);
      auto A11 = v->A.block(mid, mid, n - mid, cl);
      tv = TrsViews{L00, A01, /*unit_diag=*/true};
      mv = MmViews{L10, A01, A11, false};
    }
    // The update MMS is strongly rectangular (tall), so its spawn tree may
    // p-split and no longer match the TM table's 8-way shape; Toledo's
    // LU-level composition is serial anyway (pivoting), so compose with
    // ";". The ND gains inside TRS/MMS remain.
    const NodeId trs =
        build_trs(t, ty, TrsSide::LeftLower, ch, cl, base, tv);
    const NodeId mms = build_mm(t, ty, n - mid, ch, cl, base, -1.0, mv);
    const NodeId upd = t.seq({trs, mms});

    const NodeId trail = build(mid, cl, v);

    // Apply trailing swaps back to the left half's bottom rows.
    const NodeId piv_l = pivot_task(mid, col0 + c, col0, mid, v);

    const double size = r * double(c);
    return t.seq({left, piv_r, upd, trail, piv_l}, size, "LU");
  }
};

}  // namespace

void lu_reference(MatrixView<double> A, std::vector<int>& ipiv) {
  const std::size_t n = A.rows();
  NDF_CHECK(A.cols() == n);
  ipiv.assign(n, 0);
  lu_panel(A, ipiv, 0, 0, n);
}

void apply_pivots(MatrixView<double> A, const std::vector<int>& ipiv,
                  std::size_t k0, std::size_t k1, std::size_t c0,
                  std::size_t c1) {
  for (std::size_t k = k0; k < k1 && k < A.rows(); ++k) {
    const std::size_t p = static_cast<std::size_t>(ipiv[k]);
    if (p != k)
      for (std::size_t c = c0; c < c1; ++c) std::swap(A(k, c), A(p, c));
  }
}

NodeId build_lu(SpawnTree& tree, const LinalgTypes& ty, std::size_t n,
                std::size_t base, const std::optional<LuViews>& views) {
  NDF_CHECK(n >= 1 && base >= 2);
  if (views) {
    NDF_CHECK(views->A.rows() == n && views->A.cols() == n);
    NDF_CHECK(views->ipiv != nullptr);
    views->ipiv->assign(n, 0);
  }
  LuBuilder b{tree, ty, n, base};
  return b.build(0, n, views);
}

SpawnTree make_lu_tree(std::size_t n, std::size_t base) {
  SpawnTree tree;
  const LinalgTypes ty = LinalgTypes::install(tree);
  tree.set_root(build_lu(tree, ty, n, base, std::nullopt));
  return tree;
}

}  // namespace ndf
