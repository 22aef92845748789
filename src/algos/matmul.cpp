#include "algos/matmul.hpp"

namespace ndf {

void mm_reference(MatrixView<double> A, MatrixView<double> B,
                  MatrixView<double> C, double sign, bool b_transposed) {
  const std::size_t p = C.rows(), s = C.cols(), q = A.cols();
  NDF_CHECK(A.rows() == p);
  if (b_transposed)
    NDF_CHECK(B.rows() == s && B.cols() == q);
  else
    NDF_CHECK(B.rows() == q && B.cols() == s);
  if (b_transposed) {
    for (std::size_t i = 0; i < p; ++i)
      for (std::size_t j = 0; j < s; ++j) {
        double acc = 0.0;
        for (std::size_t k = 0; k < q; ++k) acc += A(i, k) * B(j, k);
        C(i, j) += sign * acc;
      }
    return;
  }
  // i-k-j order streams B and C rows (the j-inner form walks B with stride
  // equal to the backing matrix width, which is bandwidth-hostile).
  for (std::size_t i = 0; i < p; ++i)
    for (std::size_t k = 0; k < q; ++k) {
      const double a = sign * A(i, k);
      for (std::size_t j = 0; j < s; ++j) C(i, j) += a * B(k, j);
    }
}

namespace {

/// Logical quadrant (r, c) of the B operand, respecting transposition: the
/// (r, c) quadrant of Bᵀ is the (c, r) quadrant of the stored B.
MatrixView<double> b_quadrant(const MmViews& v, std::size_t q,
                              std::size_t s, int r, int c) {
  const std::size_t qh = (q + 1) / 2, sh = (s + 1) / 2;
  if (v.b_transposed)
    return v.B.block(c ? sh : 0, r ? qh : 0, c ? s - sh : sh,
                     r ? q - qh : qh);
  return v.B.block(r ? qh : 0, c ? sh : 0, r ? q - qh : qh, c ? s - sh : sh);
}

struct MmBuilder {
  SpawnTree& t;
  const LinalgTypes& ty;
  std::size_t base;
  double sign;

  NodeId build(std::size_t p, std::size_t q, std::size_t s,
               const std::optional<MmViews>& v) {
    const double work = 2.0 * double(p) * double(q) * double(s);
    const double size =
        double(p) * q + double(q) * s + double(p) * s;
    const std::size_t maxdim = std::max({p, q, s});

    // Strongly rectangular blocks (LU's tall panel updates): peel the
    // dominant dimension first so the 8-way fire shape below only ever sees
    // aspect ratios ≤ 2, which is what the Eq. (1)/(8) pedigrees assume.
    // p- and s-splits write disjoint C halves (parallel); a q-split has the
    // two halves updating the same C and uses the MM fire construct between
    // the two isomorphic subtrees.
    if (maxdim > base) {
      if (p > 2 * std::max(q, s)) {
        const std::size_t ph = (p + 1) / 2;
        auto half = [&](int hi) {
          std::optional<MmViews> sv;
          if (v)
            sv = MmViews{v->A.block(hi ? ph : 0, 0, hi ? p - ph : ph, q),
                         v->B,
                         v->C.block(hi ? ph : 0, 0, hi ? p - ph : ph, s),
                         v->b_transposed};
          return build(hi ? p - ph : ph, q, s, sv);
        };
        return t.par({half(0), half(1)}, size);
      }
      if (s > 2 * std::max(p, q)) {
        const std::size_t sh = (s + 1) / 2;
        auto half = [&](int hi) {
          std::optional<MmViews> sv;
          if (v) {
            auto Bh = v->b_transposed
                          ? v->B.block(hi ? sh : 0, 0, hi ? s - sh : sh, q)
                          : v->B.block(0, hi ? sh : 0, q, hi ? s - sh : sh);
            sv = MmViews{v->A, Bh,
                         v->C.block(0, hi ? sh : 0, p, hi ? s - sh : sh),
                         v->b_transposed};
          }
          return build(p, q, hi ? s - sh : sh, sv);
        };
        return t.par({half(0), half(1)}, size);
      }
      if (q > 2 * std::max(p, s)) {
        const std::size_t qh = (q + 1) / 2;
        auto half = [&](int hi) {
          std::optional<MmViews> sv;
          if (v) {
            auto Bh = v->b_transposed
                          ? v->B.block(0, hi ? qh : 0, s, hi ? q - qh : qh)
                          : v->B.block(hi ? qh : 0, 0, hi ? q - qh : qh, s);
            sv = MmViews{v->A.block(0, hi ? qh : 0, p, hi ? q - qh : qh), Bh,
                         v->C, v->b_transposed};
          }
          return build(p, hi ? q - qh : qh, s, sv);
        };
        return t.fire(ty.MMT, half(0), half(1), size, "MMq");
      }
    }

    if (maxdim <= base) {
      if (!v) return t.strand(work, size, "mm");
      const MmViews cv = *v;
      const double sg = sign;
      const NodeId id = t.strand(work, size, "mm", [cv, sg] {
        mm_reference(cv.A, cv.B, cv.C, sg, cv.b_transposed);
      });
      t.add_reads(id, segments_of(cv.A));
      t.add_reads(id, segments_of(cv.B));
      t.add_writes(id, segments_of(cv.C));
      return id;
    }

    const std::size_t ph = (p + 1) / 2, qh = (q + 1) / 2, sh = (s + 1) / 2;
    // Eight sub-multiplies; half g ∈ {0,1} selects the k-range (B row half
    // / A column half), and each half covers all four C quadrants.
    auto sub = [&](int g, int ci, int cj) {
      std::optional<MmViews> sv;
      if (v) {
        sv = MmViews{
            v->A.block(ci ? ph : 0, g ? qh : 0, ci ? p - ph : ph,
                       g ? q - qh : qh),
            b_quadrant(*v, q, s, g, cj),
            v->C.block(ci ? ph : 0, cj ? sh : 0, ci ? p - ph : ph,
                       cj ? s - sh : sh),
            v->b_transposed};
      }
      return build(ci ? p - ph : ph, g ? q - qh : qh, cj ? s - sh : sh, sv);
    };
    auto half = [&](int g) {
      return t.par({t.par({sub(g, 0, 0), sub(g, 0, 1)}),
                    t.par({sub(g, 1, 0), sub(g, 1, 1)})});
    };
    const NodeId first = half(0);
    const NodeId second = half(1);
    return t.fire(ty.MMH, first, second, size, "MM");
  }
};

}  // namespace

NodeId build_mm(SpawnTree& tree, const LinalgTypes& ty, std::size_t p,
                std::size_t q, std::size_t s, std::size_t base, double sign,
                const std::optional<MmViews>& views) {
  // base >= 2 guarantees no dimension is ever split below 1 (an 8-way split
  // only happens at aspect ratio <= 2, so a unit dimension implies
  // maxdim <= 2 <= base, i.e. a leaf).
  NDF_CHECK(p >= 1 && q >= 1 && s >= 1 && base >= 2);
  if (views) {
    NDF_CHECK(views->A.rows() == p && views->A.cols() == q);
    NDF_CHECK(views->C.rows() == p && views->C.cols() == s);
  }
  MmBuilder b{tree, ty, base, sign};
  return b.build(p, q, s, views);
}

SpawnTree make_mm_tree(std::size_t n, std::size_t base) {
  SpawnTree tree;
  const LinalgTypes ty = LinalgTypes::install(tree);
  tree.set_root(build_mm(tree, ty, n, n, n, base, +1.0, std::nullopt));
  return tree;
}

}  // namespace ndf
