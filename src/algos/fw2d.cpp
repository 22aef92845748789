#include "algos/fw2d.hpp"

#include <algorithm>

namespace ndf {

void fw2d_reference(Matrix<double>& D) {
  const std::size_t n = D.rows();
  NDF_CHECK(D.cols() == n);
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        D(i, j) = std::min(D(i, j), D(i, k) + D(k, j));
}

namespace {

using View = MatrixView<double>;

/// min-plus kernel: X(i,j) = min(X(i,j), U(i,k) + V(k,j)), where the k
/// index runs over U's columns. A/B/C leaves pass aliased views (e.g. the
/// classic A leaf is X=U=V with the k-loop outermost).
void fw_leaf(View X, View U, View V) {
  const std::size_t q = U.cols();
  for (std::size_t k = 0; k < q; ++k)
    for (std::size_t i = 0; i < X.rows(); ++i)
      for (std::size_t j = 0; j < X.cols(); ++j)
        X(i, j) = std::min(X(i, j), U(i, k) + V(k, j));
}

struct Fw2dBuilder {
  SpawnTree& t;
  std::size_t base;
  bool exec;

  double task_size(char kind, std::size_t s) const {
    const double s2 = double(s) * s;
    switch (kind) {
      case 'A': return s2 + 1.0;
      case 'B':
      case 'C': return 2.0 * s2 + 1.0;
      default: return 3.0 * s2 + 1.0;
    }
  }

  NodeId leaf(char kind, std::size_t s, const std::optional<View>& X,
              const std::optional<View>& U, const std::optional<View>& V) {
    const double work = double(s) * s * s;
    if (exec) {
      View x = *X, u = *U, v = *V;
      NodeId id = t.strand(work, task_size(kind, s), "fw",
                           [x, u, v] { fw_leaf(x, u, v); });
      t.add_reads(id, segments_of(u));
      t.add_reads(id, segments_of(v));
      t.add_writes(id, segments_of(x));
      return id;
    }
    return t.strand(work, task_size(kind, s), "fw");
  }

  std::optional<View> quad(const std::optional<View>& v, int r, int c) {
    if (!v) return std::nullopt;
    const std::size_t h = (v->rows() + 1) / 2;
    const std::size_t w = (v->cols() + 1) / 2;
    return v->block(r ? h : 0, c ? w : 0, r ? v->rows() - h : h,
                    c ? v->cols() - w : w);
  }

  // A(X): diagonal block.
  NodeId build_a(std::size_t s, const std::optional<View>& X) {
    if (s <= base) return leaf('A', s, X, X, X);
    const std::size_t sh = (s + 1) / 2, sl = s - sh;
    auto X00 = quad(X, 0, 0), X01 = quad(X, 0, 1), X10 = quad(X, 1, 0),
         X11 = quad(X, 1, 1);
    const NodeId a1 = build_a(sh, X00);
    const NodeId bc1 = t.par({build_b(sh, sl, X01, X00),
                              build_c(sl, sh, X10, X00)});
    const NodeId d1 = build_d(sl, sh, sl, X11, X10, X01);
    const NodeId a2 = build_a(sl, X11);
    const NodeId bc2 = t.par({build_b(sl, sh, X10, X11),
                              build_c(sh, sl, X01, X11)});
    const NodeId d2 = build_d(sh, sl, sh, X00, X01, X10);
    return t.seq({a1, bc1, d1, a2, bc2, d2}, task_size('A', s), "fwA");
  }

  // B(X, U): X shares rows with the diagonal block U; X is r×c, U is r×r.
  NodeId build_b(std::size_t r, std::size_t c, const std::optional<View>& X,
                 const std::optional<View>& U) {
    if (std::max(r, c) <= base) return leaf('B', std::max(r, c), X, U, X);
    const std::size_t rh = (r + 1) / 2, rl = r - rh;
    const std::size_t ch = (c + 1) / 2, cl = c - ch;
    auto X00 = quad(X, 0, 0), X01 = quad(X, 0, 1), X10 = quad(X, 1, 0),
         X11 = quad(X, 1, 1);
    auto U00 = quad(U, 0, 0), U01 = quad(U, 0, 1), U10 = quad(U, 1, 0),
         U11 = quad(U, 1, 1);
    const NodeId s1 = t.par({build_b(rh, ch, X00, U00),
                             build_b(rh, cl, X01, U00)});
    const NodeId s2 = t.par({build_d(rl, rh, ch, X10, U10, X00),
                             build_d(rl, rh, cl, X11, U10, X01)});
    const NodeId s3 = t.par({build_b(rl, ch, X10, U11),
                             build_b(rl, cl, X11, U11)});
    const NodeId s4 = t.par({build_d(rh, rl, ch, X00, U01, X10),
                             build_d(rh, rl, cl, X01, U01, X11)});
    return t.seq({s1, s2, s3, s4}, task_size('B', std::max(r, c)), "fwB");
  }

  // C(X, V): X shares columns with the diagonal block V; X is r×c, V c×c.
  NodeId build_c(std::size_t r, std::size_t c, const std::optional<View>& X,
                 const std::optional<View>& V) {
    if (std::max(r, c) <= base) return leaf('C', std::max(r, c), X, X, V);
    auto X00 = quad(X, 0, 0), X01 = quad(X, 0, 1), X10 = quad(X, 1, 0),
         X11 = quad(X, 1, 1);
    auto V00 = quad(V, 0, 0), V01 = quad(V, 0, 1), V10 = quad(V, 1, 0),
         V11 = quad(V, 1, 1);
    const std::size_t rh = (r + 1) / 2, rl = r - rh;
    const std::size_t ch = (c + 1) / 2, cl = c - ch;
    const NodeId s1 = t.par({build_c(rh, ch, X00, V00),
                             build_c(rl, ch, X10, V00)});
    const NodeId s2 = t.par({build_d(rh, ch, cl, X01, X00, V01),
                             build_d(rl, ch, cl, X11, X10, V01)});
    const NodeId s3 = t.par({build_c(rh, cl, X01, V11),
                             build_c(rl, cl, X11, V11)});
    const NodeId s4 = t.par({build_d(rh, cl, ch, X00, X01, V10),
                             build_d(rl, cl, ch, X10, X11, V10)});
    return t.seq({s1, s2, s3, s4}, task_size('C', std::max(r, c)), "fwC");
  }

  // D(X, U, V): X is r×c, U is r×q, V is q×c, all disjoint k-ranges.
  NodeId build_d(std::size_t r, std::size_t q, std::size_t c,
                 const std::optional<View>& X, const std::optional<View>& U,
                 const std::optional<View>& V) {
    if (std::max({r, q, c}) <= base)
      return leaf('D', std::max({r, q, c}), X, U, V);
    auto X00 = quad(X, 0, 0), X01 = quad(X, 0, 1), X10 = quad(X, 1, 0),
         X11 = quad(X, 1, 1);
    auto U00 = quad(U, 0, 0), U01 = quad(U, 0, 1), U10 = quad(U, 1, 0),
         U11 = quad(U, 1, 1);
    auto V00 = quad(V, 0, 0), V01 = quad(V, 0, 1), V10 = quad(V, 1, 0),
         V11 = quad(V, 1, 1);
    const std::size_t rh = (r + 1) / 2, rl = r - rh;
    const std::size_t qh = (q + 1) / 2, ql = q - qh;
    const std::size_t ch = (c + 1) / 2, cl = c - ch;
    const NodeId g1 =
        t.par({t.par({build_d(rh, qh, ch, X00, U00, V00),
                      build_d(rh, qh, cl, X01, U00, V01)}),
               t.par({build_d(rl, qh, ch, X10, U10, V00),
                      build_d(rl, qh, cl, X11, U10, V01)})});
    const NodeId g2 =
        t.par({t.par({build_d(rh, ql, ch, X00, U01, V10),
                      build_d(rh, ql, cl, X01, U01, V11)}),
               t.par({build_d(rl, ql, ch, X10, U11, V10),
                      build_d(rl, ql, cl, X11, U11, V11)})});
    return t.seq({g1, g2}, task_size('D', std::max({r, q, c})), "fwD");
  }
};

}  // namespace

NodeId build_fw2d_np(SpawnTree& tree, std::size_t n, std::size_t base,
                     Matrix<double>* D) {
  NDF_CHECK(n >= 1 && base >= 2);
  std::optional<View> X;
  if (D) {
    NDF_CHECK(D->rows() == n && D->cols() == n);
    X = D->view();
  }
  Fw2dBuilder b{tree, base, D != nullptr};
  return b.build_a(n, X);
}

SpawnTree make_fw2d_tree(std::size_t n, std::size_t base) {
  SpawnTree tree;
  tree.set_root(build_fw2d_np(tree, n, base, nullptr));
  return tree;
}

}  // namespace ndf
