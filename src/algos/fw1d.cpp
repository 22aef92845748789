#include "algos/fw1d.hpp"

#include <algorithm>

namespace ndf {

Fw1dTypes Fw1dTypes::install(SpawnTree& tree) {
  FireRules& R = tree.rules();
  Fw1dTypes t;
  t.AB = R.add_type("AB");
  t.ABAB = R.add_type("ABAB");
  t.DA = R.add_type("DA");
  t.VVA = R.add_type("VVA");
  t.VVB = R.add_type("VVB");
  t.BBBB = R.add_type("BBBB");

  // Node shapes: A = fire(ABAB, fire(AB, a00, b01), fire(AB, a11, b10));
  // B = fire(BBBB, par(b00, b01), par(b10, b11)). In both shapes the
  // top-row subtasks sit at pedigrees (1)(1) and (1)(2).

  // A → same-rows B: the sink's top half reads the source's upper-diagonal
  // values, the bottom half reads the lower sub-A's diagonals plus the
  // upper sub-A's LAST diagonal (the boundary rule the arXiv table omits).
  R.add_rule(t.AB, {1, 1}, t.AB, {1, 1});
  R.add_rule(t.AB, {1, 1}, t.AB, {1, 2});
  R.add_rule(t.AB, {2, 1}, t.AB, {2, 1});
  R.add_rule(t.AB, {2, 1}, t.AB, {2, 2});
  R.add_rule(t.AB, {1, 1}, t.DA, {2, 1});
  R.add_rule(t.AB, {1, 1}, t.DA, {2, 2});

  // First half-step → second half-step: b01 sits above a11, a00 sits above
  // b10, and a00's last diagonal bounds both members of the second half.
  R.add_rule(t.ABAB, {2}, t.VVB, {1});
  R.add_rule(t.ABAB, {1}, t.VVA, {2});
  R.add_rule(t.ABAB, {1}, t.DA, {1});
  R.add_rule(t.ABAB, {1}, t.DA, {2});

  // Last diagonal cell: produced inside the source's bottom-right sub-A,
  // consumed by the sink's first row.
  R.add_rule(t.DA, {2, 1}, t.DA, {1, 1});
  R.add_rule(t.DA, {2, 1}, t.DA, {1, 2});

  // Vertical neighbours (column-aligned): the source's bottom-row subtasks
  // feed the sink's top-row subtasks. For an A-shaped source the bottom
  // row is (b10, a11); for a B-shaped source it is (b10, b11).
  R.add_rule(t.VVA, {2, 2}, t.VVB, {1, 1});
  R.add_rule(t.VVA, {2, 1}, t.VVA, {1, 2});
  R.add_rule(t.VVB, {2, 1}, t.VVB, {1, 1});
  R.add_rule(t.VVB, {2, 2}, t.VVB, {1, 2});

  // Row-halves of a B-task, positionally (the paper's BBBB).
  R.add_rule(t.BBBB, {1}, t.VVB, {1});
  R.add_rule(t.BBBB, {2}, t.VVB, {2});
  return t;
}

namespace {

/// Fills cells (t, i) for t in [t0, t0+st), i in [i0, i0+si).
void fw1d_block(Matrix<double>& D, std::size_t t0, std::size_t i0,
                std::size_t st, std::size_t si) {
  for (std::size_t t = t0; t < t0 + st; ++t)
    for (std::size_t i = i0; i < i0 + si; ++i)
      D(t, i) = std::min(D(t - 1, i), D(t - 1, t - 1) + 1.0);
}

struct Fw1dBuilder {
  SpawnTree& t;
  const Fw1dTypes& ty;
  std::size_t base;
  Matrix<double>* D;  // null for structure-only

  NodeId leaf(std::size_t t0, std::size_t i0, std::size_t st,
              std::size_t si) {
    const double work = double(st) * si;
    const double size = double(st) * si + 2.0 * st;
    if (!D) return t.strand(work, size, "fw1d");
    Matrix<double>* Dp = D;
    const NodeId id = t.strand(
        work, size, "fw1d",
        [Dp, t0, i0, st, si] { fw1d_block(*Dp, t0, i0, st, si); });
    MatrixView<double> dv = Dp->view();
    // Reads: the row above the block and the diagonal cells
    // (t-1, t-1) for t in the block's row range.
    t.add_reads(id, segments_of(dv.block(t0 - 1, i0, 1, si)));
    for (std::size_t k = 0; k < st; ++k) {
      const double* cell = &(*Dp)(t0 - 1 + k, t0 - 1 + k);
      const MemSegment seg{reinterpret_cast<std::uintptr_t>(cell),
                           reinterpret_cast<std::uintptr_t>(cell + 1)};
      t.add_reads(id, {&seg, 1});
    }
    t.add_writes(id, segments_of(dv.block(t0, i0, st, si)));
    return id;
  }

  /// B task: block rows [t0, t0+st) × cols [i0, i0+si); diagonals come from
  /// elsewhere (the fire rules provide the ordering).
  NodeId build_b(std::size_t t0, std::size_t i0, std::size_t st,
                 std::size_t si) {
    if (std::max(st, si) <= base) return leaf(t0, i0, st, si);
    const std::size_t th = (st + 1) / 2, tl = st - th;
    const std::size_t ih = (si + 1) / 2, il = si - ih;
    const NodeId b00 = build_b(t0, i0, th, ih);
    const NodeId b01 = build_b(t0, i0 + ih, th, il);
    const NodeId b10 = build_b(t0 + th, i0, tl, ih);
    const NodeId b11 = build_b(t0 + th, i0 + ih, tl, il);
    return t.fire(ty.BBBB, t.par({b00, b01}), t.par({b10, b11}),
                  double(st) * si + 2.0 * st, "B");
  }

  /// A task: diagonal block rows [t0, t0+s) × cols [t0, t0+s).
  NodeId build_a(std::size_t t0, std::size_t s) {
    if (s <= base) return leaf(t0, t0, s, s);
    const std::size_t sh = (s + 1) / 2, sl = s - sh;
    const NodeId a00 = build_a(t0, sh);
    const NodeId b01 = build_b(t0, t0 + sh, sh, sl);
    const NodeId a11 = build_a(t0 + sh, sl);
    const NodeId b10 = build_b(t0 + sh, t0, sl, sh);
    const NodeId g1 = t.fire(ty.AB, a00, b01);
    const NodeId g2 = t.fire(ty.AB, a11, b10);
    return t.fire(ty.ABAB, g1, g2, double(s) * s + 2.0 * s, "A");
  }
};

}  // namespace

NodeId build_fw1d(SpawnTree& tree, const Fw1dTypes& ty, std::size_t n,
                  std::size_t base, Matrix<double>* D) {
  NDF_CHECK(n >= 1 && base >= 1);
  if (D) NDF_CHECK(D->rows() >= n + 1 && D->cols() >= n + 1);
  Fw1dBuilder b{tree, ty, base, D};
  return b.build_a(1, n);
}

SpawnTree make_fw1d_tree(std::size_t n, std::size_t base) {
  SpawnTree tree;
  const Fw1dTypes ty = Fw1dTypes::install(tree);
  tree.set_root(build_fw1d(tree, ty, n, base, nullptr));
  return tree;
}

void fw1d_reference(Matrix<double>& D) {
  const std::size_t n = D.rows() - 1;
  fw1d_block(D, 1, 1, n, n);
}

}  // namespace ndf
