// Unit tests for spawn-tree construction, pedigrees, size inheritance and
// the tree's layout: the hot node record, the flat child array, and the
// label, body and footprint side tables.
#include <gtest/gtest.h>

#include <vector>

#include "algos/matmul.hpp"
#include "exp/workload.hpp"
#include "nd/dot.hpp"
#include "nd/lower.hpp"
#include "nd/spawn_tree.hpp"

namespace ndf {
namespace {

TEST(Pedigree, ToStringMatchesPaperNotation) {
  Pedigree p{2, 1};
  EXPECT_EQ(p.to_string(), "(2)(1)");
  EXPECT_EQ(p.depth(), 2u);
  EXPECT_TRUE(Pedigree{}.empty());
}

TEST(FireRules, BuiltinsAndRegistration) {
  FireRules r;
  EXPECT_EQ(r.name(FireRules::kFull), "FULL");
  EXPECT_EQ(r.name(FireRules::kEmpty), "EMPTY");
  const FireType mm = r.add_type("MM");
  r.add_rule(mm, {1}, mm, {1});
  EXPECT_EQ(r.rules(mm).size(), 1u);
  EXPECT_TRUE(r.rules(FireRules::kFull).empty());
  EXPECT_THROW(r.add_rule(FireRules::kFull, {1}, mm, {1}), CheckError);
}

TEST(SpawnTree, ComposesAndCountsWork) {
  SpawnTree t;
  NodeId a = t.strand(3.0, 1.0, "a");
  NodeId b = t.strand(4.0, 1.0, "b");
  NodeId c = t.strand(5.0, 1.0, "c");
  NodeId s = t.seq({a, b}, 2.0);
  NodeId root = t.par({s, c}, 3.0);
  t.set_root(root);
  EXPECT_DOUBLE_EQ(t.work_of(root), 12.0);
  EXPECT_EQ(t.strand_count(root), 3u);
  EXPECT_EQ(t.node(a).parent, s);
  EXPECT_EQ(t.node(s).parent, root);
  EXPECT_EQ(t.label(a), "a");
  EXPECT_EQ(t.label(s), "");
}

TEST(SpawnTree, SizeInheritsFromLowestAnnotatedAncestor) {
  SpawnTree t;
  NodeId a = t.strand(1.0, 2.0);
  NodeId b = t.strand(1.0, 3.0);
  NodeId p = t.par({a, b});      // unannotated
  NodeId q = t.seq({p, t.strand(1.0, 1.0)}, 10.0);
  t.set_root(q);
  EXPECT_DOUBLE_EQ(t.size_of(a), 2.0);
  EXPECT_DOUBLE_EQ(t.size_of(p), 10.0);  // inherited from q
  EXPECT_DOUBLE_EQ(t.size_of(q), 10.0);
}

TEST(SpawnTree, DescendFollowsPedigreeAndStopsAtStrands) {
  SpawnTree t;
  NodeId a = t.strand(1.0, 1.0, "a");
  NodeId b = t.strand(1.0, 1.0, "b");
  NodeId c = t.strand(1.0, 1.0, "c");
  NodeId inner = t.par({a, b});
  NodeId root = t.seq({inner, c}, 1.0);
  t.set_root(root);
  EXPECT_EQ(t.descend(root, {1, 2}), b);
  EXPECT_EQ(t.descend(root, {2}), c);
  // Descending past a strand stops at the strand.
  EXPECT_EQ(t.descend(root, {2, 1, 1}), c);
  EXPECT_THROW(t.descend(root, {3}), CheckError);
}

TEST(SpawnTree, InSubtreeAndStrandsUnder) {
  SpawnTree t;
  NodeId a = t.strand(1.0, 1.0);
  NodeId b = t.strand(1.0, 1.0);
  NodeId c = t.strand(1.0, 1.0);
  NodeId p = t.par({a, b});
  NodeId root = t.seq({p, c}, 1.0);
  t.set_root(root);
  EXPECT_TRUE(t.in_subtree(a, p));
  EXPECT_TRUE(t.in_subtree(a, root));
  EXPECT_FALSE(t.in_subtree(c, p));
  const auto strands = t.strands_under(root);
  ASSERT_EQ(strands.size(), 3u);
  EXPECT_EQ(strands[0], a);
  EXPECT_EQ(strands[1], b);
  EXPECT_EQ(strands[2], c);
}

TEST(SpawnTree, FireNodeIsBinaryWithValidType) {
  SpawnTree t;
  const FireType mm = t.rules().add_type("MM");
  NodeId a = t.strand(1.0, 1.0);
  NodeId b = t.strand(1.0, 1.0);
  NodeId f = t.fire(mm, a, b, 2.0);
  t.set_root(f);
  EXPECT_EQ(t.children(f).size(), 2u);
  EXPECT_EQ(t.node(f).fire_type, mm);
  EXPECT_THROW(t.fire(99, a, b), CheckError);
}

TEST(SpawnTree, RootMustHaveNoParent) {
  SpawnTree t;
  NodeId a = t.strand(1.0, 1.0);
  NodeId b = t.strand(1.0, 1.0);
  NodeId s = t.seq({a, b}, 1.0);
  EXPECT_THROW(t.set_root(a), CheckError);
  t.set_root(s);
  EXPECT_EQ(t.root(), s);
}

// ------------------------------------------------------------------ layout

static_assert(sizeof(SpawnNode) <= 40, "the hot node record grew");

TEST(SpawnTreeLayout, ChildSpansKeepCreationOrder) {
  SpawnTree t;
  const NodeId a = t.strand(1.0, 1.0, "a");
  const NodeId b = t.strand(1.0, 1.0, "b");
  const NodeId c = t.strand(1.0, 1.0, "c");
  const NodeId d = t.strand(1.0, 1.0, "d");
  const NodeId p = t.par({c, a, d}, 3.0, "p");
  const NodeId f = t.fire(FireRules::kFull, b, p, 4.0);
  t.set_root(f);
  const std::vector<NodeId> pk(t.children(p).begin(), t.children(p).end());
  const std::vector<NodeId> fk(t.children(f).begin(), t.children(f).end());
  EXPECT_EQ(pk, (std::vector<NodeId>{c, a, d}));
  EXPECT_EQ(fk, (std::vector<NodeId>{b, p}));
  EXPECT_TRUE(t.children(a).empty());
  EXPECT_EQ(t.label(p), "p");
  EXPECT_EQ(t.label(c), "c");
  EXPECT_EQ(t.label(f), "");
}

TEST(SpawnTreeLayout, SimulatorTreeHasNoSideTables) {
  const SpawnTree t = exp::build_workload_tree(exp::parse_workload("mm:n=64"));
  EXPECT_GT(t.num_nodes(), 1000u);
  EXPECT_FALSE(t.has_bodies());
  EXPECT_FALSE(t.has_footprints());
  for (NodeId n : t.strands_under(t.root())) {
    ASSERT_FALSE(t.body(n));
    ASSERT_TRUE(t.reads(n).empty() && t.writes(n).empty());
  }
}

/// A 16×16 multiply bound to real matrices: every strand has a kernel and
/// a declared footprint.
struct BoundMm {
  Matrix<double> A{16, 16, 1.0}, B{16, 16, 2.0}, C{16, 16, 0.0};
  SpawnTree t;
  BoundMm() {
    const LinalgTypes ty = LinalgTypes::install(t);
    t.set_root(build_mm(t, ty, 16, 16, 16, 4, 1.0,
                        MmViews{A.view(), B.view(), C.view(), false}));
  }
};

TEST(SpawnTreeLayout, BoundMmHasABodyOnEveryStrand) {
  BoundMm m;
  EXPECT_TRUE(m.t.has_bodies());
  EXPECT_TRUE(m.t.has_footprints());
  for (NodeId n : m.t.strands_under(m.t.root())) {
    EXPECT_TRUE(m.t.body(n)) << n;
    EXPECT_FALSE(m.t.reads(n).empty()) << n;
    EXPECT_FALSE(m.t.writes(n).empty()) << n;
  }
}

TEST(SpawnTreeLayout, LowerRoundTripsLabelsBodiesAndFootprints) {
  BoundMm m;
  const SpawnTree& t = m.t;
  const SpawnTree np = lower_to_np(t);
  // Walk both trees in step: same shape, fires became seqs.
  std::vector<std::pair<NodeId, NodeId>> stack{{t.root(), np.root()}};
  std::size_t strands = 0;
  const auto same = [](std::span<const MemSegment> x,
                       std::span<const MemSegment> y) {
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i)
      if (x[i].lo != y[i].lo || x[i].hi != y[i].hi) return false;
    return true;
  };
  while (!stack.empty()) {
    const auto [a, b] = stack.back();
    stack.pop_back();
    ASSERT_EQ(t.label(a), np.label(b));
    ASSERT_EQ(t.children(a).size(), np.children(b).size());
    if (t.is_strand(a)) {
      ASSERT_TRUE(np.is_strand(b));
      EXPECT_EQ(bool(t.body(a)), bool(np.body(b)));
      EXPECT_TRUE(same(t.reads(a), np.reads(b)));
      EXPECT_TRUE(same(t.writes(a), np.writes(b)));
      ++strands;
    }
    EXPECT_EQ(np.node(b).kind,
              t.node(a).kind == Kind::Fire ? Kind::Seq : t.node(a).kind);
    for (std::size_t i = 0; i < t.children(a).size(); ++i)
      stack.push_back({t.children(a)[i], np.children(b)[i]});
  }
  EXPECT_EQ(strands, t.strand_count(t.root()));
  EXPECT_EQ(np.label(np.root()), "MM");
}

TEST(SpawnTreeLayout, DotDumpIsPinned) {
  // Hash taken from the tree with per-node child vectors and label
  // strings; the flat layout must print the same DOT.
  const std::string dot = to_dot(make_mm_tree(16, 4));
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (unsigned char c : dot) {
    h ^= c;
    h *= 1099511628211ull;
  }
  EXPECT_EQ(dot.size(), 9253u);
  EXPECT_EQ(h, 0x42061de0ad71c52bull);
}

}  // namespace
}  // namespace ndf
