// Tests of the DAG Rewriting System: the paper's Fig. 3/4 running example,
// fire-rule refinement, NP lowering, work/span computation, and pinned
// hashes of the elaborated output of every kernel and generator family.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "algos/matmul.hpp"
#include "exp/workload.hpp"
#include "nd/drs.hpp"

namespace ndf {
namespace {

/// Builds the paper's MAIN example (Fig. 3/4): MAIN = F ~FG~> G with
/// F = A ; B, G = C ; D, and fire rule +FG- = { +(1) ; -(1) } (A before C).
struct MainExample {
  SpawnTree t;
  NodeId A, B, C, D, F, G, root;

  explicit MainExample(double wa = 1, double wb = 1, double wc = 1,
                       double wd = 1) {
    const FireType fg = t.rules().add_type("FG");
    t.rules().add_rule(fg, {1}, FireRules::kFull, {1});
    A = t.strand(wa, 1.0, "A");
    B = t.strand(wb, 1.0, "B");
    C = t.strand(wc, 1.0, "C");
    D = t.strand(wd, 1.0, "D");
    F = t.seq({A, B}, 2.0, "F");
    G = t.seq({C, D}, 2.0, "G");
    root = t.fire(fg, F, G, 4.0, "MAIN");
    t.set_root(root);
  }
};

TEST(Drs, MainExampleSpanIsMaxOfTwoChains) {
  // T∞ = max{A+B, A+C+D} (Sec. 2 work-span analysis of Fig. 3).
  {
    MainExample ex(1, 10, 1, 1);  // A+B = 11 dominates
    EXPECT_DOUBLE_EQ(elaborate(ex.t).span(), 11.0);
  }
  {
    MainExample ex(1, 1, 10, 10);  // A+C+D = 21 dominates
    EXPECT_DOUBLE_EQ(elaborate(ex.t).span(), 21.0);
  }
  MainExample ex;
  EXPECT_DOUBLE_EQ(elaborate(ex.t).work(), 4.0);
}

TEST(Drs, MainExampleNpLoweringSerializesFAndG) {
  MainExample ex(1, 1, 1, 1);
  EXPECT_DOUBLE_EQ(elaborate(ex.t, {.np_mode = true}).span(), 4.0);
  EXPECT_DOUBLE_EQ(elaborate(ex.t).span(), 3.0);  // A;C;D
}

TEST(Drs, MainExampleEdgeSetIsExact) {
  MainExample ex;
  StrandGraph g = elaborate(ex.t);
  // The fire rule adds exactly one task-level arrow A -> C, and the two
  // seq nodes add A -> B and C -> D.
  ASSERT_EQ(g.arrows().size(), 3u);
  bool saw_ac = false;
  for (const TaskArrow& a : g.arrows())
    if (a.from == ex.A && a.to == ex.C) saw_ac = true;
  EXPECT_TRUE(saw_ac);
}

TEST(Drs, EmptyFireTypeBehavesLikeParallel) {
  SpawnTree t;
  const FireType none = t.rules().add_type("NONE");  // no rules
  NodeId a = t.strand(5.0, 1.0);
  NodeId b = t.strand(7.0, 1.0);
  t.set_root(t.fire(none, a, b, 2.0));
  EXPECT_DOUBLE_EQ(elaborate(t).span(), 7.0);  // max, not sum
}

TEST(Drs, NamedTypeBetweenStrandsIsFullDependency) {
  SpawnTree t;
  const FireType ty = t.rules().add_type("T");
  t.rules().add_rule(ty, {1}, ty, {1});
  NodeId a = t.strand(5.0, 1.0);
  NodeId b = t.strand(7.0, 1.0);
  t.set_root(t.fire(ty, a, b, 2.0));
  EXPECT_DOUBLE_EQ(elaborate(t).span(), 12.0);
}

TEST(Drs, SeqAndParComposeSpansClassically) {
  SpawnTree t;
  NodeId a = t.strand(2.0, 1.0);
  NodeId b = t.strand(3.0, 1.0);
  NodeId c = t.strand(4.0, 1.0);
  t.set_root(t.seq({t.par({a, b}), c}, 3.0));
  StrandGraph g = elaborate(t);
  EXPECT_DOUBLE_EQ(g.work(), 9.0);
  EXPECT_DOUBLE_EQ(g.span(), 7.0);  // max(2,3) + 4
}

TEST(Drs, MatmulWorkIsCubicAndGraphAcyclic) {
  SpawnTree t = make_mm_tree(16, 4);
  StrandGraph g = elaborate(t);
  EXPECT_DOUBLE_EQ(g.work(), 2.0 * 16 * 16 * 16);
  EXPECT_NO_THROW(g.topological_order());
  // ND span below NP span, both at least the leaf critical path.
  const double nd = g.span();
  const double np = elaborate(t, {.np_mode = true}).span();
  EXPECT_LE(nd, np);
}

TEST(Drs, MatmulNpSpanMatchesRecurrence) {
  // NP MM: T(n) = 2T(n/2) + O(1) with T(base) = 2·base³, so span scales
  // linearly in n/base.
  SpawnTree t8 = make_mm_tree(8, 4);
  SpawnTree t32 = make_mm_tree(32, 4);
  const double s8 = elaborate(t8, {.np_mode = true}).span();
  const double s32 = elaborate(t32, {.np_mode = true}).span();
  EXPECT_NEAR(s32 / s8, 4.0, 0.5);  // doubling n twice doubles span twice
}

TEST(Drs, DetachedNodesAreIgnored) {
  SpawnTree t;
  NodeId a = t.strand(1.0, 1.0);
  NodeId b = t.strand(2.0, 1.0);
  t.strand(100.0, 1.0);  // never composed
  t.set_root(t.seq({a, b}, 1.0));
  EXPECT_DOUBLE_EQ(elaborate(t).work(), 3.0);
}

TEST(Drs, RepeatedSolidArrowYieldsOneEdgeAtItsFirstPosition) {
  // A ~T~> (C ; D) where T = {+(1) -(1), +(1) -(2), +(2) -(1)}. A is a
  // strand, so descend() stops at it and the first and third rules both
  // reach the solid arrow A -> C.
  SpawnTree t;
  const FireType ty = t.rules().add_type("T");
  t.rules().add_rule(ty, {1}, FireRules::kFull, {1});
  t.rules().add_rule(ty, {1}, FireRules::kFull, {2});
  t.rules().add_rule(ty, {2}, FireRules::kFull, {1});
  const NodeId a = t.strand(1.0, 1.0, "A");
  const NodeId c = t.strand(1.0, 1.0, "C");
  const NodeId d = t.strand(1.0, 1.0, "D");
  const NodeId g = t.seq({c, d}, 2.0, "G");
  const NodeId root = t.fire(ty, a, g, 3.0, "MAIN");
  t.set_root(root);
  const StrandGraph sg = elaborate(t);

  ASSERT_EQ(sg.arrows().size(), 3u);
  EXPECT_EQ(sg.arrows()[0].from, c);  // the seq arrow C -> D comes first
  EXPECT_EQ(sg.arrows()[0].to, d);
  EXPECT_EQ(sg.arrows()[1].from, a);
  EXPECT_EQ(sg.arrows()[1].to, c);
  EXPECT_EQ(sg.arrows()[2].from, a);
  EXPECT_EQ(sg.arrows()[2].to, d);

  const auto succ = sg.successors(sg.exit(a));
  ASSERT_EQ(succ.size(), 3u);
  EXPECT_EQ(succ[0], sg.exit(root));
  EXPECT_EQ(succ[1], sg.enter(c));
  EXPECT_EQ(succ[2], sg.enter(d));
  EXPECT_EQ(sg.in_degree(sg.enter(c)), 2u);  // enter(G) and exit(A)
  // Strand self-edges (3), tree edges (2 per child: 4 + 4), arrows (3).
  EXPECT_EQ(sg.num_edges(), 3u + 8u + 3u);
}

/// FNV-1a over every vertex's successor list (in order) and in-degree,
/// then over arrows() in order: any change to the elaborated edge set, to
/// the order the scheduling layers see successors in, or to the order of
/// the task arrows changes it.
std::uint64_t elaboration_hash(const StrandGraph& g) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    mix(g.successors(v).size());
    for (VertexId w : g.successors(v)) mix(w);
    mix(g.in_degree(v));
  }
  mix(g.arrows().size());
  for (const TaskArrow& a : g.arrows())
    mix((std::uint64_t(a.from) << 32) | a.to);
  return h;
}

TEST(Drs, ElaborationOutputIsPinned) {
  // Hashes taken from the elaborator that used a global rewrite memo and
  // per-vertex adjacency vectors; the CSR elaborator must reproduce them.
  struct Case {
    const char* spec;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {"mm:n=16", 0x600c3928d35a31efull},
      {"mm:n=16,np", 0xf16057e2915dc2bbull},
      {"trs:n=16", 0x919834e601868ccfull},
      {"trs:n=16,np", 0xe373fe37abaf0acbull},
      {"cholesky:n=16", 0x2e5467db8fe74355ull},
      {"cholesky:n=16,np", 0x5499d405246555d7ull},
      {"cholesky:n=32", 0x15131fe7376c382cull},
      {"cholesky:n=32,np", 0x3c18458a3d7fcbb9ull},
      {"lu:n=16", 0x4ed6f0d30c2dced9ull},
      {"lu:n=16,np", 0x565ebf927f17d45bull},
      {"lcs:n=32", 0x39e170f7ad408837ull},
      {"lcs:n=32,np", 0x0dbb6dfd22e8685full},
      {"gotoh:n=32", 0x39e170f7ad408837ull},
      {"gotoh:n=32,np", 0x0dbb6dfd22e8685full},
      {"fw1d:n=16", 0xe9dcd8ef8cad3064ull},
      {"fw1d:n=16,np", 0x093d26aa80591413ull},
      {"fw2d:n=32", 0x9f879910cf40e6d0ull},
      {"fw2d:n=32,np", 0x9f879910cf40e6d0ull},
      {"gen:family=sp,seed=1,cross=60", 0x49c78531d9f14e25ull},
      {"gen:family=sp,seed=1,cross=60,np", 0x7281d05d2dc20f4dull},
      {"gen:family=sp,seed=2,cross=100", 0xbd0bb7748e42c6e9ull},
      {"gen:family=sp,seed=2,cross=100,np", 0x750afec3925c3018ull},
      {"gen:family=sp,depth=6,seed=4,cross=60", 0xa8956df7d025754aull},
      {"gen:family=sp,depth=6,seed=4,cross=60,np", 0x60fb5378107c1a47ull},
      {"gen:family=wavefront,n=8", 0x6f5691ae04cb1d7full},
      {"gen:family=wavefront,n=8,np", 0xac6eaf2037f7d215ull},
      {"gen:family=chain,n=12", 0xe73655836bc86ce9ull},
      {"gen:family=chain,n=12,np", 0xe73655836bc86ce9ull},
      {"gen:family=forkjoin,depth=3,fan=4", 0x77863cb12c28274cull},
      {"gen:family=forkjoin,depth=3,fan=4,np", 0x77863cb12c28274cull},
      {"gen:family=diamond,depth=3,fan=3", 0xb4de4bba2f06fb00ull},
      {"gen:family=diamond,depth=3,fan=3,np", 0xb4de4bba2f06fb00ull},
  };
  for (const Case& c : cases) {
    const exp::WorkloadSpec spec = exp::parse_workload(c.spec);
    const SpawnTree t = exp::build_workload_tree(spec);
    EXPECT_EQ(elaboration_hash(elaborate(t, {.np_mode = spec.np})), c.hash)
        << c.spec;
  }
}

}  // namespace
}  // namespace ndf
