// Tests of the synthetic workload generator (src/gen/):
//   G1  property matrix: every generated graph across a seed × family ×
//       size grid (150+ graphs) passes validate_rules, elaborates to an
//       acyclic DAG, and check_determinacy finds every footprint conflict
//       ordered — with conflicts actually present (the oracle is live)
//   G2  determinism: identical specs are bit-identical — tree structure,
//       rule tables, synthetic footprints (counter-based, never real
//       pointers) and elaborated-DAG numbers all reproduce exactly
//   G3  seeds matter: different sp seeds give different graphs
//   G4  structured families hit their corner shapes exactly (chain span ==
//       work, forkjoin/diamond widths, wavefront span == (2n-1)·work), and
//       a 256-wide wavefront keeps every grid arrow
//   G5  spec parsing: defaults, label round-trips, loud unknown-family /
//       inapplicable-key / bad-value failures
//   G6  scheduling: serial-policy makespan equals total work (misses off)
//       for every family, and gen workloads flow through the whole sweep
//       engine with jobs=1 / jobs=4 output byte-identical
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "exp/report.hpp"
#include "exp/sweep.hpp"
#include "gen/families.hpp"
#include "gen/gen.hpp"
#include "nd/dot.hpp"
#include "nd/drs.hpp"
#include "nd/stats.hpp"
#include "nd/validate.hpp"
#include "pmh/presets.hpp"
#include "sched/registry.hpp"

namespace ndf {
namespace {

gen::GenSpec sp_spec(std::uint64_t seed, std::size_t depth, std::size_t fan,
                     std::size_t cross = 30) {
  gen::GenSpec g;
  g.family = "sp";
  g.seed = seed;
  g.depth = depth;
  g.fan = fan;
  g.cross = cross;
  return g;
}

/// Asserts one generated tree is fully legal; returns its report.
gen::GenReport expect_legal(const gen::GenSpec& spec) {
  const SpawnTree tree = gen::generate(spec);
  EXPECT_TRUE(validate_rules(tree.rules()).empty()) << spec.label();
  const gen::GenReport rep = gen::check_generated(tree);
  EXPECT_TRUE(rep.ok()) << spec.label() << ": " << rep.message;
  EXPECT_GE(tree.strand_count(tree.root()), 1u) << spec.label();
  EXPECT_GT(tree.work_of(tree.root()), 0.0) << spec.label();
  // The np elaboration of the same tree must be legal too (fires become
  // full dependencies — a superset of the ND orderings).
  const gen::GenReport np = gen::check_generated(tree, /*np_mode=*/true);
  EXPECT_TRUE(np.ok()) << spec.label() << " (np): " << np.message;
  return rep;
}

TEST(Gen, PropertyMatrixAllLegal) {  // G1
  std::size_t graphs = 0;
  std::size_t with_conflicts = 0;

  // Random series-parallel: 25 seeds × 3 depths × 2 fans = 150 graphs.
  for (std::uint64_t seed = 0; seed < 25; ++seed)
    for (std::size_t depth : {3u, 5u, 7u})
      for (std::size_t fan : {2u, 4u}) {
        const gen::GenReport rep =
            expect_legal(sp_spec(seed, depth, fan, (seed * 17) % 101));
        ++graphs;
        if (rep.conflicting_pairs > 0) ++with_conflicts;
      }

  // Structured families across sizes.
  for (std::size_t n : {1u, 2u, 5u, 32u}) {
    gen::GenSpec c;
    c.family = "chain";
    c.n = n;
    expect_legal(c);
    gen::GenSpec w;
    w.family = "wavefront";
    w.n = n;
    expect_legal(w);
    graphs += 2;
  }
  for (std::size_t depth : {1u, 3u, 6u})
    for (std::size_t fan : {1u, 2u, 7u}) {
      gen::GenSpec f;
      f.family = "forkjoin";
      f.depth = depth;
      f.fan = fan;
      expect_legal(f);
      gen::GenSpec d;
      d.family = "diamond";
      d.depth = depth;
      d.fan = fan;
      expect_legal(d);
      graphs += 2;
    }

  EXPECT_GE(graphs, 150u);
  // The determinacy oracle is live: most random graphs declare conflicts
  // that the checker had to prove ordered, not vacuously pass.
  EXPECT_GT(with_conflicts, graphs / 2);
}

// Everything observable about a generated workload, serialized. Two
// generations of the same spec must produce equal strings — including the
// synthetic footprint addresses, which is what guarantees bit-identical
// behavior across *processes* (nothing depends on ASLR or static state).
std::string fingerprint(const gen::GenSpec& spec) {
  const SpawnTree tree = gen::generate(spec);
  std::ostringstream os;
  os << to_dot(tree);
  for (NodeId n = 0; n < tree.num_nodes(); ++n) {
    const SpawnNode& node = tree.node(n);
    os << n << ':' << node.work << '/' << node.size;
    for (const MemSegment& s : tree.reads(n))
      os << " r" << s.lo << '-' << s.hi;
    for (const MemSegment& s : tree.writes(n))
      os << " w" << s.lo << '-' << s.hi;
    os << '\n';
  }
  for (FireType t = 0; t < FireType(tree.rules().num_types()); ++t) {
    os << tree.rules().name(t);
    for (const FireRule& r : tree.rules().rules(t))
      os << ' ' << r.src.to_string() << '>' << r.inner << '>'
         << r.dst.to_string();
    os << '\n';
  }
  const StrandGraph g = elaborate(tree);
  os << g.num_vertices() << ' ' << g.num_edges() << ' ' << g.work() << ' '
     << g.span();
  return os.str();
}

TEST(Gen, IdenticalSpecsAreBitIdentical) {  // G2
  for (const char* label :
       {"gen:family=sp,depth=7,fan=4,seed=9,cross=70",
        "gen:family=wavefront,n=9", "gen:family=diamond,depth=3,fan=5"}) {
    exp::WorkloadSpec w = exp::parse_workload(label);
    ASSERT_TRUE(w.gen) << label;
    EXPECT_EQ(fingerprint(*w.gen), fingerprint(*w.gen)) << label;
  }
}

TEST(Gen, SeedsChangeTheGraph) {  // G3
  EXPECT_NE(fingerprint(sp_spec(1, 6, 3)), fingerprint(sp_spec(2, 6, 3)));
  EXPECT_NE(fingerprint(sp_spec(1, 6, 3)), fingerprint(sp_spec(1, 6, 4)));
}

TEST(Gen, StructuredFamiliesHitCornerShapes) {  // G4
  const double W = 64.0;  // the default work

  // chain: zero parallelism, span == work.
  const SpawnTree chain = gen::make_chain_tree(10, W);
  const StrandGraph cg = elaborate(chain);
  EXPECT_DOUBLE_EQ(cg.span(), cg.work());
  EXPECT_DOUBLE_EQ(cg.work(), 10 * W);

  // forkjoin: width == fan, span == depth·work.
  const SpawnTree fj = gen::make_forkjoin_tree(5, 8, W);
  const DagStats fs = compute_stats(elaborate(fj));
  EXPECT_EQ(fs.max_level_width, 8u);
  EXPECT_DOUBLE_EQ(fs.span, 5 * W);
  EXPECT_DOUBLE_EQ(fs.work, 5 * 8 * W);

  // diamond: width == fan, span == 3·depth·work (src, middle, sink each).
  const SpawnTree dia = gen::make_diamond_tree(4, 6, W);
  const DagStats ds = compute_stats(elaborate(dia));
  EXPECT_EQ(ds.max_level_width, 6u);
  EXPECT_DOUBLE_EQ(ds.span, 4 * 3 * W);

  // wavefront: n² strands, width == n, span == (2n-1)·work — the
  // anti-diagonal frontier the per-column fire rules exist to expose.
  const SpawnTree wf = gen::make_wavefront_tree(12, W);
  const DagStats ws = compute_stats(elaborate(wf));
  EXPECT_EQ(ws.strands, 144u);
  EXPECT_EQ(ws.max_level_width, 12u);
  EXPECT_DOUBLE_EQ(ws.span, 23 * W);
  // The np elision serializes the whole grid.
  EXPECT_DOUBLE_EQ(compute_stats(elaborate(wf, {.np_mode = true})).span,
                   144 * W);
}

TEST(Gen, WideWavefrontHasEveryGridArrow) {  // G4
  // Rows of 256 cells need pedigree indices past 255.
  constexpr std::size_t n = 256;
  const SpawnTree t = exp::build_workload_tree(
      exp::parse_workload("gen:family=wavefront,n=" + std::to_string(n)));
  const StrandGraph g = elaborate(t);
  std::map<std::string, NodeId, std::less<>> cell;
  for (NodeId s : t.strands_under(t.root()))
    cell.emplace(std::string(t.label(s)), s);
  ASSERT_EQ(cell.size(), n * n);
  std::set<std::pair<NodeId, NodeId>> arrows;
  for (const TaskArrow& a : g.arrows()) arrows.emplace(a.from, a.to);
  const auto at = [&](std::size_t i, std::size_t j) {
    return cell.at("wf" + std::to_string(i) + "," + std::to_string(j));
  };
  std::size_t missing = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (i + 1 < n) missing += !arrows.count({at(i, j), at(i + 1, j)});
      if (j + 1 < n) missing += !arrows.count({at(i, j), at(i, j + 1)});
    }
  EXPECT_EQ(missing, 0u);
  EXPECT_DOUBLE_EQ(g.span(), double(2 * n - 1) * gen::GenSpec{}.work);
}

TEST(Gen, SpecParsingDefaultsAndRoundTrip) {  // G5
  exp::WorkloadSpec w = exp::parse_workload("gen:family=sp");
  ASSERT_TRUE(w.gen);
  EXPECT_EQ(w.algo, "gen");
  EXPECT_EQ(w.gen->family, "sp");
  EXPECT_EQ(w.gen->depth, 6u);
  EXPECT_EQ(w.gen->fan, 3u);
  EXPECT_EQ(w.gen->seed, 1u);
  EXPECT_EQ(w.label(), "gen:family=sp");

  w = exp::parse_workload("gen:family=sp,depth=8,fan=4,seed=7");
  EXPECT_EQ(w.gen->depth, 8u);
  EXPECT_EQ(w.gen->fan, 4u);
  EXPECT_EQ(w.gen->seed, 7u);
  EXPECT_EQ(w.label(), "gen:family=sp,depth=8,fan=4,seed=7");
  EXPECT_EQ(exp::parse_workload(w.label()).label(), w.label());

  // Key order in the spec does not matter; the label is canonical.
  EXPECT_EQ(exp::parse_workload("gen:seed=7,fan=4,family=sp,depth=8").label(),
            "gen:family=sp,depth=8,fan=4,seed=7");

  // np is a workload-level flag and round-trips too.
  w = exp::parse_workload("gen:family=wavefront,n=8,np");
  EXPECT_TRUE(w.np);
  EXPECT_EQ(w.label(), "gen:family=wavefront,n=8,np");
  EXPECT_EQ(exp::parse_workload(w.label()).label(), w.label());

  // Mixed lists parse.
  const auto list =
      exp::parse_workload_list("mm:n=8;gen:family=chain,n=4;trs:n=8,np");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[1].algo, "gen");
  EXPECT_EQ(list[1].gen->family, "chain");
}

TEST(Gen, BadSpecsFailLoudly) {  // G5
  try {
    exp::parse_workload("gen:family=bogus,n=4");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown gen family 'bogus'"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("wavefront"), std::string::npos) << msg;  // listed
  }
  try {
    exp::parse_workload("gen:family=chain,fan=3");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("does not accept parameter 'fan'"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("n=16, work=64"), std::string::npos) << msg;  // listed
  }
  EXPECT_THROW(exp::parse_workload("gen:family=sp,depth=abc"), CheckError);
  EXPECT_THROW(exp::parse_workload("gen:family=sp,seed=-1"), CheckError);
  EXPECT_THROW(exp::parse_workload("gen:family=sp,seed=+7"), CheckError);
  // Overflow must fail loudly, not saturate to 2^64-1.
  EXPECT_THROW(
      exp::parse_workload("gen:family=sp,seed=99999999999999999999999"),
      CheckError);
  EXPECT_THROW(exp::parse_workload("gen:family=sp,depth=4,depth=5"),
               CheckError);
  // Out-of-range values are rejected at generation (also for specs built
  // past the parser).
  gen::GenSpec g;
  g.family = "sp";
  g.fan = 1;
  EXPECT_THROW(gen::generate(g), CheckError);
  g = gen::GenSpec{};
  g.family = "wavefront";
  g.n = 4000;
  EXPECT_THROW(gen::generate(g), CheckError);
  g = gen::GenSpec{};
  g.family = "sp";
  g.depth = 12;
  g.fan = 32;  // fan^depth explodes
  EXPECT_THROW(gen::generate(g), CheckError);
}

TEST(Gen, SerialMakespanEqualsTotalWork) {  // G6
  for (const char* label :
       {"gen:family=sp,depth=6,fan=3,seed=5", "gen:family=chain,n=20",
        "gen:family=forkjoin,depth=4,fan=4", "gen:family=diamond,depth=3",
        "gen:family=wavefront,n=8"}) {
    const exp::Workload w(exp::parse_workload(label));
    const Pmh m = make_pmh("flat8");
    SchedOptions o;
    o.charge_misses = false;
    const SchedStats s = run_scheduler("serial", w.graph(), m, o);
    EXPECT_DOUBLE_EQ(s.makespan, w.graph().work()) << label;
    EXPECT_DOUBLE_EQ(s.total_work, w.graph().work()) << label;
  }
}

TEST(Gen, SweepOutputByteIdenticalAcrossJobs) {  // G6
  exp::Scenario s;
  s.name = "gen";
  s.workloads = exp::parse_workload_list(
      "gen:family=sp,depth=6,fan=3,seed=7;gen:family=wavefront,n=10");
  s.machines = {"flat8", "deep2x4"};
  s.policies = {"sb", "ws", "greedy", "serial"};
  s.sigmas = {0.25, 0.5};
  s.repeats = 2;

  const auto emit = [](const std::vector<exp::RunPoint>& runs) {
    std::ostringstream os;
    exp::results_table("gen", runs).print(os);
    exp::write_sweep_json(os, "gen", runs);
    exp::write_sweep_csv(os, runs);
    return os.str();
  };

  exp::Sweep serial(s, 1);
  const std::string golden = emit(serial.run());
  exp::Sweep parallel(s, 4);
  EXPECT_EQ(emit(parallel.run()), golden);
  EXPECT_EQ(parallel.condensations_built(), serial.condensations_built());
}

}  // namespace
}  // namespace ndf
