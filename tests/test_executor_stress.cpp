// Stress tests of the real-thread executor: randomized seq/par/fire spawn
// trees whose strands record execution counts and happens-before
// timestamps; under heavy thread counts every strand must run exactly
// once and every dependence edge must be respected.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <unordered_map>

#include "nd/drs.hpp"
#include "pmh/presets.hpp"
#include "runtime/executor.hpp"
#include "support/rng.hpp"

namespace ndf {
namespace {

struct Recorder {
  std::atomic<std::uint64_t> clock{0};
  // Per strand: execution count and (start, end) logical timestamps.
  std::vector<std::atomic<int>> runs;
  std::vector<std::uint64_t> start, end;
  /// Strand node id -> strand index, filled as the strands are created.
  std::unordered_map<NodeId, std::size_t> index_of;

  explicit Recorder(std::size_t n) : runs(n), start(n), end(n) {}
};

/// Builds a random tree of depth `depth`; returns node and registers
/// strand indices in creation order.
NodeId random_tree(SpawnTree& t, Rng& rng, Recorder& rec,
                   std::vector<FireType>& types, int depth,
                   std::size_t& next_strand) {
  if (depth == 0 || rng.uniform() < 0.25) {
    const std::size_t ix = next_strand++;
    NDF_CHECK(ix < rec.runs.size());
    Recorder* r = &rec;
    const NodeId id = t.strand(1.0, 1.0, {}, [r, ix] {
      r->start[ix] = r->clock.fetch_add(1);
      r->runs[ix].fetch_add(1);
      r->end[ix] = r->clock.fetch_add(1);
    });
    rec.index_of.emplace(id, ix);
    return id;
  }
  const double kind = rng.uniform();
  NodeId a = random_tree(t, rng, rec, types, depth - 1, next_strand);
  NodeId b = random_tree(t, rng, rec, types, depth - 1, next_strand);
  if (kind < 0.35) return t.seq({a, b}, 2.0);
  if (kind < 0.7) return t.par({a, b}, 2.0);
  // Fire with a randomly chosen registered type.
  return t.fire(types[rng.below(types.size())], a, b, 2.0);
}

struct StressCase {
  std::uint64_t seed;
  std::size_t threads;
};

class ExecutorStress : public ::testing::TestWithParam<StressCase> {};

TEST_P(ExecutorStress, EveryStrandOnceAndOrdered) {
  const auto [seed, threads] = GetParam();
  Rng rng(seed);
  SpawnTree t;
  // A few fire types: one full-ish, one sparse, one empty.
  std::vector<FireType> types;
  const FireType full = t.rules().add_type("FULLISH");
  t.rules().add_rule(full, {1}, FireRules::kFull, {1});
  t.rules().add_rule(full, {2}, FireRules::kFull, {1});
  t.rules().add_rule(full, {2}, FireRules::kFull, {2});
  const FireType sparse = t.rules().add_type("SPARSE");
  t.rules().add_rule(sparse, {1}, sparse, {1});
  const FireType none = t.rules().add_type("NONE");
  types = {full, sparse, none};

  Recorder rec(1 << 12);
  std::size_t next = 0;
  t.set_root(random_tree(t, rng, rec, types, 9, next));
  // Ensure the root is composite (random_tree may return a lone strand).
  if (t.node(t.root()).kind == Kind::Strand) {
    GTEST_SKIP() << "degenerate single-strand tree";
  }

  StrandGraph g = elaborate(t);
  const ExecReport r = execute_parallel(g, threads);
  EXPECT_EQ(r.strands, next);
  for (std::size_t i = 0; i < next; ++i)
    EXPECT_EQ(rec.runs[i].load(), 1) << "strand " << i;

  // Happens-before: for every task-level arrow, all source-subtree strands
  // end before any sink-subtree strand starts.
  for (const TaskArrow& a : g.arrows()) {
    std::uint64_t src_end = 0, dst_start = ~0ULL;
    for (NodeId s : t.strands_under(a.from))
      src_end = std::max(src_end, rec.end[rec.index_of.at(s)]);
    for (NodeId s : t.strands_under(a.to))
      dst_start = std::min(dst_start, rec.start[rec.index_of.at(s)]);
    EXPECT_LT(src_end, dst_start)
        << "arrow " << a.from << "->" << a.to << " violated";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ExecutorStress,
    ::testing::Values(StressCase{1, 2}, StressCase{2, 4}, StressCase{3, 4},
                      StressCase{4, 8}, StressCase{5, 8}, StressCase{6, 3},
                      StressCase{7, 4}, StressCase{8, 8}),
    [](const ::testing::TestParamInfo<StressCase>& i) {
      return "seed" + std::to_string(i.param.seed) + "t" +
             std::to_string(i.param.threads);
    });

// ------------------------------------------------------- chaos scheduling
//
// Fuzz the executor's schedule space: random trees, random thread counts,
// random modes (ws / sb over random machine presets), with chaos delays
// injected before and after every strand body so steal interleavings vary
// wildly between iterations. Every perturbation derives deterministically
// from the iteration's chaos seed, and every failure prints a one-line
// reproduction recipe. NDF_CHAOS_ITERS scales the loop: the sanitizer CI
// jobs run the short default, nightly cranks it up.

std::size_t chaos_iters() {
  if (const char* e = std::getenv("NDF_CHAOS_ITERS")) {
    const long v = std::atol(e);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 6;
}

TEST(ExecutorChaos, FuzzedSchedulesStayCorrect) {
  const Pmh machines[] = {make_pmh("flat8"), make_pmh("deep2x4")};
  const std::size_t iters = chaos_iters();
  for (std::size_t iter = 0; iter < iters; ++iter) {
    const std::uint64_t master = 0xC4A05ULL * (iter + 1);
    Rng rng(master);
    SpawnTree t;
    std::vector<FireType> types;
    const FireType full = t.rules().add_type("FULLISH");
    t.rules().add_rule(full, {1}, FireRules::kFull, {1});
    t.rules().add_rule(full, {2}, FireRules::kFull, {1});
    const FireType sparse = t.rules().add_type("SPARSE");
    t.rules().add_rule(sparse, {1}, sparse, {1});
    types = {full, sparse};

    Recorder rec(1 << 12);
    std::size_t next = 0;
    t.set_root(random_tree(t, rng, rec, types, 8, next));
    if (t.node(t.root()).kind == Kind::Strand) continue;

    ExecOptions opts;
    opts.threads = 2 + rng.below(7);  // 2..8
    opts.seed = rng();           // steal-order fuzz
    opts.chaos.enabled = true;
    opts.chaos.seed = rng();     // strand-delay fuzz
    opts.chaos.max_delay_spins = 1u << (4 + rng.below(6));  // 16..512
    const bool sb = rng.uniform() < 0.5;
    if (sb) {
      opts.mode = ExecMode::Sb;
      opts.machine = &machines[rng.below(2)];
    }
    // The full recipe: reconstructing `master` regenerates the tree and
    // every option above, so this line alone reproduces the schedule.
    const std::string recipe =
        "NDF_CHAOS repro: iter=" + std::to_string(iter) +
        " master_seed=" + std::to_string(master) +
        " threads=" + std::to_string(opts.threads) +
        " mode=" + (sb ? std::string("sb") : std::string("ws")) +
        " exec_seed=" + std::to_string(opts.seed) +
        " chaos_seed=" + std::to_string(opts.chaos.seed) +
        " max_delay_spins=" + std::to_string(opts.chaos.max_delay_spins);

    StrandGraph g = elaborate(t);
    const ExecReport r = execute(g, opts);
    ASSERT_EQ(r.strands, next) << recipe;
    for (std::size_t i = 0; i < next; ++i)
      ASSERT_EQ(rec.runs[i].load(), 1) << "strand " << i << "\n" << recipe;
    for (const TaskArrow& a : g.arrows()) {
      std::uint64_t src_end = 0, dst_start = ~0ULL;
      for (NodeId s : t.strands_under(a.from))
        src_end = std::max(src_end, rec.end[rec.index_of.at(s)]);
      for (NodeId s : t.strands_under(a.to))
        dst_start = std::min(dst_start, rec.start[rec.index_of.at(s)]);
      ASSERT_LT(src_end, dst_start)
          << "arrow " << a.from << "->" << a.to << " violated\n" << recipe;
    }
  }
}

TEST(ExecutorChaos, SameSeedSameStealCounts) {
  // Chaos perturbations are a pure function of (chaos seed, strand id), and
  // single-worker runs have no steal nondeterminism — so a 1-thread chaos
  // run must be bitwise repeatable in its report, and a multi-thread run
  // must stay correct when repeated with identical seeds.
  Rng rng(99);
  SpawnTree t;
  std::vector<FireType> types;
  const FireType sparse = t.rules().add_type("SPARSE");
  t.rules().add_rule(sparse, {1}, sparse, {1});
  types = {sparse};
  Recorder rec(1 << 12);
  std::size_t next = 0;
  t.set_root(random_tree(t, rng, rec, types, 8, next));
  if (t.node(t.root()).kind == Kind::Strand)
    GTEST_SKIP() << "degenerate single-strand tree";
  StrandGraph g = elaborate(t);

  ExecOptions opts;
  opts.threads = 1;
  opts.chaos.enabled = true;
  opts.chaos.seed = 7;
  const ExecReport a = execute(g, opts);
  const ExecReport b = execute(g, opts);
  EXPECT_EQ(a.strands, b.strands);
  EXPECT_EQ(a.steals, 0u);
  EXPECT_EQ(b.steals, 0u);
}

TEST(ExecutorStressExtra, RepeatedLargeParallelRuns) {
  // A wide, shallow tree exercised repeatedly to shake out deque races.
  for (int rep = 0; rep < 10; ++rep) {
    SpawnTree t;
    std::atomic<int> count{0};
    std::vector<NodeId> leaves;
    for (int i = 0; i < 512; ++i)
      leaves.push_back(t.strand(1, 1, "", [&count] { count.fetch_add(1); }));
    // Binary par tree.
    while (leaves.size() > 1) {
      std::vector<NodeId> next_lvl;
      for (std::size_t i = 0; i + 1 < leaves.size(); i += 2)
        next_lvl.push_back(t.par({leaves[i], leaves[i + 1]}, 2.0));
      if (leaves.size() % 2) next_lvl.push_back(leaves.back());
      leaves.swap(next_lvl);
    }
    t.set_root(leaves[0]);
    execute_parallel(elaborate(t), 8);
    ASSERT_EQ(count.load(), 512) << "rep " << rep;
  }
}

}  // namespace
}  // namespace ndf
