// Tests of the scheduler-policy registry and cross-policy invariants of
// the shared simulation core:
//   R1  the four built-in policies are registered; unknown names throw;
//       parse_sched_list validates and deduplicates
//   R2  every registered policy conserves work and condenses the same
//       σM1-maximal atomic units on the same graph/σ
//   R3  sb, greedy and serial charge identical (schedule-independent)
//       miss totals; ws never charges fewer
//   R4  greedy (centralized Brent-style, Eq. 22 charge) lower-bounds ws up
//       to a small greedy-anomaly margin, and respects the executable
//       balance bound (total_work + miss_cost)/p — the Eq. (22) reference
//       with the actual condensed footprints
//   R5  serial is the determinism baseline: makespan is exactly
//       total_work + miss_cost and utilization is 1/p
//   R6  every policy is deterministic run-to-run
//   R7  only ws declares that its runs read the seed; a registration
//       that does not say is seeded
#include <gtest/gtest.h>

#include <functional>

#include "algos/cholesky.hpp"
#include "algos/lcs.hpp"
#include "algos/matmul.hpp"
#include "algos/trs.hpp"
#include "nd/drs.hpp"
#include "sched/registry.hpp"
#include "sched/sb_scheduler.hpp"

namespace ndf {
namespace {

struct RegistryCase {
  const char* name;
  std::function<SpawnTree()> make;
  double M1;
};

std::vector<RegistryCase> cases() {
  return {
      {"mm32", [] { return make_mm_tree(32, 4); }, 3 * 8 * 8.0},
      {"trs48", [] { return make_trs_tree(48, 4); }, 512.0},
      {"cho48", [] { return make_cholesky_tree(48, 4); }, 512.0},
      {"lcs192", [] { return make_lcs_tree(192, 4); }, 128.0},
  };
}

constexpr std::size_t kProcs = 8;

TEST(Registry, BuiltinsRegisteredAndUnknownNamesThrow) {  // R1
  for (const char* name : {"sb", "ws", "greedy", "serial"})
    EXPECT_TRUE(scheduler_registered(name)) << name;
  EXPECT_FALSE(scheduler_registered("nope"));
  EXPECT_GE(registered_schedulers().size(), 4u);
  SchedOptions o;
  EXPECT_THROW(make_scheduler("nope", o), CheckError);
  EXPECT_THROW(parse_sched_list("sb,nope"), CheckError);
  const auto list = parse_sched_list("ws,sb,ws");
  ASSERT_EQ(list.size(), 2u);  // deduplicated, order-preserving
  EXPECT_EQ(list[0], "ws");
  EXPECT_EQ(list[1], "sb");
}

TEST(Registry, UnknownPolicyErrorListsAvailableNames) {  // R1
  SchedOptions o;
  try {
    make_scheduler("nope", o);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown scheduler 'nope'"), std::string::npos) << msg;
    for (const char* name : {"sb", "ws", "greedy", "serial"})
      EXPECT_NE(msg.find(name), std::string::npos) << name << ": " << msg;
  }
  try {
    parse_sched_list("sb,bogus");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown scheduler 'bogus'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("greedy"), std::string::npos) << msg;
  }
}

TEST(Registry, SeedDeclarations) {  // R7
  EXPECT_TRUE(scheduler_seeded("ws"));
  for (const char* name : {"sb", "greedy", "edf", "serial"})
    EXPECT_FALSE(scheduler_seeded(name)) << name;
  EXPECT_THROW(scheduler_seeded("nope"), CheckError);
  for (const SchedulerInfo& info : registered_schedulers())
    EXPECT_EQ(info.seeded, scheduler_seeded(info.name)) << info.name;
  // An external policy that does not say is never deduplicated.
  const SchedulerFactory sb = [](const SchedOptions& o) {
    return make_scheduler("sb", o);
  };
  ASSERT_TRUE(register_scheduler("test-unsaid", "sb, registered again", sb));
  EXPECT_TRUE(scheduler_seeded("test-unsaid"));
}

class RegistryProperty : public ::testing::TestWithParam<std::size_t> {
 protected:
  const RegistryCase& c() const {
    static const auto cs = cases();
    return cs[GetParam()];
  }
};

TEST_P(RegistryProperty, AllPoliciesConserveWorkAndUnits) {  // R2
  SpawnTree t = c().make();
  StrandGraph g = elaborate(t);
  Pmh m(PmhConfig::flat(kProcs, c().M1, 7));
  std::size_t units = 0;
  for (const SchedulerInfo& info : registered_schedulers()) {
    const SchedStats s = run_scheduler(info.name, g, m);
    EXPECT_DOUBLE_EQ(s.total_work, g.work()) << info.name;
    EXPECT_GT(s.atomic_units, 0u) << info.name;
    EXPECT_GT(s.makespan, 0.0) << info.name;
    ASSERT_EQ(s.misses.size(), m.num_cache_levels()) << info.name;
    if (units == 0)
      units = s.atomic_units;
    else
      EXPECT_EQ(s.atomic_units, units) << info.name;
  }
}

TEST_P(RegistryProperty, MissChargesConsistentAcrossPolicies) {  // R3
  SpawnTree t = c().make();
  StrandGraph g = elaborate(t);
  Pmh m(PmhConfig::flat(kProcs, c().M1, 7));
  const SchedStats sb = run_scheduler("sb", g, m);
  const SchedStats gr = run_scheduler("greedy", g, m);
  const SchedStats se = run_scheduler("serial", g, m);
  const SchedStats ws = run_scheduler("ws", g, m);
  for (std::size_t l = 0; l < m.num_cache_levels(); ++l) {
    // sb anchors every maximal task once; greedy/serial charge the same
    // condensed footprints directly.
    EXPECT_DOUBLE_EQ(sb.misses[l], gr.misses[l]);
    EXPECT_DOUBLE_EQ(sb.misses[l], se.misses[l]);
    EXPECT_GE(ws.misses[l], sb.misses[l] * 0.999);
  }
}

TEST_P(RegistryProperty, GreedyLowerBoundsWsAndRespectsBalance) {  // R4
  SpawnTree t = c().make();
  StrandGraph g = elaborate(t);
  Pmh m(PmhConfig::flat(kProcs, c().M1, 7));
  const SchedStats gr = run_scheduler("greedy", g, m);
  const SchedStats ws = run_scheduler("ws", g, m);
  // Ideal locality beats footprint-scattering stealing, up to a small
  // greedy-anomaly margin (nonclairvoyant FIFO order can locally lose).
  EXPECT_LE(gr.makespan, ws.makespan * 1.01);
  // Executable Eq. (22): perfect balance of work + distributed miss
  // latency is a hard lower bound...
  const double balance = (gr.total_work + gr.miss_cost) / double(kProcs);
  EXPECT_GE(gr.makespan, balance - 1e-6);
  // ...and it never exceeds the Q*-based analytical reference by more
  // than the Theorem-1 slack (actual condensed footprints <= Q*).
  EXPECT_LE(balance, sb_balanced_bound(t, m, SchedOptions{}.sigma) + 1e-6);
}

TEST_P(RegistryProperty, SerialIsTheDeterminismBaseline) {  // R5
  SpawnTree t = c().make();
  StrandGraph g = elaborate(t);
  Pmh m(PmhConfig::flat(kProcs, c().M1, 7));
  const SchedStats s = run_scheduler("serial", g, m);
  EXPECT_NEAR(s.makespan, s.total_work + s.miss_cost, 1e-6);
  EXPECT_NEAR(s.utilization, 1.0 / double(kProcs), 1e-9);
}

TEST_P(RegistryProperty, PoliciesAreDeterministicRunToRun) {  // R6
  SpawnTree t = c().make();
  StrandGraph g = elaborate(t);
  Pmh m(PmhConfig::flat(kProcs, c().M1, 7));
  for (const SchedulerInfo& info : registered_schedulers()) {
    const SchedStats a = run_scheduler(info.name, g, m);
    const SchedStats b = run_scheduler(info.name, g, m);
    EXPECT_DOUBLE_EQ(a.makespan, b.makespan) << info.name;
    EXPECT_DOUBLE_EQ(a.miss_cost, b.miss_cost) << info.name;
    EXPECT_EQ(a.steals, b.steals) << info.name;
    EXPECT_EQ(a.anchors, b.anchors) << info.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCases, RegistryProperty,
                         ::testing::Range<std::size_t>(0, cases().size()),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           static const auto cs = cases();
                           return cs[i.param].name;
                         });

}  // namespace
}  // namespace ndf
