// Tests of the experiment-sweep subsystem (src/exp/):
//   X1  workload spec parsing: defaults, round-trip labels, loud failures
//   X2  scenario grid expansion: size, deterministic order, validation
//   X3  the Sweep runner builds each workload's condensation exactly once
//       per σ × cache profile (counter-verified) and its stats are
//       bit-identical to fresh-build SimCore runs for all four policies
//   X4  SimCore on a shared CondensedDag == SimCore building its own, bit
//       for bit, and incompatible dag/machine/σ pairings are rejected;
//       one reset()-reused core running one reused policy instance per
//       name matches fresh cores and fresh policies across dags, machines,
//       seeds and all four policies (occupancy layer included); the
//       condensation's task tree nests every level into the one above;
//       the frozen per-unit effect and completed-task lists equal
//       re-derived walks, and a reused core's duration tables follow the
//       (dag, miss costs, charge) binding, even across a dag rebuilt at the
//       same address
//   X5  the repeat axis varies only the seed, deterministically; a
//       seed-free policy's repeats are one run whose stats every repeat
//       row takes, equal to the cell run alone, at every worker count
//   X6  the consolidated JSON/CSV emitters produce well-formed output
//   X7  the grid runner: a mid-size grid at --jobs=1/2/8 produces
//       byte-identical table/JSON/CSV output (with and without measured
//       misses) and the same condensation count, the condensation plan
//       lists keys in first-use grid order, phase times account for the
//       run, and worker stats exist exactly when a pool ran
//   X8  failures inside the runner surface as loud CheckErrors at every
//       --jobs, without poisoning the Sweep into a fake empty success — a
//       failed run reports zero condensations and retries from scratch
//   X9  workload interning: equal specs share one handle, distinct specs
//       get distinct ones, labels round-trip, a default handle is the
//       interned empty spec, and concurrent interning of one spec list
//       leaves exactly one entry per distinct spec
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <thread>

#include "exp/report.hpp"
#include "exp/sweep.hpp"
#include "pmh/presets.hpp"
#include "sched/condensed_dag.hpp"
#include "sched/registry.hpp"

namespace ndf {
namespace {

const char* kAllPolicies[] = {"sb", "ws", "greedy", "serial"};

void expect_stats_bit_identical(const SchedStats& a, const SchedStats& b,
                                const std::string& who) {
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan) << who;
  EXPECT_DOUBLE_EQ(a.total_work, b.total_work) << who;
  EXPECT_DOUBLE_EQ(a.miss_cost, b.miss_cost) << who;
  EXPECT_DOUBLE_EQ(a.utilization, b.utilization) << who;
  EXPECT_EQ(a.atomic_units, b.atomic_units) << who;
  EXPECT_EQ(a.anchors, b.anchors) << who;
  EXPECT_EQ(a.steals, b.steals) << who;
  ASSERT_EQ(a.misses.size(), b.misses.size()) << who;
  for (std::size_t l = 0; l < a.misses.size(); ++l)
    EXPECT_DOUBLE_EQ(a.misses[l], b.misses[l]) << who << " L" << (l + 1);
  EXPECT_DOUBLE_EQ(a.comm_cost, b.comm_cost) << who;
  ASSERT_EQ(a.measured_misses.size(), b.measured_misses.size()) << who;
  for (std::size_t l = 0; l < a.measured_misses.size(); ++l)
    EXPECT_DOUBLE_EQ(a.measured_misses[l], b.measured_misses[l])
        << who << " measured L" << (l + 1);
  EXPECT_EQ(a.measured_writebacks, b.measured_writebacks) << who;
  EXPECT_DOUBLE_EQ(a.contention_cost, b.contention_cost) << who;
}

TEST(Workload, ParseSpecDefaultsAndRoundTrip) {  // X1
  exp::WorkloadSpec w = exp::parse_workload("mm");
  EXPECT_EQ(w.algo, "mm");
  EXPECT_EQ(w.n, 64u);  // the registry default
  EXPECT_EQ(w.base, 4u);
  EXPECT_FALSE(w.np);
  EXPECT_EQ(w.label(), "mm:n=64");

  w = exp::parse_workload("trs:n=48,base=8,np");
  EXPECT_EQ(w.algo, "trs");
  EXPECT_EQ(w.n, 48u);
  EXPECT_EQ(w.base, 8u);
  EXPECT_TRUE(w.np);
  EXPECT_EQ(w.label(), "trs:n=48,base=8,np");
  // Labels round-trip through the parser.
  const exp::WorkloadSpec again = exp::parse_workload(w.label());
  EXPECT_EQ(again.label(), w.label());

  const auto list = exp::parse_workload_list("mm:n=8;lcs:n=32,np");
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].algo, "mm");
  EXPECT_TRUE(list[1].np);
  EXPECT_TRUE(exp::parse_workload_list("").empty());
}

TEST(Workload, BadSpecsFailLoudlyListingRegistry) {  // X1
  try {
    exp::parse_workload("nope:n=4");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown workload 'nope'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("mm"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cholesky"), std::string::npos) << msg;
  }
  EXPECT_THROW(exp::parse_workload("mm:n=-3"), CheckError);
  EXPECT_THROW(exp::parse_workload("mm:n=abc"), CheckError);
  EXPECT_GE(exp::registered_workloads().size(), 8u);

  // A typo'd algo name is reported as such even when its parameters are
  // malformed too (the name is validated before the items).
  try {
    exp::parse_workload("bogus:zzz");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown workload 'bogus'"),
              std::string::npos)
        << e.what();
  }

  // Unknown keys name the accepted ones; duplicate keys (a typo that would
  // otherwise silently take the last value) are rejected loudly too.
  try {
    exp::parse_workload("mm:bogus=1");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown workload parameter 'bogus'"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("valid: n, base, np"), std::string::npos) << msg;
  }
  try {
    exp::parse_workload("mm:n=4,n=8");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate workload parameter 'n'"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(exp::parse_workload("mm:np,np"), CheckError);
  EXPECT_THROW(exp::parse_workload("mm:np=1,np"), CheckError);
  EXPECT_THROW(exp::parse_workload("gen:family=sp,seed=1,seed=2"),
               CheckError);
}

TEST(Workload, GenSpecsAreFirstClass) {  // X1
  // "gen:" specs ride the same parser/registry path as named algos; the
  // generator itself is covered by tests/test_gen.cpp.
  const exp::WorkloadSpec g =
      exp::parse_workload("gen:family=sp,depth=5,fan=4,seed=3");
  ASSERT_TRUE(g.gen);
  EXPECT_EQ(g.algo, "gen");
  EXPECT_EQ(g.label(), "gen:family=sp,depth=5,fan=4,seed=3");
  EXPECT_EQ(exp::parse_workload(g.label()).label(), g.label());

  exp::Workload w(g);
  EXPECT_GT(w.graph().num_vertices(), 0u);
  EXPECT_GT(w.tree().work_of(w.tree().root()), 0.0);
}

TEST(Workload, BuildsTreeAndGraph) {  // X1
  exp::Workload w(exp::parse_workload("mm:n=8"));
  EXPECT_GT(w.tree().work_of(w.tree().root()), 0.0);
  EXPECT_GT(w.graph().num_vertices(), 0u);
  // np changes the elaboration, not the tree.
  exp::Workload np(exp::parse_workload("trs:n=16,np"));
  exp::Workload nd(exp::parse_workload("trs:n=16"));
  EXPECT_EQ(np.graph().num_vertices(), nd.graph().num_vertices());
  EXPECT_GE(np.graph().span(), nd.graph().span());
}

exp::Scenario small_scenario() {
  exp::Scenario s;
  s.workloads = exp::parse_workload_list("mm:n=8;trs:n=8");
  s.machines = {"flat:p=2,m1=768,c1=10", "deep2x4"};
  s.policies = {"sb", "ws", "greedy"};
  s.sigmas = {0.25, 0.5};
  s.alpha_primes = {0.5, 1.0};
  s.repeats = 2;
  return s;
}

TEST(Scenario, GridSizeAndExpansionOrder) {  // X2
  const exp::Scenario s = small_scenario();
  // 2 workloads × 2 σ × 2 machines × 2 α' × 3 policies × 2 repeats.
  EXPECT_EQ(exp::grid_size(s), 96u);
  const auto g = exp::expand_grid(s);
  ASSERT_EQ(g.size(), 96u);
  // Innermost axis is repeat, then policy, α', machine, σ; workload-major.
  EXPECT_EQ(g[0].repeat, 0u);
  EXPECT_EQ(g[1].repeat, 1u);
  EXPECT_EQ(g[1].policy, 0u);
  EXPECT_EQ(g[2].policy, 1u);
  EXPECT_EQ(g[6].alpha, 1u);
  EXPECT_EQ(g[12].machine, 1u);
  EXPECT_EQ(g[24].sigma, 1u);
  EXPECT_EQ(g[47].workload, 0u);
  EXPECT_EQ(g[48].workload, 1u);
  EXPECT_EQ(g[95].workload, 1u);
  EXPECT_EQ(g[95].sigma, 1u);
  EXPECT_EQ(g[95].repeat, 1u);
  // Expansion is deterministic.
  EXPECT_EQ(exp::expand_grid(s).size(), g.size());
}

TEST(Scenario, ValidationRejectsBadAxes) {  // X2
  exp::Scenario s;
  EXPECT_THROW(exp::validate(s), CheckError);  // no workloads
  s = small_scenario();
  EXPECT_NO_THROW(exp::validate(s));
  s.policies = {"bogus"};
  EXPECT_THROW(exp::validate(s), CheckError);
  s = small_scenario();
  s.sigmas = {1.5};
  EXPECT_THROW(exp::validate(s), CheckError);
  s = small_scenario();
  s.alpha_primes = {0.0};
  EXPECT_THROW(exp::validate(s), CheckError);
  s = small_scenario();
  s.alpha_primes = {-1.0};
  EXPECT_THROW(exp::validate(s), CheckError);
  s = small_scenario();
  s.repeats = 0;
  EXPECT_THROW(exp::validate(s), CheckError);
  s = small_scenario();
  s.machines.clear();
  EXPECT_THROW(exp::validate(s), CheckError);
  s = small_scenario();
  s.machines = {"bogus-machine"};
  EXPECT_THROW(exp::validate(s), CheckError);  // specs parse at validation
  // The grid's cell count is bounded before anything is expanded, even
  // when repeats x points overflows 64 bits.
  s = small_scenario();
  const std::size_t points = exp::grid_size(s) / s.repeats;
  s.repeats = (std::size_t(1) << 20) / points + 1;
  EXPECT_THROW(exp::validate(s), CheckError);
  s.repeats = std::size_t(1) << 63;
  EXPECT_THROW(exp::validate(s), CheckError);
  s.repeats = (std::size_t(1) << 20) / points;
  EXPECT_NO_THROW(exp::validate(s));
}

TEST(Sweep, FailedRunDoesNotPoisonIntoEmptySuccess) {  // X2
  exp::Scenario s;
  s.workloads = exp::parse_workload_list("mm:n=8");
  s.machines = {"bogus-machine"};
  s.policies = {"sb"};
  exp::Sweep sweep(s);
  EXPECT_THROW(sweep.run(), CheckError);
  EXPECT_THROW(sweep.run(), CheckError);  // still throws, no silent empty
  EXPECT_TRUE(sweep.results().empty());
}

TEST(Sweep, BuildsCondensationOncePerSigmaAndMatchesFreshRuns) {  // X3
  exp::Scenario s;
  s.workloads = exp::parse_workload_list("mm:n=32");
  s.machines = {"flat8"};
  s.policies = {"sb", "ws", "greedy", "serial"};
  exp::Sweep sweep(s);

  const std::size_t before = CondensedDag::total_builds();
  const auto& runs = sweep.run();
  // The acceptance invariant: 1 workload × 1 σ → exactly one condensation
  // for all four policies.
  EXPECT_EQ(CondensedDag::total_builds(), before + 1);
  EXPECT_EQ(sweep.condensations_built(), 1u);
  ASSERT_EQ(runs.size(), 4u);

  // Fresh-build SimCore (the historical per-run path) must agree bit for
  // bit with the shared-condensation sweep, for every policy.
  exp::Workload w(s.workloads[0]);
  const Pmh m = make_pmh("flat8");
  for (const exp::RunPoint& r : runs) {
    SchedOptions o;
    o.seed = r.seed;
    const SchedStats fresh = run_scheduler(r.policy, w.graph(), m, o);
    expect_stats_bit_identical(r.stats, fresh, r.policy);
  }
}

TEST(Sweep, CondensationCountIsSigmaTimesCacheProfiles) {  // X3
  exp::Scenario s;
  s.workloads = exp::parse_workload_list("mm:n=32");
  // Three machines, one cache profile (M1=768): p never forces a rebuild.
  s.machines = {"flat:p=2,m1=768,c1=10", "flat:p=8,m1=768,c1=10", "flat16"};
  s.policies = {"sb", "serial"};
  s.sigmas = {0.25, 0.5};
  exp::Sweep sweep(s);
  const auto& runs = sweep.run();
  EXPECT_EQ(runs.size(), 12u);
  EXPECT_EQ(sweep.condensations_built(), 2u);  // one per σ, shared by all

  // A machine with a different profile forces one more per σ.
  exp::Scenario s2 = s;
  s2.machines.push_back("deep2x4");
  exp::Sweep sweep2(s2);
  sweep2.run();
  EXPECT_EQ(sweep2.condensations_built(), 4u);
}

TEST(CondensedDag, SharedDagMatchesOwnedBitIdentically) {  // X4
  exp::Workload w(exp::parse_workload("trs:n=32"));
  const Pmh m = make_pmh("deep2x4");
  SchedOptions o;
  const CondensedDag dag(w.graph(), level_cache_sizes(m), o.sigma);
  EXPECT_EQ(dag.num_levels(), 2u);
  EXPECT_GT(dag.num_units(), 0u);
  EXPECT_DOUBLE_EQ(dag.total_work(), w.graph().work());

  for (const char* name : kAllPolicies) {
    const auto policy = make_scheduler(name, o);
    SimCore shared(dag, m, o);
    const SchedStats a = shared.run(*policy);
    const SchedStats b = run_scheduler(name, w.graph(), m, o);
    expect_stats_bit_identical(a, b, name);
  }

  // Incompatible pairings are rejected loudly.
  const Pmh flat = make_pmh("flat8");
  EXPECT_THROW(SimCore(dag, flat, o), CheckError);
  SchedOptions other_sigma;
  other_sigma.sigma = 0.5;
  EXPECT_THROW(SimCore(dag, m, other_sigma), CheckError);
  EXPECT_FALSE(dag.compatible_with(m, 0.5));
  EXPECT_TRUE(dag.compatible_with(m, o.sigma));
}

TEST(CondensedDag, TaskTreeNestsEveryLevel) {  // X4
  // On every kernel and a three-level machine: a task's parent is the
  // level-above task owning its root, children come in task-index order,
  // and the children of one level partition the level below.
  const Pmh m = make_pmh("deep4x4");
  for (const char* spec :
       {"mm:n=32", "trs:n=32", "cholesky:n=32", "lu:n=32", "lcs:n=64",
        "gotoh:n=64", "fw1d:n=32", "fw2d:n=32",
        "gen:family=sp,depth=6,seed=4,cross=60"}) {
    const exp::Workload w(exp::parse_workload(spec));
    for (double sigma : {1.0 / 3.0, 0.5}) {
      const CondensedDag dag(w.graph(), level_cache_sizes(m), sigma);
      const std::size_t L = dag.num_levels();
      ASSERT_GE(L, 2u) << spec;
      for (std::size_t l = 1; l <= L; ++l) {
        const Decomposition& d = dag.decomposition(l);
        std::size_t kids = 0;
        for (int t = 0; t < int(d.maximal.size()); ++t) {
          if (l == L) {
            EXPECT_EQ(dag.task_parent(l, t), -1) << spec;
          } else {
            EXPECT_EQ(dag.task_parent(l, t),
                      dag.decomposition(l + 1).owner[d.maximal[t]])
                << spec << " L" << l << " task " << t;
            EXPECT_GE(dag.task_parent(l, t), 0) << spec;
          }
          int prev = -1;
          for (int c : dag.task_children(l, t)) {
            EXPECT_GT(c, prev) << spec << " L" << l << " task " << t;
            EXPECT_EQ(dag.task_parent(l - 1, c), t) << spec;
            prev = c;
            ++kids;
          }
        }
        const std::size_t below =
            l == 1 ? 0 : dag.decomposition(l - 1).maximal.size();
        EXPECT_EQ(kids, below) << spec << " L" << l;
      }
    }
  }
}

TEST(SimCore, ResetReusedCoreMatchesFreshAcrossPolicies) {  // X4
  // One core cycled through reset() across dags, machines, σ values and
  // all four policies (with the occupancy layer on, so its reuse path is
  // covered too), running one policy instance per name across every
  // binding, must match a fresh core running a fresh policy bit for bit —
  // the invariant that lets sweep chunks and serve cells reuse one core
  // and one policy per name. Each reused policy was constructed with the
  // first binding's options, so this also checks that init() takes the
  // run's options from the core.
  exp::Workload mm(exp::parse_workload("mm:n=16"));
  exp::Workload trs(exp::parse_workload("trs:n=16"));
  const Pmh deep = make_pmh("deep2x4");
  const Pmh flat = make_pmh("flat8");
  SchedOptions third;
  SchedOptions half;
  half.sigma = 0.5;
  half.measure_misses = true;
  struct Binding {
    const exp::Workload* w;
    const Pmh* m;
    SchedOptions o;
  };
  const Binding bindings[] = {{&mm, &deep, third},
                              {&mm, &deep, half},
                              {&trs, &flat, third},
                              {&mm, &flat, half},
                              {&trs, &deep, third}};

  std::vector<std::unique_ptr<CondensedDag>> dags;
  std::unique_ptr<SimCore> reused;
  std::map<std::string, std::unique_ptr<Scheduler>> reused_policy;
  std::uint64_t seed = 7;
  for (const Binding& bind : bindings) {
    dags.push_back(std::make_unique<CondensedDag>(
        bind.w->graph(), level_cache_sizes(*bind.m), bind.o.sigma));
    const CondensedDag& dag = *dags.back();
    for (const char* name : kAllPolicies) {
      SchedOptions o = bind.o;
      o.seed = seed++;  // a new ws steal seed on every run
      if (reused)
        reused->reset(dag, *bind.m, o);
      else
        reused = std::make_unique<SimCore>(dag, *bind.m, o);
      std::unique_ptr<Scheduler>& pol_a = reused_policy[name];
      if (!pol_a) pol_a = make_scheduler(name, o);
      const SchedStats a = reused->run(*pol_a);
      SimCore fresh(dag, *bind.m, o);
      const auto pol_b = make_scheduler(name, o);
      expect_stats_bit_identical(a, fresh.run(*pol_b), name);
    }
  }
  // reset() re-checks compatibility like the constructor does.
  EXPECT_THROW(reused->reset(*dags.front(), flat, third), CheckError);
}

TEST(CondensedDag, UnitEffectsMatchTheWalk) {  // X4
  // The frozen effect lists against a reference re-derived here the way
  // the event loop once did per completion: a unit's subtree by a reversed
  // stack walk (children before parents, the root's exit last), every
  // fired vertex's successors, and the boundary-crossing walk of each edge.
  const Pmh machines[] = {make_pmh("flat16"), make_pmh("deep2x4"),
                          make_pmh("deep4x4")};
  using Effect = CondensedDag::Effect;
  for (const char* spec :
       {"mm:n=32", "trs:n=32", "cholesky:n=32", "lu:n=32", "lcs:n=64",
        "gotoh:n=64", "fw1d:n=32", "fw2d:n=32",
        "gen:family=sp,depth=6,seed=4,cross=60", "gen:family=wavefront,n=8",
        "gen:family=chain,n=12", "gen:family=forkjoin,depth=3,fan=4",
        "gen:family=diamond,depth=3,fan=3"}) {
    const exp::Workload w(exp::parse_workload(spec));
    const StrandGraph& g = w.graph();
    for (const Pmh& m : machines) {
      const CondensedDag dag(g, level_cache_sizes(m), 1.0 / 3.0);
      const std::string who = std::string(spec) + " on " + m.to_string();

      // Control vertices: exactly those outside every unit, in vertex
      // order, with their in-degrees; the ready ones seed the cascade.
      std::vector<std::int64_t> ctrl_of(g.num_vertices(), -1);
      std::vector<std::uint32_t> deg0, ready0;
      std::uint32_t next = 0;
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        if (dag.decomposition(1).owner[g.owner(v)] >= 0) continue;
        ASSERT_LT(next, dag.num_controls()) << who;
        EXPECT_EQ(dag.control_vertex(next), v) << who;
        ctrl_of[v] = next;
        deg0.push_back(std::uint32_t(g.in_degree(v)));
        if (g.in_degree(v) == 0) ready0.push_back(next);
        ++next;
      }
      EXPECT_EQ(next, dag.num_controls()) << who;
      EXPECT_EQ(dag.initial_control_in_degree(), deg0) << who;
      EXPECT_EQ(dag.initially_ready_controls(), ready0) << who;

      std::vector<Effect> ref;
      const auto fire = [&](VertexId v) {
        for (VertexId s : g.successors(v)) {
          dag.for_each_external_arrow(v, s, [&](std::size_t l, int t) {
            ref.push_back({std::uint32_t(dag.ext_off(l) + std::size_t(t)),
                           std::uint32_t(l)});
          });
          if (ctrl_of[s] >= 0) ref.push_back({std::uint32_t(ctrl_of[s]), 0});
        }
      };
      const auto expect_list = [&](std::span<const Effect> got,
                                   const std::string& what) {
        ASSERT_EQ(got.size(), ref.size()) << who << " " << what;
        for (std::size_t i = 0; i < ref.size(); ++i) {
          EXPECT_EQ(got[i].index, ref[i].index) << who << " " << what << i;
          EXPECT_EQ(got[i].level, ref[i].level) << who << " " << what << i;
        }
      };
      std::vector<NodeId> stack, order;
      for (int u = 0; u < int(dag.num_units()); ++u) {
        stack.assign(1, dag.unit_root(u));
        order.clear();
        while (!stack.empty()) {
          const NodeId n = stack.back();
          stack.pop_back();
          order.push_back(n);
          for (NodeId c : w.tree().children(n)) stack.push_back(c);
        }
        ref.clear();
        for (auto it = order.rbegin(); it != order.rend(); ++it) {
          fire(g.enter(*it));
          fire(g.exit(*it));
        }
        expect_list(dag.unit_effects(u), "unit " + std::to_string(u));
      }
      for (std::uint32_t c = 0; c < dag.num_controls(); ++c) {
        ref.clear();
        fire(dag.control_vertex(c));
        expect_list(dag.control_effects(c), "control " + std::to_string(c));
      }
    }
  }
}

TEST(CondensedDag, TaskDoneListsMatchTheWalk) {  // X4
  // The frozen completed-task lists against the walk the sb policy once ran
  // on every fired exit: level by level, skip the levels where the node is
  // glue, report each task rooted at it, and stop at the first level where
  // it lies strictly inside a task. Enter vertices complete nothing, and
  // every maximal task completes exactly once per run.
  const Pmh machines[] = {make_pmh("flat16"), make_pmh("deep2x4"),
                          make_pmh("deep4x4")};
  using Effect = CondensedDag::Effect;
  for (const char* spec :
       {"mm:n=32", "trs:n=32", "cholesky:n=32", "lu:n=32", "lcs:n=64",
        "gotoh:n=64", "fw1d:n=32", "fw2d:n=32",
        "gen:family=sp,depth=6,seed=4,cross=60", "gen:family=wavefront,n=8",
        "gen:family=chain,n=12", "gen:family=forkjoin,depth=3,fan=4",
        "gen:family=diamond,depth=3,fan=3"}) {
    const exp::Workload w(exp::parse_workload(spec));
    const StrandGraph& g = w.graph();
    for (const Pmh& m : machines) {
      const CondensedDag dag(g, level_cache_sizes(m), 1.0 / 3.0);
      const std::string who = std::string(spec) + " on " + m.to_string();
      std::vector<int> completions(dag.ext_arena_size(), 0);
      std::vector<Effect> ref;
      const auto walk = [&](NodeId n) {
        ref.clear();
        for (std::size_t l = 1; l <= dag.num_levels(); ++l) {
          const Decomposition& d = dag.decomposition(l);
          const int t = d.owner[n];
          if (t < 0) continue;
          if (d.maximal[t] != n) break;
          ref.push_back(
              {std::uint32_t(t), CondensedDag::kDone | std::uint32_t(l)});
        }
      };
      // A firing list is its effects, then its completed tasks.
      const auto expect_list = [&](std::span<const Effect> firing,
                                   std::span<const Effect> effects,
                                   const std::string& what) {
        ASSERT_EQ(firing.data(), effects.data()) << who << " " << what;
        const std::span<const Effect> got = firing.subspan(effects.size());
        ASSERT_EQ(got.size(), ref.size()) << who << " " << what;
        for (std::size_t i = 0; i < ref.size(); ++i) {
          EXPECT_EQ(got[i].index, ref[i].index) << who << " " << what << i;
          EXPECT_EQ(got[i].level, ref[i].level) << who << " " << what << i;
          const std::size_t l = got[i].level & ~CondensedDag::kDone;
          ++completions[dag.ext_off(l) + got[i].index];
        }
      };
      for (int u = 0; u < int(dag.num_units()); ++u) {
        walk(dag.unit_root(u));
        ASSERT_FALSE(ref.empty()) << who << " unit " << u;
        EXPECT_EQ(ref.front().index, std::uint32_t(u)) << who;
        expect_list(dag.unit_firing(u), dag.unit_effects(u),
                    "unit " + std::to_string(u));
      }
      for (std::uint32_t c = 0; c < dag.num_controls(); ++c) {
        const VertexId v = dag.control_vertex(c);
        ref.clear();
        if (StrandGraph::is_exit(v)) walk(StrandGraph::owner(v));
        expect_list(dag.control_firing(c), dag.control_effects(c),
                    "control " + std::to_string(c));
      }
      EXPECT_EQ(completions, std::vector<int>(dag.ext_arena_size(), 1))
          << who;
    }
  }
}

TEST(SimCore, DurationTableFollowsBinding) {  // X4
  // One core keeps a distributed-duration table per (dag, miss costs,
  // charge) binding. Cycle it through two dags on two machines that share
  // cache sizes but not miss costs, with the charge on and off, and then
  // through a dag destroyed and rebuilt in the same storage from another
  // workload: every run must equal a fresh core's.
  exp::Workload mm(exp::parse_workload("mm:n=32"));
  exp::Workload trs(exp::parse_workload("trs:n=32"));
  const Pmh cheap = make_pmh("twotier:s=2,c=4,m1=192,m2=3072,c1=3,c2=30");
  const Pmh dear = make_pmh("twotier:s=2,c=4,m1=192,m2=3072,c1=7,c2=11");
  SchedOptions base;
  const CondensedDag dag_mm(mm.graph(), level_cache_sizes(cheap), base.sigma);
  const CondensedDag dag_trs(trs.graph(), level_cache_sizes(cheap),
                             base.sigma);
  EXPECT_NE(dag_mm.build_id(), dag_trs.build_id());

  std::unique_ptr<SimCore> reused;
  const auto run_both = [&](const CondensedDag& dag, const Pmh& m,
                            bool charge, const std::string& who) {
    SchedOptions o = base;
    o.charge_misses = charge;
    for (const char* name : {"sb", "greedy", "serial"}) {
      if (reused)
        reused->reset(dag, m, o);
      else
        reused = std::make_unique<SimCore>(dag, m, o);
      const SchedStats a = reused->run(*make_scheduler(name, o));
      SimCore fresh(dag, m, o);
      const SchedStats b = fresh.run(*make_scheduler(name, o));
      expect_stats_bit_identical(a, b, who + " " + name);
      EXPECT_EQ(a.makespan, b.makespan) << who << " " << name;
    }
  };
  for (int round = 0; round < 2; ++round)
    for (bool charge : {true, false})
      for (const Pmh* m : {&cheap, &dear})
        for (const CondensedDag* dag : {&dag_mm, &dag_trs})
          run_both(*dag, *m, charge,
                   (dag == &dag_mm ? "mm" : "trs") +
                       std::string(m == &cheap ? " cheap" : " dear") +
                       (charge ? " charged" : " uncharged"));

  // Same address, new condensation: a table keyed by the dag's address
  // would hand the rebuilt dag the old one's durations.
  std::optional<CondensedDag> slot;
  slot.emplace(mm.graph(), level_cache_sizes(cheap), base.sigma);
  const CondensedDag* first = &*slot;
  run_both(*slot, cheap, true, "slot mm");
  slot.reset();
  slot.emplace(trs.graph(), level_cache_sizes(cheap), base.sigma);
  ASSERT_EQ(&*slot, first);
  run_both(*slot, cheap, true, "slot trs");
}

TEST(Sweep, RepeatAxisVariesSeedDeterministically) {  // X5
  exp::Scenario s;
  s.workloads = exp::parse_workload_list("mm:n=32");
  s.machines = {"flat8"};
  s.policies = {"ws"};
  s.repeats = 3;
  s.base_seed = 7;
  exp::Sweep sweep(s);
  const auto& runs = sweep.run();
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].seed, 7u);
  EXPECT_EQ(runs[1].seed, 8u);
  EXPECT_EQ(runs[2].seed, 9u);

  // Rerunning the same scenario reproduces every point exactly.
  exp::Sweep again(s);
  const auto& runs2 = again.run();
  for (std::size_t i = 0; i < runs.size(); ++i)
    expect_stats_bit_identical(runs[i].stats, runs2[i].stats,
                               "repeat " + std::to_string(i));
}

TEST(Sweep, SeedFreeCellsRunOnce) {  // X5
  // Seed-free policies (sb, greedy, serial) are simulated once per repeat
  // axis and ws once per repeat, yet every row must equal the cell run
  // alone, with its own repeat and seed, at every worker count.
  exp::Scenario s;
  s.workloads = exp::parse_workload_list("mm:n=32;lcs:n=64");
  s.machines = {"flat16", "deep2x4"};
  s.policies = {"sb", "ws", "greedy", "serial"};
  s.repeats = 3;
  s.base_seed = 5;
  s.measure_misses = true;
  const std::vector<exp::GridPoint> grid = exp::expand_grid(s);
  std::size_t ws_cells = 0;
  for (const exp::GridPoint& g : grid)
    ws_cells += s.policies[g.policy] == "ws";
  const std::size_t want_runs = ws_cells + (grid.size() - ws_cells) / 3;

  std::vector<exp::Workload> workloads;
  for (const exp::WorkloadSpec& w : s.workloads) workloads.emplace_back(w);
  for (const std::size_t jobs : {1u, 3u}) {
    exp::Sweep sweep(s, jobs);
    const auto& runs = sweep.run();
    ASSERT_EQ(runs.size(), grid.size()) << jobs << " jobs";
    EXPECT_EQ(sweep.runs(), want_runs) << jobs << " jobs";
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const exp::GridPoint& g = grid[i];
      const exp::RunPoint& r = runs[i];
      const std::string who = std::to_string(jobs) + " jobs, cell " +
                              std::to_string(i) + " " + r.policy;
      const Pmh m = make_pmh(s.machines[g.machine]);
      EXPECT_EQ(r.workload, s.workloads[g.workload]) << who;
      EXPECT_EQ(r.machine, s.machines[g.machine]) << who;
      EXPECT_EQ(r.machine_desc, m.to_string()) << who;
      EXPECT_EQ(r.policy, s.policies[g.policy]) << who;
      EXPECT_EQ(r.cache, CacheModelSpec{}) << who;
      EXPECT_EQ(r.sigma, s.sigmas[0]) << who;
      EXPECT_EQ(r.alpha_prime, s.alpha_primes[0]) << who;
      EXPECT_EQ(r.repeat, g.repeat) << who;
      EXPECT_EQ(r.seed, s.base_seed + g.repeat) << who;
      SchedOptions o;
      o.measure_misses = true;
      o.seed = r.seed;
      expect_stats_bit_identical(
          r.stats,
          run_scheduler(r.policy, workloads[g.workload].graph(), m, o), who);
    }
  }
}

TEST(Scenario, RunPlanSharesOnlySeedFreeRepeats) {  // X5
  exp::Scenario s = small_scenario();
  s.repeats = 3;
  const auto grid = exp::expand_grid(s);
  const exp::RunPlan plan = exp::plan_runs(s, grid);
  ASSERT_EQ(plan.run_of.size(), grid.size());
  // 144 cells: ws keeps its 48; sb's and greedy's 96 drop to one run per
  // 3 repeats.
  EXPECT_EQ(plan.cell.size(), 48u + 96u / 3u);
  EXPECT_EQ(plan.run_of[0], 0u);  // cell 0 is run 0, the traced one
  for (std::size_t k = 0; k < plan.cell.size(); ++k)
    EXPECT_EQ(plan.run_of[plan.cell[k]], k) << "run " << k;
  std::size_t seen = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const std::size_t k = plan.run_of[i];
    // Runs appear in first-use grid order.
    if (k == seen) ++seen;
    ASSERT_LT(k, seen) << "cell " << i;
    // A cell shares its run only with its own point's other repeats, and
    // only under a seed-free policy.
    const exp::GridPoint& a = grid[i];
    const exp::GridPoint& b = grid[plan.cell[k]];
    EXPECT_TRUE(a.workload == b.workload && a.sigma == b.sigma &&
                a.machine == b.machine && a.cache == b.cache &&
                a.alpha == b.alpha && a.policy == b.policy)
        << "cell " << i;
    const bool seeded = s.policies[a.policy] == "ws";
    EXPECT_EQ(b.repeat, seeded ? a.repeat : 0u) << "cell " << i;
  }
}

// All three emitters rendered into one string — the byte-level artifact
// the parallel/serial equivalence tests (and the CI gate) compare.
std::string emit_everything(const std::vector<exp::RunPoint>& runs) {
  std::ostringstream os;
  exp::results_table("stress", runs).print(os);
  exp::write_sweep_json(os, "stress", runs);
  exp::write_sweep_csv(os, runs);
  return os.str();
}

TEST(Sweep, ParallelOutputIsByteIdenticalToSerial) {  // X7
  // A mid-size grid exercising every axis: 2 workloads × 2 σ × 2 machines
  // (distinct cache profiles) × 2 α' × 3 policies × 2 repeats = 96 cells,
  // 8 condensations.
  const exp::Scenario s = small_scenario();

  exp::Sweep serial(s, 1);
  const std::string golden = emit_everything(serial.run());

  for (const std::size_t jobs : {2u, 8u}) {
    exp::Sweep parallel(s, jobs);
    const auto& runs = parallel.run();
    ASSERT_EQ(runs.size(), serial.results().size()) << jobs << " jobs";
    EXPECT_EQ(parallel.condensations_built(), serial.condensations_built())
        << jobs << " jobs";
    EXPECT_EQ(emit_everything(runs), golden) << jobs << " jobs";
  }
}

TEST(Sweep, ParallelOutputIsByteIdenticalToSerialWithMisses) {  // X7
  // Same identity, with the measured LRU occupancy layer on: the extra
  // comm_cost / Q_L<i> columns ride through the chunked dispatch (and the
  // reused cores' occupancy reset) byte-identically too.
  exp::Scenario s = small_scenario();
  s.measure_misses = true;
  s.policies = {"sb", "ws", "greedy", "serial"};

  exp::Sweep serial(s, 1);
  const std::string golden = emit_everything(serial.run());

  for (const std::size_t jobs : {2u, 8u}) {
    exp::Sweep parallel(s, jobs);
    const auto& runs = parallel.run();
    ASSERT_EQ(runs.size(), serial.results().size()) << jobs << " jobs";
    EXPECT_EQ(emit_everything(runs), golden) << jobs << " jobs";
  }
}

TEST(Sweep, PhaseTimesAccountForACompletedRun) {  // X7
  const exp::Scenario s = small_scenario();
  for (const std::size_t jobs : {1u, 4u}) {
    exp::Sweep sweep(s, jobs);
    EXPECT_EQ(sweep.phase_times().cell_execution, 0.0) << jobs << " jobs";
    sweep.run();
    const exp::PhaseTimes& pt = sweep.phase_times();
    EXPECT_GE(pt.workload_build, 0.0) << jobs << " jobs";
    EXPECT_GE(pt.condensation, 0.0) << jobs << " jobs";
    // 96 simulated cells cannot take literally zero wall-clock.
    EXPECT_GT(pt.cell_execution, 0.0) << jobs << " jobs";
  }
}

TEST(Sweep, ParallelBuildsEachCondensationExactlyOnce) {  // X7
  exp::Scenario s;
  s.workloads = exp::parse_workload_list("mm:n=32");
  // Three machines, one cache profile: p never forces a rebuild.
  s.machines = {"flat:p=2,m1=768,c1=10", "flat:p=8,m1=768,c1=10", "flat16"};
  s.policies = {"sb", "ws", "greedy", "serial"};
  s.sigmas = {0.25, 0.5};
  exp::Sweep sweep(s, 4);
  const std::size_t before = CondensedDag::total_builds();
  const auto& runs = sweep.run();
  EXPECT_EQ(runs.size(), 24u);
  // One per σ, shared by all machines and policies.
  EXPECT_EQ(CondensedDag::total_builds(), before + 2);
  EXPECT_EQ(sweep.condensations_built(), 2u);
}

TEST(Scenario, CondensationPlanKeysFollowFirstUse) {  // X7
  const exp::Scenario s = small_scenario();
  std::vector<Pmh> machines;
  for (const std::string& spec : s.machines)
    machines.push_back(make_pmh(spec));
  const auto grid = exp::expand_grid(s);
  const exp::CondensationPlan plan =
      exp::plan_condensations(s, grid, machines);
  // 2 workloads × 2 σ × 2 distinct profiles.
  EXPECT_EQ(plan.keys.size(), 8u);
  ASSERT_EQ(plan.cell.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const exp::CondensationKey& k = plan.keys[plan.cell[i]];
    EXPECT_EQ(k.workload, grid[i].workload);
    EXPECT_EQ(k.sigma, grid[i].sigma);
    EXPECT_EQ(k.sizes, level_cache_sizes(machines[grid[i].machine]));
  }
  // Keys appear in first-use grid order: each cell names either a key an
  // earlier cell already used or the next new one.
  std::size_t seen = 0;
  for (const std::size_t c : plan.cell)
    if (c == seen) ++seen;
  EXPECT_EQ(seen, plan.keys.size());
}

TEST(Sweep, WorkerFailureSurfacesLoudlyAndDoesNotPoison) {  // X8
  // A workload spec injected past the parser (validate() deliberately does
  // not re-check specs) so the failure happens inside a worker task during
  // the parallel build fan-out — not on the main thread before the pool
  // exists. wait_all must surface it as the same loud CheckError, after
  // every sibling task has finished with the shared state.
  exp::Scenario s;
  s.workloads = exp::parse_workload_list("mm:n=8");
  s.workloads.push_back(exp::WorkloadSpec{"not-a-workload", 8, 4, false, {}});
  s.machines = {"flat8"};
  s.policies = {"sb", "serial"};
  exp::Sweep sweep(s, 4);
  try {
    sweep.run();
    FAIL() << "expected CheckError from the worker";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown workload 'not-a-workload'"),
              std::string::npos)
        << e.what();
  }
  // A failed run leaves the object fully reset — in particular the
  // condensation count must not be left at the plan size with no results
  // behind it — and a retry starts from scratch: it throws the same way
  // instead of returning a fake empty success.
  EXPECT_EQ(sweep.condensations_built(), 0u);
  EXPECT_THROW(sweep.run(), CheckError);  // still throws, no silent empty
  EXPECT_TRUE(sweep.results().empty());
  EXPECT_EQ(sweep.condensations_built(), 0u);

  // Same failure on the calling thread (jobs = 1): identical post-throw
  // state.
  exp::Sweep inline_sweep(s, 1);
  EXPECT_THROW(inline_sweep.run(), CheckError);
  EXPECT_THROW(inline_sweep.run(), CheckError);
  EXPECT_TRUE(inline_sweep.results().empty());
  EXPECT_EQ(inline_sweep.condensations_built(), 0u);
}

TEST(Sweep, BuildFailureLeavesNothingBehindAtEveryJobs) {  // X8
  // The spec parses; only elaborating it fails (wavefront n is capped at
  // 256), so the throw comes from the grid runner's build phase.
  exp::Scenario s;
  s.workloads = exp::parse_workload_list("mm:n=8;gen:family=wavefront,n=257");
  s.machines = {"flat8"};
  s.policies = {"sb", "ws"};
  for (const std::size_t jobs : {1u, 2u}) {
    exp::Sweep sweep(s, jobs);
    for (int attempt = 0; attempt < 2; ++attempt) {
      try {
        sweep.run();
        FAIL() << "expected CheckError at jobs=" << jobs;
      } catch (const CheckError& e) {
        EXPECT_NE(std::string(e.what()).find("[1, 256]"), std::string::npos)
            << e.what();
      }
      EXPECT_TRUE(sweep.results().empty()) << jobs << " jobs";
      EXPECT_EQ(sweep.condensations_built(), 0u) << jobs << " jobs";
      EXPECT_TRUE(sweep.worker_stats().empty()) << jobs << " jobs";
    }
  }
}

TEST(Sweep, WorkerStatsCountThePoolWorkers) {  // X7
  const exp::Scenario s = small_scenario();
  exp::Sweep inline_sweep(s, 1);
  inline_sweep.run();
  EXPECT_TRUE(inline_sweep.worker_stats().empty());  // no pool at jobs = 1
  exp::Sweep pooled(s, 2);
  pooled.run();
  ASSERT_EQ(pooled.worker_stats().size(), 2u);
  std::size_t tasks = 0;
  for (const ThreadPool::WorkerStats& w : pooled.worker_stats())
    tasks += w.tasks;
  EXPECT_GT(tasks, 0u);
}

TEST(Workload, InternedHandlesFollowSpecEquality) {  // X9
  const exp::WorkloadRef a = exp::intern(exp::parse_workload("mm:n=24"));
  const exp::WorkloadRef b = exp::intern(exp::parse_workload("mm:n=24"));
  const exp::WorkloadRef c = exp::intern(exp::parse_workload("mm:n=24,np"));
  const exp::WorkloadRef g =
      exp::intern(exp::parse_workload("gen:family=sp,depth=3,fan=2,seed=9"));
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(a == g);
  EXPECT_EQ(a.label(), "mm:n=24");
  EXPECT_EQ(c.label(), "mm:n=24,np");
  EXPECT_EQ(a->n, 24u);
  EXPECT_TRUE(c->np);
  for (const exp::WorkloadRef& r : {a, c, g}) {
    EXPECT_EQ(r.label(), r->label());
    EXPECT_EQ(exp::parse_workload(r.label()), *r) << r.label();
    EXPECT_TRUE(exp::intern(exp::parse_workload(r.label())) == r)
        << r.label();
  }
  // Same label, different fields (a spec built past the parser): distinct
  // specs, distinct handles.
  exp::WorkloadSpec odd = *g;
  odd.base = 16;
  ASSERT_EQ(odd.label(), g.label());
  EXPECT_FALSE(exp::intern(odd) == g);
  EXPECT_TRUE(exp::intern(odd) == exp::intern(odd));
  // The default handle is the interned empty spec, never null.
  const exp::WorkloadRef d;
  EXPECT_EQ(*d, exp::WorkloadSpec{});
  EXPECT_TRUE(d == exp::intern(exp::WorkloadSpec{}));
  EXPECT_EQ(d.label(), exp::WorkloadSpec{}.label());
}

TEST(Workload, ConcurrentInterningKeepsOneEntryPerSpec) {  // X9
  // Sizes no other test interns, so the table grows by exactly the
  // distinct specs of this list.
  std::vector<exp::WorkloadSpec> list;
  for (std::size_t i = 0; i < 40; ++i)
    list.push_back(exp::parse_workload(
        (i % 2 ? "lcs:n=" : "trs:n=") + std::to_string(1000 + i % 10) +
        (i % 4 < 2 ? "" : ",np")));
  std::set<std::string> distinct;
  for (const exp::WorkloadSpec& w : list) distinct.insert(w.label());
  const std::size_t before = exp::interned_count();
  std::vector<std::vector<exp::WorkloadRef>> got(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t)
    threads.emplace_back([&list, &out = got[t], t] {
      for (std::size_t i = 0; i < list.size(); ++i)
        out.push_back(exp::intern(list[(i + 7 * t) % list.size()]));
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(exp::interned_count() - before, distinct.size());
  for (std::size_t t = 0; t < got.size(); ++t)
    for (std::size_t i = 0; i < list.size(); ++i) {
      const exp::WorkloadRef& r = got[t][i];
      EXPECT_TRUE(r == got[0][(i + 7 * t) % list.size()]) << t << " " << i;
      EXPECT_EQ(*r, list[(i + 7 * t) % list.size()]);
    }
}

TEST(Report, EmittersProduceWellFormedOutput) {  // X6
  exp::Scenario s;
  s.workloads = exp::parse_workload_list("mm:n=8");
  s.machines = {"flat:p=2,m1=768,c1=10"};
  s.policies = {"sb", "serial"};
  exp::Sweep sweep(s);
  const auto& runs = sweep.run();

  std::ostringstream json;
  exp::write_sweep_json(json, "unit", runs);
  const std::string j = json.str();
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.substr(j.size() - 2), "}\n");
  EXPECT_NE(j.find("\"sweep\": \"unit\""), std::string::npos);
  EXPECT_NE(j.find("\"runs\": ["), std::string::npos);
  EXPECT_NE(j.find("\"makespan\": "), std::string::npos);
  EXPECT_NE(j.find("\"policy\": \"serial\""), std::string::npos);

  std::ostringstream csv;
  exp::write_sweep_csv(csv, runs);
  const std::string c = csv.str();
  // Header + one line per run; the comma-bearing machine spec is quoted.
  EXPECT_EQ(std::count(c.begin(), c.end(), '\n'), (long)runs.size() + 1);
  EXPECT_NE(c.find("workload,algo,n,"), std::string::npos);
  EXPECT_NE(c.find("\"flat:p=2,m1=768,c1=10\""), std::string::npos);

  const Table t = exp::results_table("unit", runs);
  EXPECT_EQ(t.rows().size(), runs.size());
}

}  // namespace
}  // namespace ndf
