// Tests of the space-bounded and work-stealing scheduler simulators:
// completion, work conservation, Theorem 1 miss bounds, monotone speedup,
// and the ND-vs-NP load-balance gap the schedulers are supposed to expose;
// and pins of every policy's exact output (stats and event stream).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>

#include "algos/lcs.hpp"
#include "algos/matmul.hpp"
#include "algos/trs.hpp"
#include "analysis/pcc.hpp"
#include "exp/workload.hpp"
#include "nd/drs.hpp"
#include "obs/recorder.hpp"
#include "pmh/presets.hpp"
#include "sched/registry.hpp"

namespace ndf {
namespace {

TEST(SbScheduler, SerialMachineMatchesTotalDuration) {
  SpawnTree t = make_mm_tree(16, 4);
  StrandGraph g = elaborate(t);
  Pmh m(PmhConfig::flat(1, 3.0 * 8 * 8 * 3, 10));
  SchedOptions opts;
  const SchedStats s = run_scheduler("sb", g, m, opts);
  // One processor: makespan = work + all distributed miss latency.
  EXPECT_NEAR(s.makespan, s.total_work + s.miss_cost, 1e-6);
  EXPECT_DOUBLE_EQ(s.total_work, g.work());
  EXPECT_NEAR(s.utilization, 1.0, 1e-9);
}

TEST(SbScheduler, MissesMatchTheorem1Bound) {
  SpawnTree t = make_trs_tree(32, 4);
  StrandGraph g = elaborate(t);
  Pmh m(PmhConfig::flat(4, 512, 10));
  SchedOptions opts;
  const SchedStats s = run_scheduler("sb", g, m, opts);
  // Theorem 1: misses at level j <= Q*(t; σMj). Our accounting charges
  // exactly the anchored footprints, so this holds with the glue slack.
  const double q = parallel_cache_complexity(t, opts.sigma * 512);
  EXPECT_LE(s.misses[0], q);
  EXPECT_GT(s.misses[0], 0.0);
}

TEST(SbScheduler, SpeedupIsMonotoneAndBounded) {
  SpawnTree t = make_lcs_tree(128, 4);
  StrandGraph g = elaborate(t);
  double prev = 0.0;
  double t1 = 0.0;
  for (std::size_t p : {1u, 2u, 4u, 8u}) {
    Pmh m(PmhConfig::flat(p, 256, 5));
    const SchedStats s = run_scheduler("sb", g, m);
    if (p == 1) t1 = s.makespan;
    const double speedup = t1 / s.makespan;
    EXPECT_GE(speedup, prev * 0.999);  // monotone (allowing fp noise)
    EXPECT_LE(speedup, double(p) + 1e-9);
    prev = speedup;
  }
  EXPECT_GT(prev, 2.0);  // 8 processors must beat 2x on a 128 LCS
}

TEST(SbScheduler, NdBeatsNpOnTrs) {
  // The extra readiness from partial dependencies must shorten the
  // simulated makespan (this is the paper's central scheduling claim).
  SpawnTree t = make_trs_tree(64, 4);
  StrandGraph nd = elaborate(t);
  StrandGraph np = elaborate(t, {.np_mode = true});
  Pmh m(PmhConfig::flat(16, 1024, 10));
  const double ms_nd = run_scheduler("sb", nd, m).makespan;
  const double ms_np = run_scheduler("sb", np, m).makespan;
  EXPECT_LT(ms_nd, ms_np);
}

TEST(SbScheduler, RespectsBalancedLowerBound) {
  SpawnTree t = make_mm_tree(32, 4);
  StrandGraph g = elaborate(t);
  Pmh m(PmhConfig::flat(8, 3 * 16 * 16, 10));
  const SchedStats s = run_scheduler("sb", g, m);
  // Makespan can't beat perfect balance of work alone.
  EXPECT_GE(s.makespan * 8.0, s.total_work - 1e-6);
}

TEST(SbScheduler, TwoTierMachineCompletes) {
  SpawnTree t = make_trs_tree(32, 4);
  StrandGraph g = elaborate(t);
  Pmh m(PmhConfig::two_tier(2, 4, 256, 4096, 2, 20));
  const SchedStats s = run_scheduler("sb", g, m);
  EXPECT_GT(s.makespan, 0.0);
  ASSERT_EQ(s.misses.size(), 2u);
  EXPECT_GT(s.misses[1], 0.0);
  const double q2 = parallel_cache_complexity(t, 4096.0 / 3.0);
  EXPECT_LE(s.misses[1], q2);
}

TEST(SbScheduler, ChargeMissesOffGivesPureWorkMakespanOnOneProc) {
  SpawnTree t = make_mm_tree(8, 4);
  StrandGraph g = elaborate(t);
  Pmh m(PmhConfig::flat(1, 256, 100));
  SchedOptions opts;
  opts.charge_misses = false;
  const SchedStats s = run_scheduler("sb", g, m, opts);
  EXPECT_NEAR(s.makespan, g.work(), 1e-9);
}

TEST(WsScheduler, CompletesAndConservesWork) {
  SpawnTree t = make_lcs_tree(64, 4);
  StrandGraph g = elaborate(t);
  Pmh m(PmhConfig::flat(4, 256, 5));
  const SchedStats s = run_scheduler("ws", g, m);
  EXPECT_DOUBLE_EQ(s.total_work, g.work());
  EXPECT_GT(s.makespan, 0.0);
  EXPECT_GT(s.atomic_units, 0u);
}

TEST(WsScheduler, SbHasNoMoreMissesThanWs) {
  // The anchoring property preserves locality; random stealing scatters
  // tasks and reloads footprints (the [47,48] observation).
  SpawnTree t = make_mm_tree(32, 4);
  StrandGraph g = elaborate(t);
  Pmh m(PmhConfig::flat(8, 3 * 16 * 16, 10));
  const SchedStats sb = run_scheduler("sb", g, m);
  const SchedStats ws = run_scheduler("ws", g, m);
  EXPECT_LE(sb.misses[0], ws.misses[0] * 1.001);
}

TEST(WsScheduler, DeterministicForFixedSeed) {
  SpawnTree t = make_trs_tree(32, 4);
  StrandGraph g = elaborate(t);
  Pmh m(PmhConfig::flat(4, 512, 5));
  SchedOptions o;
  o.seed = 7;
  const SchedStats a = run_scheduler("ws", g, m, o);
  const SchedStats b = run_scheduler("ws", g, m, o);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.steals, b.steals);
}

/// FNV-1a over 64-bit words; doubles enter by bit pattern, so any change
/// in the last ulp shows.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void mix(double d) {
    std::uint64_t x;
    std::memcpy(&x, &d, sizeof x);
    mix(x);
  }
  void mix(const std::vector<double>& v) {
    mix(std::uint64_t(v.size()));
    for (double d : v) mix(d);
  }
  void mix(const SchedStats& s) {
    mix(s.makespan);
    mix(s.total_work);
    mix(s.misses);
    mix(s.miss_cost);
    mix(std::uint64_t(s.atomic_units));
    mix(std::uint64_t(s.anchors));
    mix(std::uint64_t(s.steals));
    mix(s.utilization);
    mix(s.measured_misses);
    mix(s.comm_cost);
    mix(s.measured_writebacks);
    mix(s.contention_cost);
  }
  void mix(const obs::Event& e) {
    mix(std::uint64_t(e.kind) | std::uint64_t(e.sub) << 8 |
        std::uint64_t(e.a) << 32);
    mix(e.t0);
    mix(e.t1);
    mix(std::uint64_t(e.b));
    mix(std::uint64_t(e.c));
    mix(e.value);
    mix(e.words);
  }
};

TEST(Sched, SbOutputIsPinned) {
  // sb's every stat, on every kernel and gen family, across machine shapes,
  // σ, α' and the occupancy layer on and off, plus the full event stream
  // of one traced cell (units, queue waits, cache pin/unpin/hit/miss in
  // emission order). Tie order shows in all of it — which pending task a
  // release retries first, which cache an anchor picks — so a faster
  // policy must reproduce these hashes exactly. Taken from the policy that
  // rebuilt per-task vectors each run and re-queued every blocked task.
  struct Case {
    const char* spec;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {"mm:n=32", 0x919212f642d0fe55ull},
      {"trs:n=32", 0xff42e5b197fd7d80ull},
      {"cholesky:n=32", 0xfe604aad4323c79eull},
      {"lu:n=32", 0xfa8f6347fc8add5cull},
      {"lcs:n=64", 0x1e9d615a75f29ab1ull},
      {"gotoh:n=64", 0x8ceaab8c964f3a59ull},
      {"fw1d:n=32", 0xb7c20d39d5393f72ull},
      {"fw2d:n=32", 0xd07a4b90b2832f72ull},
      {"gen:family=sp,seed=1,cross=60", 0x402cd12b4918dfb5ull},
      {"gen:family=sp,depth=6,seed=4,cross=60", 0x22226e46cf66a4b9ull},
      {"gen:family=wavefront,n=8", 0x42697e110a312e15ull},
      {"gen:family=chain,n=12", 0xa1c7355ef5de61eeull},
      {"gen:family=forkjoin,depth=3,fan=4", 0x6a37d2ba98f226aaull},
      {"gen:family=diamond,depth=3,fan=3", 0x86002ad150cd0b75ull},
  };
  const Pmh machines[] = {make_pmh("flat16"), make_pmh("deep2x4"),
                          make_pmh("deep4x4")};
  for (const Case& c : cases) {
    const exp::Workload w(exp::parse_workload(c.spec));
    Fnv h;
    for (const Pmh& m : machines)
      for (double sigma : {1.0 / 3.0, 0.5}) {
        const CondensedDag dag(w.graph(), level_cache_sizes(m), sigma);
        for (double alpha : {1.0, 0.5})
          for (bool misses : {false, true}) {
            SchedOptions o;
            o.sigma = sigma;
            o.alpha_prime = alpha;
            o.measure_misses = misses;
            SimCore core(dag, m, o);
            h.mix(core.run(*make_scheduler("sb", o)));
          }
      }
    // The traced cell: the deepest machine, σ = 1/3, α' = 1/2, misses on.
    obs::EventRecorder rec;
    SchedOptions o;
    o.alpha_prime = 0.5;
    o.measure_misses = true;
    o.sink = &rec;
    const CondensedDag dag(w.graph(), level_cache_sizes(machines[2]),
                           o.sigma);
    SimCore core(dag, machines[2], o);
    h.mix(core.run(*make_scheduler("sb", o)));
    h.mix(std::uint64_t(rec.events().size()));
    for (const obs::Event& e : rec.events()) h.mix(e);
    EXPECT_EQ(h.h, c.hash) << c.spec;
  }

  // The service regime: the small jobs of the serve benchmark's mix on
  // deep2x4, where one L2 task leases a few L1 caches and most units queue
  // behind a single L1 lease, so most idle processors can reach no queued
  // unit. Same grid and traced cell, on that machine alone.
  const Case serve_cases[] = {
      {"mm:n=16", 0xb59c1259dc527f68ull},
      {"lcs:n=64", 0xe8ee60784416cc09ull},
      {"gen:family=wavefront,n=4", 0x9c7fcd5dcc4f38e2ull},
      {"gen:family=sp,depth=4,fan=3,cross=60,seed=13", 0x258b3e1d35e37874ull},
  };
  const Pmh& deep = machines[1];
  for (const Case& c : serve_cases) {
    const exp::Workload w(exp::parse_workload(c.spec));
    Fnv h;
    for (double sigma : {1.0 / 3.0, 0.5}) {
      const CondensedDag dag(w.graph(), level_cache_sizes(deep), sigma);
      for (double alpha : {1.0, 0.5})
        for (bool misses : {false, true}) {
          SchedOptions o;
          o.sigma = sigma;
          o.alpha_prime = alpha;
          o.measure_misses = misses;
          SimCore core(dag, deep, o);
          h.mix(core.run(*make_scheduler("sb", o)));
        }
    }
    obs::EventRecorder rec;
    SchedOptions o;
    o.measure_misses = true;
    o.sink = &rec;
    const CondensedDag dag(w.graph(), level_cache_sizes(deep), o.sigma);
    SimCore core(dag, deep, o);
    h.mix(core.run(*make_scheduler("sb", o)));
    h.mix(std::uint64_t(rec.events().size()));
    for (const obs::Event& e : rec.events()) h.mix(e);
    EXPECT_EQ(h.h, c.hash) << c.spec << " 0x" << std::hex << h.h;
  }
}

TEST(Sched, PolicyOutputIsPinned) {
  // The other policies' every stat, shaped like SbOutputIsPinned: ws under
  // three steal seeds (one with a steal cost), greedy, edf and serial, on
  // every kernel and gen family across machine shapes, σ and the occupancy
  // layer on and off, plus one traced cell each. ws's steal order follows
  // its Rng stream and every policy's unit order follows the core's hook
  // and cascade order, so a faster core or dispatch must reproduce these
  // hashes exactly. Taken from the core that re-walked each unit's
  // subtree and scanned a per-edge arrow table on every completion, and
  // asked every idle processor to pick.
  struct Case {
    const char* spec;
    std::uint64_t ws, greedy, edf, serial;
  };
  const Case cases[] = {
      {"mm:n=32", 0xd8c5f951689d589dull,
       0xafa78e29dc816411ull, 0xafa78e29dc816411ull, 0x677d8a791c5b6fc3ull},
      {"trs:n=32", 0x50255dd877b9cd34ull,
       0x4142dfcfa8742fa9ull, 0x4142dfcfa8742fa9ull, 0xd733a4705eb7e752ull},
      {"cholesky:n=32", 0xbfceabf904a3db71ull,
       0xb15f0ad8385e31f4ull, 0xb15f0ad8385e31f4ull, 0xa0e70201f9ce71feull},
      {"lu:n=32", 0x661ddc371aa203f5ull,
       0x9502e8f9e7524a5bull, 0x9502e8f9e7524a5bull, 0xfa7e280ab14b674ull},
      {"lcs:n=64", 0x4a51ea1f2417d23aull,
       0x16bf033521fae9f9ull, 0x16bf033521fae9f9ull, 0x2e40a1cbfbe0ba47ull},
      {"gotoh:n=64", 0x7608fd64387fd9cbull,
       0xaeec3485afed3174ull, 0xaeec3485afed3174ull, 0x3cf8ebe64b5e8cb8ull},
      {"fw1d:n=32", 0x91a3e24b23527739ull,
       0xac4ff02232a22a2aull, 0xac4ff02232a22a2aull, 0x54bd7d9ccfcfc820ull},
      {"fw2d:n=32", 0xd25aafc95ce651e8ull,
       0xd622b1852802c93ull, 0xd622b1852802c93ull, 0xe4668da7dca70d16ull},
      {"gen:family=sp,seed=1,cross=60", 0x2ce8f2accad89187ull,
       0x41e626d2906b81c5ull, 0x41e626d2906b81c5ull, 0xc95c95f33e140c3full},
      {"gen:family=sp,depth=6,seed=4,cross=60", 0xa4f9387cde0a3518ull,
       0x27bb856e4bdd1a57ull, 0x27bb856e4bdd1a57ull, 0x6e4575afd8c2cb58ull},
      {"gen:family=wavefront,n=8", 0x4526e6f69a5a9c1bull,
       0xce7085652bb8edcaull, 0xce7085652bb8edcaull, 0x95c8f49e421a241bull},
      {"gen:family=chain,n=12", 0x534b92fe9eb48b1dull,
       0xbdc63d9de04cbf3eull, 0xbdc63d9de04cbf3eull, 0x101b6460a6f0bf1cull},
      {"gen:family=forkjoin,depth=3,fan=4", 0xed2f9d9683dab6c9ull,
       0xdafedbf7eb1cd9dfull, 0xdafedbf7eb1cd9dfull, 0x7075398b9a6926ddull},
      {"gen:family=diamond,depth=3,fan=3", 0xb028bcdb71617962ull,
       0x4d7b2b5755683d96ull, 0x4d7b2b5755683d96ull, 0x751dc7268ad05434ull},
  };
  const Pmh machines[] = {make_pmh("flat16"), make_pmh("deep2x4"),
                          make_pmh("deep4x4")};
  // ws runs once per seed; the last seed also pays a steal cost.
  const auto ws_options = [](SchedOptions o, int i) {
    o.seed = std::uint64_t(11 + i);
    o.steal_cost = i == 2 ? 2.5 : 0.0;
    return o;
  };
  for (const Case& c : cases) {
    const exp::Workload w(exp::parse_workload(c.spec));
    const std::pair<const char*, std::uint64_t> policies[] = {
        {"ws", c.ws}, {"greedy", c.greedy}, {"edf", c.edf},
        {"serial", c.serial}};
    for (const auto& [name, hash] : policies) {
      const std::string policy = name;
      const int runs = policy == "ws" ? 3 : 1;
      Fnv h;
      for (const Pmh& m : machines)
        for (double sigma : {1.0 / 3.0, 0.5}) {
          const CondensedDag dag(w.graph(), level_cache_sizes(m), sigma);
          for (bool misses : {false, true})
            for (int i = 0; i < runs; ++i) {
              SchedOptions o;
              o.sigma = sigma;
              o.measure_misses = misses;
              if (policy == "ws") o = ws_options(o, i);
              SimCore core(dag, m, o);
              h.mix(core.run(*make_scheduler(policy, o)));
            }
        }
      // The traced cell: the deepest machine, σ = 1/3, misses on.
      obs::EventRecorder rec;
      SchedOptions o;
      o.measure_misses = true;
      o.sink = &rec;
      if (policy == "ws") o = ws_options(o, 2);
      const CondensedDag dag(w.graph(), level_cache_sizes(machines[2]),
                             o.sigma);
      SimCore core(dag, machines[2], o);
      h.mix(core.run(*make_scheduler(policy, o)));
      h.mix(std::uint64_t(rec.events().size()));
      for (const obs::Event& e : rec.events()) h.mix(e);
      EXPECT_EQ(h.h, hash) << c.spec << " " << policy << " 0x" << std::hex
                           << h.h;
    }
  }
}

TEST(Sched, SeedFreePoliciesIgnoreTheSeed) {
  // A policy registered seed-free promises that the seed changes nothing,
  // which is what lets the sweep simulate its repeats once. Every such
  // builtin, on SbOutputIsPinned's workloads, two machine shapes and the
  // occupancy layer off and on, must give bit-identical stats under three
  // seeds, and the same event stream in one traced cell per workload. ws,
  // the seeded policy, must move with the seed somewhere in the same grid,
  // or the comparison could not tell a seed from none.
  const char* const specs[] = {
      "mm:n=32", "trs:n=32", "cholesky:n=32", "lu:n=32", "lcs:n=64",
      "gotoh:n=64", "fw1d:n=32", "fw2d:n=32",
      "gen:family=sp,seed=1,cross=60",
      "gen:family=sp,depth=6,seed=4,cross=60", "gen:family=wavefront,n=8",
      "gen:family=chain,n=12", "gen:family=forkjoin,depth=3,fan=4",
      "gen:family=diamond,depth=3,fan=3"};
  const std::uint64_t seeds[] = {42, 43, 1000003};
  const Pmh machines[] = {make_pmh("flat16"), make_pmh("deep2x4")};
  // The hash of one run (and, with `trace`, of its event stream).
  const auto fingerprint = [](const std::string& policy,
                              const CondensedDag& dag, const Pmh& m,
                              bool misses, std::uint64_t seed, bool trace) {
    obs::EventRecorder rec;
    SchedOptions o;
    o.measure_misses = misses;
    o.seed = seed;
    if (trace) o.sink = &rec;
    SimCore core(dag, m, o);
    Fnv h;
    h.mix(core.run(*make_scheduler(policy, o)));
    for (const obs::Event& e : rec.events()) h.mix(e);
    return h.h;
  };

  std::vector<std::string> seed_free;
  for (const SchedulerInfo& info : registered_schedulers())
    if (!info.seeded) seed_free.push_back(info.name);
  for (const char* name : {"sb", "greedy", "edf", "serial"})
    EXPECT_NE(std::find(seed_free.begin(), seed_free.end(), name),
              seed_free.end())
        << name << " should be registered seed-free";

  bool ws_moved = false;
  for (const char* spec : specs) {
    const exp::Workload w(exp::parse_workload(spec));
    for (std::size_t mi = 0; mi < std::size(machines); ++mi) {
      const Pmh& m = machines[mi];
      const CondensedDag dag(w.graph(), level_cache_sizes(m), 1.0 / 3.0);
      for (bool misses : {false, true}) {
        // The traced cell: deep2x4 with misses on.
        const bool trace = misses && mi == 1;
        for (const std::string& policy : seed_free) {
          const std::uint64_t first =
              fingerprint(policy, dag, m, misses, seeds[0], trace);
          for (std::uint64_t seed : {seeds[1], seeds[2]})
            EXPECT_EQ(fingerprint(policy, dag, m, misses, seed, trace),
                      first)
                << policy << " " << spec << " on " << m.to_string()
                << " misses=" << misses << " seed " << seed;
        }
        const std::uint64_t ws =
            fingerprint("ws", dag, m, misses, seeds[0], trace);
        for (std::uint64_t seed : {seeds[1], seeds[2]})
          ws_moved |= fingerprint("ws", dag, m, misses, seed, trace) != ws;
      }
    }
  }
  EXPECT_TRUE(ws_moved) << "ws gave the same stats under every seed";
}

}  // namespace
}  // namespace ndf
