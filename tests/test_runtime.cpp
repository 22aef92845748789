// Real-thread runtime tests: WsDeque protocol tests (pop-vs-steal races,
// wraparound, kAbort retry, overflow), and the differential property suite
// — for every transcribed kernel and a seeded batch of generated graphs,
// native execution must run each strand exactly once and respect every DAG
// edge (epoch-stamp oracle, runtime/oracle.hpp), match the serial
// reference bit-for-bit on real data, and in sb mode confine every strand
// to its anchor group.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>

#include "algos/cholesky.hpp"
#include "algos/lcs.hpp"
#include "algos/matmul.hpp"
#include "algos/trs.hpp"
#include "exp/workload.hpp"
#include "nd/drs.hpp"
#include "pmh/presets.hpp"
#include "runtime/deque.hpp"
#include "runtime/executor.hpp"
#include "runtime/oracle.hpp"
#include "runtime/workbody.hpp"
#include "support/rng.hpp"

namespace ndf {
namespace {

Matrix<double> random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Matrix<double> m(r, c);
  Rng rng(seed);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.uniform(-1.0, 1.0);
  return m;
}

// ------------------------------------------------------------------ deque

TEST(WsDequeTest, LifoOwnerFifoThief) {
  WsDeque d(16);
  d.push(1);
  d.push(2);
  d.push(3);
  EXPECT_EQ(d.steal(), 1);   // thief takes the oldest
  EXPECT_EQ(d.pop(), 3);     // owner takes the newest
  EXPECT_EQ(d.pop(), 2);
  EXPECT_EQ(d.pop(), WsDeque::kEmpty);
  EXPECT_TRUE(d.empty());
}

TEST(WsDequeTest, WraparoundPastCapacity) {
  // Cycle far more elements through the ring than it can hold at once:
  // top/bottom grow monotonically, so every slot index wraps many times.
  WsDeque d(4);  // rounds up to a 64-slot ring, 63 usable
  const std::size_t cap = d.capacity();
  std::int32_t next = 0, want_pop = -1;
  long long pushed_sum = 0, taken_sum = 0;
  for (int cycle = 0; cycle < 200; ++cycle) {
    for (std::size_t i = 0; i < cap; ++i) {
      d.push(next);
      pushed_sum += next++;
    }
    // Alternate drain ends: steals see FIFO order, pops LIFO.
    for (std::size_t i = 0; i < cap / 2; ++i) {
      const std::int32_t v = d.steal();
      ASSERT_GE(v, 0);
      taken_sum += v;
    }
    while ((want_pop = d.pop()) != WsDeque::kEmpty) taken_sum += want_pop;
    ASSERT_TRUE(d.empty());
  }
  EXPECT_EQ(pushed_sum, taken_sum);
}

TEST(WsDequeTest, OverflowCheckFailsLoudly) {
  WsDeque d(4);
  for (std::size_t i = 0; i < d.capacity(); ++i)
    d.push(static_cast<std::int32_t>(i));
  // One more would clobber the slot a lagging thief may still read.
  EXPECT_THROW(d.push(12345), CheckError);
}

TEST(WsDequeTest, SoleThiefNeverAborts) {
  // kAbort means "lost a CAS race against another thief or the owner's
  // last-element pop"; with a single sequential thief and idle owner it
  // must never surface.
  WsDeque d(128);
  for (int i = 0; i < 100; ++i) d.push(i);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(d.steal(), i);
  EXPECT_EQ(d.steal(), WsDeque::kEmpty);
}

TEST(WsDequeTest, LastElementPopVsStealRace) {
  // One element, owner pop racing one thief steal, many rounds: exactly
  // one side must win each round, and a loser must see kEmpty/kAbort.
  //
  // Each round is settled before the next push. The owner pushes r and
  // publishes `round = r`; the thief stores `started = r` and steals at
  // once, while the owner pops as soon as it sees `started == r`, so both
  // sides hit the last element together. Once its steal has settled (the
  // element or kEmpty; kAbort is retried) the thief reports whether it won
  // and stores `acked = r`. The owner waits for that ack, checks the
  // round, and only then pushes r+1, so neither side can ever see another
  // round's element. Every wait yields, so the test also runs on one core.
  const int kRounds = 4000;
  WsDeque d(4);
  std::atomic<int> round{-1};
  std::atomic<int> started{-1};
  std::atomic<int> acked{-1};
  std::atomic<bool> thief_won{false};
  std::atomic<int> wins{0};
  std::atomic<bool> stop{false};
  std::atomic<int> aborts{0};
  std::thread thief([&] {
    int seen = -1;
    while (!stop.load()) {
      const int r = round.load(std::memory_order_acquire);
      if (r == seen) {
        std::this_thread::yield();
        continue;
      }
      seen = r;
      started.store(r, std::memory_order_release);
      std::int32_t v = d.steal();
      while (v == WsDeque::kAbort) {
        // Retry semantics: an abort may be retried and must eventually
        // resolve to the element or empty.
        ++aborts;
        v = d.steal();
      }
      if (v >= 0) {
        EXPECT_EQ(v, r);
        wins.fetch_add(1);
      }
      thief_won.store(v >= 0, std::memory_order_relaxed);
      acked.store(r, std::memory_order_release);
    }
  });
  for (int r = 0; r < kRounds; ++r) {
    d.push(r);
    round.store(r, std::memory_order_release);
    while (started.load(std::memory_order_acquire) != r)
      std::this_thread::yield();
    const std::int32_t v = d.pop();
    if (v >= 0) {
      EXPECT_EQ(v, r);
      wins.fetch_add(1);
    }
    while (acked.load(std::memory_order_acquire) != r)
      std::this_thread::yield();
    EXPECT_NE(v >= 0, thief_won.load(std::memory_order_relaxed))
        << "round " << r << ": exactly one of owner and thief must win "
        << "(owner pop returned " << v << ")";
    EXPECT_TRUE(d.empty()) << "round " << r << " left its element behind";
  }
  stop.store(true);
  thief.join();
  EXPECT_EQ(wins.load(), kRounds);
}

TEST(WsDequeTest, ManyThievesHammerOneOwner) {
  // The TSan-facing protocol test: several thieves hammer one owner that
  // interleaves pushes and pops; every job is taken exactly once.
  const int N = 30000;
  const int kThieves = 7;
  WsDeque d(N + 1);
  std::atomic<long long> sum{0};
  std::atomic<int> taken{0};
  std::atomic<bool> done_pushing{false};
  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (taken.load() < N) {
        const std::int32_t v = d.steal();
        if (v >= 0) {
          sum += v;
          ++taken;
        } else if (v == WsDeque::kEmpty && done_pushing.load() &&
                   d.empty()) {
          if (taken.load() >= N) break;
        }
      }
    });
  }
  for (int i = 1; i <= N; ++i) {
    d.push(i);
    if (i % 3 == 0) {
      const std::int32_t v = d.pop();
      if (v >= 0) {
        sum += v;
        ++taken;
      }
    }
  }
  done_pushing.store(true);
  while (taken.load() < N) {
    const std::int32_t v = d.pop();
    if (v >= 0) {
      sum += v;
      ++taken;
    }
  }
  for (auto& t : thieves) t.join();
  EXPECT_EQ(taken.load(), N);
  EXPECT_EQ(sum.load(), (long long)N * (N + 1) / 2);
}

TEST(WsDequeTest, ConcurrentStealsLoseNothing) {
  const int N = 20000;
  WsDeque d(N + 1);
  std::atomic<long long> sum{0};
  std::atomic<int> taken{0};
  for (int i = 1; i <= N; ++i) d.push(i);
  auto thief = [&] {
    while (taken.load() < N) {
      const std::int32_t v = d.steal();
      if (v >= 0) {
        sum += v;
        ++taken;
      } else if (v == WsDeque::kEmpty && d.empty()) {
        break;
      }
    }
  };
  std::thread t1(thief), t2(thief), t3(thief);
  // Owner pops concurrently.
  while (taken.load() < N) {
    const std::int32_t v = d.pop();
    if (v >= 0) {
      sum += v;
      ++taken;
    } else if (d.empty()) {
      break;
    }
  }
  t1.join();
  t2.join();
  t3.join();
  EXPECT_EQ(taken.load(), N);
  EXPECT_EQ(sum.load(), (long long)N * (N + 1) / 2);
}

// ----------------------------------------------- differential oracle suite

/// Every kernel the paper transcribes, at test-sized n, plus a seeded
/// batch of generated graphs from four families. Parsed by the workload
/// registry, so these specs stay in sync with ndf_sweep's.
const char* const kDifferentialSpecs[] = {
    "mm:n=16",
    "trs:n=16",
    "cholesky:n=16",
    "lu:n=16",
    "lcs:n=32",
    "gotoh:n=24",
    "fw1d:n=16",
    "fw2d:n=16",
    "gen:family=sp,depth=7,fan=4,seed=1",
    "gen:family=sp,depth=6,fan=5,seed=2",
    "gen:family=forkjoin,depth=4,fan=4",
    "gen:family=diamond,depth=4,fan=5",
    "gen:family=wavefront,n=8",
    "gen:family=chain,n=64",
};

class NativeDifferential : public ::testing::TestWithParam<const char*> {};

TEST_P(NativeDifferential, ExactlyOnceAndEdgeOrderedAcrossThreadCounts) {
  const exp::WorkloadSpec spec = exp::parse_workload(GetParam());
  SpawnTree tree = exp::build_workload_tree(spec);
  ExecutionOracle oracle(tree);
  const StrandGraph g = elaborate(tree, {.np_mode = spec.np});
  for (std::size_t threads : {1ul, 2ul, 8ul}) {
    oracle.reset();
    ExecOptions opts;
    opts.threads = threads;
    const ExecReport r = execute(g, opts);
    EXPECT_EQ(r.strands, oracle.num_strands());
    const auto violations = oracle.verify(g);
    for (const std::string& v : violations)
      ADD_FAILURE() << GetParam() << " @ " << threads << " threads: " << v;
    // Per-worker accounting must partition the strand count exactly.
    ASSERT_EQ(r.workers.size(), threads);
    std::size_t strands = 0, steals = 0;
    for (const WorkerReport& w : r.workers) {
      strands += w.strands;
      steals += w.steals;
    }
    EXPECT_EQ(strands, r.strands);
    EXPECT_EQ(steals, r.steals);
  }
}

TEST_P(NativeDifferential, SbModeConfinesStrandsToAnchorGroups) {
  const exp::WorkloadSpec spec = exp::parse_workload(GetParam());
  SpawnTree tree = exp::build_workload_tree(spec);
  ExecutionOracle oracle(tree);
  const StrandGraph g = elaborate(tree, {.np_mode = spec.np});
  const Pmh machine = make_pmh("deep2x4");
  for (std::size_t threads : {2ul, 8ul}) {
    oracle.reset();
    ExecOptions opts;
    opts.threads = threads;
    opts.mode = ExecMode::Sb;
    opts.machine = &machine;
    const ExecReport r = execute(g, opts);
    const auto violations = oracle.verify(g);
    for (const std::string& v : violations)
      ADD_FAILURE() << GetParam() << " sb @ " << threads
                    << " threads: " << v;
    // The plan is deterministic, so recomputing it gives the ranges the
    // executor enforced; every strand must have run inside its range.
    const AnchorPlan plan =
        plan_anchors(tree, machine, opts.sigma, threads);
    EXPECT_EQ(r.anchors, plan.anchors);
    for (NodeId s : tree.strands_under(tree.root())) {
      const std::size_t w = oracle.worker(s);
      ASSERT_NE(w, static_cast<std::size_t>(-1));
      const AnchorPlan::Range range = plan.strand_group[s];
      EXPECT_TRUE(w >= range.begin && w < range.end)
          << GetParam() << " strand " << s << " ran on worker " << w
          << " outside anchor group [" << range.begin << ", " << range.end
          << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, NativeDifferential,
                         ::testing::ValuesIn(kDifferentialSpecs),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           std::string name = i.param;
                           for (char& c : name)
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return name;
                         });

// --------------------------------------------- bit-identical data outputs

TEST(NativeDifferentialData, MatmulBitIdenticalAcrossRunsAndThreadCounts) {
  // The determinacy claim on real silicon: the DAG serializes every
  // accumulation onto C, so repeated parallel runs at any thread count
  // produce byte-identical doubles — not merely close ones — and they
  // match the serial elision byte for byte.
  const std::size_t n = 32, base = 8;
  Matrix<double> A = random_matrix(n, n, 11), B = random_matrix(n, n, 12);

  const auto run_once = [&](std::size_t threads) {
    Matrix<double> C(n, n, 0.0);
    SpawnTree t;
    const LinalgTypes ty = LinalgTypes::install(t);
    t.set_root(build_mm(t, ty, n, n, n, base, +1.0,
                        MmViews{A.view(), B.view(), C.view(), false}));
    const StrandGraph g = elaborate(t);
    if (threads == 0)
      execute_serial(g);
    else
      execute_parallel(g, threads);
    return C;
  };

  const Matrix<double> ref = run_once(0);
  for (std::size_t threads : {1ul, 2ul, 8ul}) {
    for (int rep = 0; rep < 2; ++rep) {
      const Matrix<double> C = run_once(threads);
      EXPECT_EQ(std::memcmp(&C(0, 0), &ref(0, 0),
                            n * n * sizeof(double)),
                0)
          << "threads " << threads << " rep " << rep;
    }
  }
}

TEST(NativeDifferentialData, TrsBitIdenticalAcrossThreadCounts) {
  const std::size_t n = 32, base = 8;
  Matrix<double> T = random_matrix(n, n, 13);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) T(i, j) = 0.0;
    T(i, i) = 2.0 + std::abs(T(i, i));
  }
  const Matrix<double> B0 = random_matrix(n, n, 14);

  const auto run_once = [&](std::size_t threads) {
    Matrix<double> X = B0;
    SpawnTree t;
    const LinalgTypes ty = LinalgTypes::install(t);
    t.set_root(build_trs(t, ty, TrsSide::LeftLower, n, n, base,
                         TrsViews{T.view(), X.view()}));
    const StrandGraph g = elaborate(t);
    if (threads == 0)
      execute_serial(g);
    else
      execute_parallel(g, threads);
    return X;
  };

  const Matrix<double> ref = run_once(0);
  for (std::size_t threads : {1ul, 2ul, 8ul}) {
    const Matrix<double> X = run_once(threads);
    EXPECT_EQ(
        std::memcmp(&X(0, 0), &ref(0, 0), n * n * sizeof(double)), 0)
        << "threads " << threads;
  }
}

// ------------------------------------------------------- legacy behaviors

TEST(Executor, ParallelMatmulMatchesSerial) {
  const std::size_t n = 64, base = 8;
  Matrix<double> A = random_matrix(n, n, 1), B = random_matrix(n, n, 2);
  Matrix<double> C(n, n, 0.0), Cref(n, n, 0.0);
  mm_reference(A.view(), B.view(), Cref.view(), +1.0, false);

  for (int rep = 0; rep < 3; ++rep) {
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) C(i, j) = 0.0;
    SpawnTree t;
    const LinalgTypes ty = LinalgTypes::install(t);
    t.set_root(build_mm(t, ty, n, n, n, base, +1.0,
                        MmViews{A.view(), B.view(), C.view(), false}));
    StrandGraph g = elaborate(t);
    const ExecReport r = execute_parallel(g, 4);
    EXPECT_EQ(r.strands, t.strand_count(t.root()));
    double d = 0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        d = std::max(d, std::abs(C(i, j) - Cref(i, j)));
    EXPECT_LT(d, 1e-9);
  }
}

TEST(Executor, ParallelLcsRepeatedRunsAreDeterministic) {
  const std::size_t n = 128, base = 8;
  Rng rng(5);
  std::vector<int> S(n), T(n);
  for (auto& x : S) x = int(rng.below(4));
  for (auto& x : T) x = int(rng.below(4));
  Matrix<int> Xref(n + 1, n + 1, 0);
  const int ref = lcs_reference(S, T, Xref);

  for (int rep = 0; rep < 5; ++rep) {
    Matrix<int> X(n + 1, n + 1, 0);
    SpawnTree t;
    const LcsTypes ty = LcsTypes::install(t);
    t.set_root(build_lcs(t, ty, n, base, LcsViews{&S, &T, &X}));
    execute_parallel(elaborate(t), 8);
    ASSERT_EQ(X(n, n), ref) << "rep " << rep;
  }
}

TEST(Executor, SingleThreadDegradesToSerial) {
  const std::size_t n = 32;
  Matrix<double> A = random_matrix(n, n, 7);
  Matrix<double> S(n, n, 0.0), Sref(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < n; ++k) S(i, j) += A(i, k) * A(j, k);
      if (i == j) S(i, j) += double(n);
      Sref(i, j) = S(i, j);
    }
  cholesky_reference(Sref.view());

  SpawnTree t;
  const LinalgTypes ty = LinalgTypes::install(t);
  t.set_root(build_cholesky(t, ty, n, 4, S.view()));
  execute_parallel(elaborate(t), 1);
  double d = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j)
      d = std::max(d, std::abs(S(i, j) - Sref(i, j)));
  EXPECT_LT(d, 1e-8);
}

TEST(Executor, StructureOnlyGraphRuns) {
  SpawnTree t = make_mm_tree(16, 4);
  StrandGraph g = elaborate(t);
  const ExecReport r = execute_parallel(g, 2);
  EXPECT_EQ(r.strands, t.strand_count(t.root()));
}

TEST(Executor, SbModeNeedsMachine) {
  SpawnTree t = make_mm_tree(16, 4);
  StrandGraph g = elaborate(t);
  ExecOptions opts;
  opts.threads = 2;
  opts.mode = ExecMode::Sb;
  EXPECT_THROW(execute(g, opts), CheckError);
}

TEST(Executor, SpinBodiesAttachOnlyWhereMissing) {
  SpawnTree t = make_mm_tree(16, 4);  // structure-only: all bodies missing
  const std::size_t total = t.strand_count(t.root());
  std::atomic<int> ran{0};
  const NodeId some = t.strands_under(t.root())[0];
  t.set_body(some, [&ran] { ran.fetch_add(1); });
  EXPECT_EQ(attach_spin_bodies(t, 1.0), total - 1);
  EXPECT_EQ(attach_spin_bodies(t, 1.0), 0u);  // all covered now
  execute_parallel(elaborate(t), 2);
  EXPECT_EQ(ran.load(), 1);  // pre-existing body survived
}

}  // namespace
}  // namespace ndf
