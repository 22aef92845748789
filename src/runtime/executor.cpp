#include "runtime/executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "pmh/machine.hpp"
#include "runtime/deque.hpp"
#include "support/rng.hpp"

namespace ndf {

namespace {

thread_local std::size_t tls_worker = static_cast<std::size_t>(-1);

/// Scope guard that names the current thread as executor worker `ix`.
struct WorkerScope {
  explicit WorkerScope(std::size_t ix) { tls_worker = ix; }
  ~WorkerScope() { tls_worker = static_cast<std::size_t>(-1); }
};

/// Deterministic per-strand chaos delay: derived from (chaos seed, node,
/// phase) only, so the same seed perturbs the same strands by the same
/// amounts no matter which worker runs them or in what order.
std::uint32_t chaos_spins(const ChaosOptions& c, NodeId n,
                          std::uint32_t phase) {
  if (c.max_delay_spins == 0) return 0;
  std::uint64_t s = c.seed ^ (0x9E3779B97F4A7C15ULL * (n + 1)) ^ phase;
  return static_cast<std::uint32_t>(splitmix64(s) % c.max_delay_spins);
}

void spin_iters(std::uint32_t iters) {
  volatile std::uint32_t sink = 0;
  for (std::uint32_t i = 0; i < iters; ++i) sink = sink + i;
}

void pin_to_cpu(std::size_t cpu) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % CPU_SETSIZE, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)cpu;
#endif
}

/// Worker index range under one level-`level` cache of `machine`, with the
/// `workers` real threads spread proportionally over the machine's
/// processors (worker w covers processors [w·P/W, (w+1)·P/W)).
AnchorPlan::Range cache_worker_range(const Pmh& machine, std::size_t level,
                                     std::size_t cache, std::size_t workers) {
  const std::size_t P = machine.num_processors();
  const std::size_t ppc = machine.procs_per_cache(level);
  const std::size_t pb = cache * ppc, pe = (cache + 1) * ppc;
  // First worker whose processor window starts at or after pb / pe.
  const auto first_at = [&](std::size_t proc) {
    return static_cast<std::uint32_t>((proc * workers + P - 1) / P);
  };
  return {first_at(pb), first_at(pe)};
}

struct AnchorState {
  const SpawnTree& tree;
  const Pmh& machine;
  double sigma;
  std::size_t workers;
  AnchorPlan plan;
  /// load[level-1][cache] = total anchored work, for least-loaded choice.
  std::vector<std::vector<double>> load;

  void assign(NodeId n, std::size_t level, AnchorPlan::Range range) {
    // Anchor n down every cache level it fits in, highest first — the
    // level where it fits but its parent did not is where the simulator's
    // sb policy anchors it; inner levels then re-anchor the same subtree
    // the way nested maximal tasks anchor to nested caches.
    while (level >= 1 &&
           tree.size_of(n) <= sigma * machine.cache_size(level)) {
      const std::size_t ppc = machine.procs_per_cache(level);
      // Candidate caches at this level whose processors lie inside the
      // current range's processor window.
      const std::size_t P = machine.num_processors();
      const std::size_t pb = (range.begin * P) / workers;
      const std::size_t pe = (range.end * P + workers - 1) / workers;
      std::size_t best = static_cast<std::size_t>(-1);
      AnchorPlan::Range best_range;
      for (std::size_t c = pb / ppc; c * ppc < pe; ++c) {
        const AnchorPlan::Range r =
            cache_worker_range(machine, level, c, workers);
        // Only ranges that are real subdivisions: non-empty and inside
        // the inherited range.
        if (r.begin >= r.end) continue;
        if (r.begin < range.begin || r.end > range.end) continue;
        if (best == static_cast<std::size_t>(-1) ||
            load[level - 1][c] < load[level - 1][best])
          best = c;
      }
      if (best != static_cast<std::size_t>(-1)) {
        const AnchorPlan::Range r =
            cache_worker_range(machine, level, best, workers);
        if (r.end - r.begin < range.end - range.begin) {
          load[level - 1][best] += tree.work_of(n);
          range = r;
          ++plan.anchors;
        }
      }
      --level;
    }
    if (tree.is_strand(n)) {
      plan.strand_group[n] = range;
      return;
    }
    for (NodeId c : tree.children(n)) assign(c, level, range);
  }
};

class Pool {
 public:
  Pool(const StrandGraph& g, const ExecOptions& opts)
      : g_(g), tree_(g.tree()), opts_(opts) {
    nthreads_ = opts.threads
                    ? opts.threads
                    : std::max<std::size_t>(
                          1, std::thread::hardware_concurrency());
    NDF_CHECK_MSG(opts.mode != ExecMode::Sb || opts.machine,
                  "sb-mode native execution needs ExecOptions::machine");

    const std::size_t V = g_.num_vertices();
    counts_ = std::vector<std::atomic<std::uint32_t>>(V);
    for (VertexId v = 0; v < V; ++v)
      counts_[v].store(g_.in_degree(v), std::memory_order_relaxed);
    for (NodeId n = 0; n < tree_.num_nodes(); ++n)
      if (tree_.node(n).kind == Kind::Strand && g_.live(n)) ++total_;
    for (std::size_t i = 0; i < nthreads_; ++i)
      deques_.emplace_back(total_ + 1);
    stats_ = std::vector<PaddedStats>(nthreads_);
    scratch_ = std::vector<Scratch>(nthreads_);

    if (opts.mode == ExecMode::Sb && nthreads_ > 1) {
      plan_ = plan_anchors(tree_, *opts.machine, opts.sigma, nthreads_);
      build_groups();
    } else {
      // Single global group; every strand unconstrained.
      groups_.emplace_back();
      groups_[0].range = {0, static_cast<std::uint32_t>(nthreads_)};
      group_of_.assign(tree_.num_nodes(), 0);
      worker_groups_.assign(nthreads_, {0});
    }
  }

  ExecReport run() {
    // Seed: fire every vertex whose in-degree is already zero, exactly
    // once. Control vertices cascade; strand enters become initial jobs
    // (strands that become ready during the cascade are pushed by
    // propagate() itself — no second scan, or they would run twice).
    // All of this happens on the calling thread before any worker starts,
    // so pushing into arbitrary deques is still owner-safe.
    {
      const WorkerScope scope(0);
      for (VertexId v = 0; v < g_.num_vertices(); ++v) {
        // Static zero in-degree only: vertices that reach zero during the
        // cascade are handled (once) inside propagate().
        if (g_.in_degree(v) != 0) continue;
        if (is_strand_enter(v))
          seed_job(g_.owner(v));
        else
          propagate(v, seed_cursor_ % nthreads_, /*seeding=*/true);
        ++seed_cursor_;
      }
    }

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(nthreads_);
    for (std::size_t i = 1; i < nthreads_; ++i)
      threads.emplace_back([this, i] { worker(i); });
    worker(0);
    for (auto& th : threads) th.join();
    const auto t1 = std::chrono::steady_clock::now();

    NDF_CHECK_MSG(done_.load() == total_,
                  "executor finished with " << done_.load() << " of "
                                            << total_ << " strands run");
    ExecReport r;
    r.seconds = std::chrono::duration<double>(t1 - t0).count();
    r.strands = total_;
    r.anchors = plan_.anchors;
    r.handoffs = handoffs_.load();
    r.workers.reserve(nthreads_);
    for (const PaddedStats& s : stats_) {
      r.steals += s.w.steals;
      r.steal_attempts += s.w.steal_attempts;
      r.workers.push_back(s.w);
    }
    return r;
  }

 private:
  struct Group {
    AnchorPlan::Range range;
    // Cross-group handoff inbox: the one queue a non-member may write.
    std::mutex mu;
    std::vector<std::int32_t> jobs;
    std::atomic<bool> nonempty{false};
  };

  struct alignas(64) PaddedStats {
    WorkerReport w;
  };

  bool is_strand_enter(VertexId v) const {
    return !g_.is_exit(v) && tree_.node(g_.owner(v)).kind == Kind::Strand;
  }

  /// Registers the distinct anchor ranges as groups and maps each worker
  /// to the groups containing it, innermost (narrowest) first.
  void build_groups() {
    groups_.emplace_back();
    groups_[0].range = {0, static_cast<std::uint32_t>(nthreads_)};
    group_of_.assign(tree_.num_nodes(), 0);
    for (NodeId n = 0; n < tree_.num_nodes(); ++n) {
      if (tree_.node(n).kind != Kind::Strand) continue;
      if (n >= plan_.strand_group.size()) continue;
      const AnchorPlan::Range r = plan_.strand_group[n];
      if (r.begin == 0 && r.end == nthreads_) continue;
      std::size_t gi = 0;
      for (; gi < groups_.size(); ++gi)
        if (groups_[gi].range.begin == r.begin &&
            groups_[gi].range.end == r.end)
          break;
      if (gi == groups_.size()) {
        // std::deque: Group is immovable (mutex/atomic).
        groups_.emplace_back();
        groups_[gi].range = r;
      }
      group_of_[n] = static_cast<std::uint32_t>(gi);
    }
    worker_groups_.assign(nthreads_, {});
    for (std::size_t w = 0; w < nthreads_; ++w) {
      for (std::size_t gi = 1; gi < groups_.size(); ++gi)
        if (w >= groups_[gi].range.begin && w < groups_[gi].range.end)
          worker_groups_[w].push_back(gi);
      // Narrowest group first: steal close before stealing wide.
      std::sort(worker_groups_[w].begin(), worker_groups_[w].end(),
                [this](std::size_t a, std::size_t b) {
                  return groups_[a].range.end - groups_[a].range.begin <
                         groups_[b].range.end - groups_[b].range.begin;
                });
      worker_groups_[w].push_back(0);  // the global group, last resort
    }
  }

  bool in_range(const AnchorPlan::Range& r, std::size_t w) const {
    return w >= r.begin && w < r.end;
  }

  /// Seed-time placement: round-robin across the job's whole anchor group
  /// so initial work starts spread out.
  void seed_job(NodeId node) {
    const Group& grp = groups_[group_of_[node]];
    const std::size_t span = grp.range.end - grp.range.begin;
    const std::size_t w = grp.range.begin + seed_cursor_ % span;
    deques_[w].push(static_cast<std::int32_t>(node));
  }

  /// A strand became ready, discovered by `worker_ix`: keep it local when
  /// allowed, hand it to its anchor group's inbox otherwise.
  void dispatch(NodeId node, std::size_t worker_ix, bool seeding) {
    Group& grp = groups_[group_of_[node]];
    if (seeding) {
      seed_job(node);
      return;
    }
    if (in_range(grp.range, worker_ix)) {
      deques_[worker_ix].push(static_cast<std::int32_t>(node));
      return;
    }
    handoff(static_cast<std::int32_t>(node), grp);
  }

  void handoff(std::int32_t job, Group& grp) {
    {
      const std::lock_guard<std::mutex> lock(grp.mu);
      grp.jobs.push_back(job);
    }
    grp.nonempty.store(true, std::memory_order_release);
    handoffs_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Fires vertex v (whose count reached zero): decrements successors,
  /// recursing through control vertices; ready strands are dispatched.
  void propagate(VertexId start, std::size_t worker_ix, bool seeding) {
    std::vector<VertexId>& stack = scratch_[worker_ix].stack;
    stack.push_back(start);
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      for (VertexId w : g_.successors(v)) {
        if (counts_[w].fetch_sub(1, std::memory_order_acq_rel) == 1) {
          if (is_strand_enter(w))
            dispatch(g_.owner(w), worker_ix, seeding);
          else
            stack.push_back(w);
        }
      }
    }
  }

  void run_strand(NodeId n, std::size_t worker_ix) {
    const SpawnTree::Body& body = tree_.body(n);
    WorkerReport& st = stats_[worker_ix].w;
    const auto b0 = std::chrono::steady_clock::now();
    if (opts_.chaos.enabled) spin_iters(chaos_spins(opts_.chaos, n, 0));
    if (body) body();
    if (opts_.chaos.enabled) spin_iters(chaos_spins(opts_.chaos, n, 1));
    // enter(n) fired at push time; its only successor is exit(n).
    propagate(g_.enter(n), worker_ix, /*seeding=*/false);
    st.busy_s +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - b0)
            .count();
    ++st.strands;
    done_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// One job from an inbox of a group containing `ix`, or kEmpty.
  std::int32_t poll_inboxes(std::size_t ix) {
    for (std::size_t gi : worker_groups_[ix]) {
      Group& grp = groups_[gi];
      if (!grp.nonempty.load(std::memory_order_acquire)) continue;
      const std::lock_guard<std::mutex> lock(grp.mu);
      if (grp.jobs.empty()) continue;
      const std::int32_t job = grp.jobs.back();
      grp.jobs.pop_back();
      if (grp.jobs.empty())
        grp.nonempty.store(false, std::memory_order_release);
      return job;
    }
    return WsDeque::kEmpty;
  }

  /// One steal attempt against a random victim of group `gi` (≠ self).
  /// May return a job the thief is not allowed to run; the caller hands
  /// those off.
  std::int32_t try_steal(std::size_t ix, std::size_t gi, Rng& rng) {
    const AnchorPlan::Range r = groups_[gi].range;
    const std::size_t span = r.end - r.begin;
    if (span <= 1) return WsDeque::kEmpty;
    const std::size_t victim = r.begin + rng.below(span);
    if (victim == ix) return WsDeque::kEmpty;
    ++stats_[ix].w.steal_attempts;
    const std::int32_t job = deques_[victim].steal();
    if (job >= 0) ++stats_[ix].w.steals;
    return job;
  }

  void worker(std::size_t ix) {
    const WorkerScope scope(ix);
    if (opts_.pin_threads) pin_to_cpu(ix);
    Rng rng(splitmix_mix(opts_.seed, ix));
    std::size_t backoff = 0;
    while (done_.load(std::memory_order_acquire) < total_) {
      std::int32_t job = deques_[ix].pop();
      if (job < 0) job = poll_inboxes(ix);
      if (job < 0 && nthreads_ > 1) {
        // Steal narrow-to-wide: exhaust the innermost anchor group's ring
        // before reaching across sockets.
        for (std::size_t gi : worker_groups_[ix]) {
          job = try_steal(ix, gi, rng);
          if (job >= 0) break;
        }
        if (job >= 0 &&
            !in_range(groups_[group_of_[job]].range, ix)) {
          // Stolen from a shared ring but anchored elsewhere: hand it to
          // its group and keep looking.
          handoff(job, groups_[group_of_[job]]);
          job = WsDeque::kEmpty;
        }
      }
      if (job >= 0) {
        backoff = 0;
        run_strand(static_cast<NodeId>(job), ix);
      } else if (++backoff > 64) {
        std::this_thread::yield();
      }
    }
  }

  static std::uint64_t splitmix_mix(std::uint64_t seed, std::size_t ix) {
    std::uint64_t s = seed ^ (0x9E3779B97F4A7C15ULL * (ix + 1));
    return splitmix64(s);
  }

  struct alignas(64) Scratch {
    std::vector<VertexId> stack;
  };

  const StrandGraph& g_;
  const SpawnTree& tree_;
  ExecOptions opts_;
  std::size_t nthreads_ = 1;
  std::size_t total_ = 0;
  std::size_t seed_cursor_ = 0;
  AnchorPlan plan_;
  std::vector<std::atomic<std::uint32_t>> counts_;
  std::deque<WsDeque> deques_;  // WsDeque is not movable (atomics)
  std::deque<Group> groups_;    // Group is not movable (mutex)
  std::vector<std::uint32_t> group_of_;  ///< strand NodeId → group index
  std::vector<std::vector<std::size_t>> worker_groups_;
  std::vector<PaddedStats> stats_;
  std::vector<Scratch> scratch_;
  std::atomic<std::size_t> done_{0};
  std::atomic<std::size_t> handoffs_{0};
};

}  // namespace

AnchorPlan plan_anchors(const SpawnTree& tree, const Pmh& machine,
                        double sigma, std::size_t workers) {
  NDF_CHECK(workers >= 1);
  AnchorState st{tree, machine, sigma, workers, {}, {}};
  st.plan.strand_group.assign(
      tree.num_nodes(), {0, static_cast<std::uint32_t>(workers)});
  st.load.resize(machine.num_cache_levels());
  for (std::size_t l = 1; l <= machine.num_cache_levels(); ++l)
    st.load[l - 1].assign(machine.num_caches(l), 0.0);
  st.assign(tree.root(), machine.num_cache_levels(),
            {0, static_cast<std::uint32_t>(workers)});
  return std::move(st.plan);
}

ExecReport execute(const StrandGraph& g, const ExecOptions& opts) {
  Pool pool(g, opts);
  return pool.run();
}

ExecReport execute_parallel(const StrandGraph& g, std::size_t num_threads) {
  NDF_CHECK(num_threads >= 1);
  ExecOptions opts;
  opts.threads = num_threads;
  return execute(g, opts);
}

ExecReport execute_serial(const StrandGraph& g) {
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t strands = 0;
  for (VertexId v : g.topological_order()) {
    if (g.is_exit(v)) continue;
    const NodeId n = g.owner(v);
    if (g.tree().is_strand(n)) {
      if (const SpawnTree::Body& body = g.tree().body(n)) body();
      ++strands;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  ExecReport r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.strands = strands;
  return r;
}

std::size_t current_worker() { return tls_worker; }

}  // namespace ndf
