#include "sched/sb_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "analysis/pcc.hpp"
#include "sched/registry.hpp"

namespace ndf {

namespace {

/// The "sb" policy: anchoring, boundedness and allocation over the core's
/// readiness/event machinery. The task tree (roots, sizes, parents,
/// children) is the condensation's; the policy keeps only per-run state,
/// in flat arenas that init() refills without giving capacity back.
///
/// Blocked tasks. A release re-tries every capacity-blocked task of its
/// level, last-blocked first, and a retry that fails again only moves the
/// task within the pending list. Every blocked task failed on all its
/// candidate caches at its last try, no capacity frees during a drain,
/// and a cache gains room only by a release at it. So a retry can succeed
/// only on a cache freed since the last drain, and every other retry is
/// known to fail without being run: those tasks go straight back to the
/// pending list, in the order the retries would have put them there.
/// Successes, pins and trace events keep their order exactly.
///
/// Wasted work. An idle processor whose scan path holds no queued unit is
/// never asked (reach_), a completed task arrives as (level, task) from
/// the dag's frozen lists, and an anchored task tries only its children
/// that are already ready — no counter moves inside a drain, so the others
/// would fail there, and on_task_ready queues them when they become ready.
class SbScheduler final : public Scheduler {
 public:
  explicit SbScheduler(const SchedOptions&) {}

  const char* name() const override { return "sb"; }

  void init(SimCore& core) override {
    core_ = &core;
    dag_ = &core.dag();
    m_ = &core.machine();
    L_ = core.num_levels();
    alpha_prime_ = core.options().alpha_prime;
    unit_dur_ = &core.distributed_unit_durations();

    // Per-task state, in the dag's (level, task) arena layout.
    const std::size_t tasks = dag_->ext_arena_size();
    task_.assign(tasks, TaskState{});

    // Per-cache state: level l's caches start at cache_off_[l-1]; the slot
    // past the last cache holds memory's run queue.
    cache_off_.resize(L_ + 1);
    cap_.resize(L_);
    fan_.resize(L_);
    ppc_.resize(L_);
    std::size_t caches = 0;
    for (std::size_t l = 1; l <= L_; ++l) {
      cache_off_[l - 1] = caches;
      caches += m_->num_caches(l);
      cap_[l - 1] = core.options().sigma * m_->cache_size(l);
      fan_[l - 1] = m_->fanout(l);
      ppc_[l - 1] = m_->procs_per_cache(l);
    }
    cache_off_[L_] = caches;
    cache_.assign(caches + 1, CacheState{});
    for (std::size_t l = 2; l <= L_; ++l)
      for (std::size_t i = cache_off_[l - 1]; i < cache_off_[l]; ++i)
        cache_[i].free_kids = int(fan_[l - 1]);
    top_min_dirty_ = true;

    // Run queues: one intrusive FIFO per cache plus memory's, threaded
    // through next_unit_ (every unit is queued at most once per run).
    next_unit_.resize(core.num_units());
    // Per processor, the queues pick() scans: its cache at each level,
    // innermost first, then memory's. A processor whose scan would find
    // every one of them empty is not asked (reach_).
    const std::size_t P = m_->num_processors();
    reach_.reset(P);
    proc_q_.resize(P * (L_ + 1));
    for (std::size_t p = 0; p < P; ++p) {
      for (std::size_t l = 1; l <= L_; ++l)
        proc_q_[p * (L_ + 1) + l - 1] =
            int(cache_off_[l - 1] + m_->cache_above(p, l));
      proc_q_[p * (L_ + 1) + L_] = int(caches);
    }

    to_try_.clear();
    pending_.resize(L_);
    batch_.resize(L_);
    freed_.resize(L_);
    for (std::size_t l = 0; l < L_; ++l) {
      pending_[l].clear();
      batch_[l].clear();
      freed_[l].clear();
    }
  }

  void on_start() override {
    // Seed anchoring with every dependency-free task, top level first.
    for (std::size_t l = L_; l >= 1; --l) {
      const int n = int(dag_->decomposition(l).maximal.size());
      for (int i = 0; i < n; ++i)
        if (core_->task_ext(l, i) == 0) to_try_.push_back({l, i});
    }
    drain_anchor_worklist();
  }

  void on_task_ready(std::size_t level, int t) override {
    if (!task_[flat(level, t)].anchored) to_try_.push_back({level, t});
  }

  /// Releases the capacity and leases of a completed anchored task.
  void on_task_done(std::size_t l, int ti) override {
    const std::size_t f = flat(l, ti);
    if (!task_[f].anchored || dag_->task_oversized(l, ti)) return;
    const std::size_t c = std::size_t(task_[f].anchor_cache);
    CacheState& cs = cache_[cache_off_[l - 1] + c];
    cs.used -= dag_->task_size(l, ti);
    core_->unpin_footprint(l, c, ti);
    if (l > 1) {
      const std::size_t fan = fan_[l - 1];
      for (std::size_t k = c * fan; k < (c + 1) * fan; ++k) {
        int& holder = cache_[cache_off_[l - 2] + k].leased_to;
        if (holder == ti) {
          holder = -1;
          ++cs.free_kids;
        }
      }
    }
    if (l == L_) top_min_dirty_ = true;
    freed_[l - 1].push_back(std::uint32_t(c));
    retry_pending(l);
    // The level below is re-tried too. Its blocked tasks only move within
    // their list — the freed leases serve no live parent — but that order
    // decides later ties.
    if (l > 1) retry_pending(l - 1);
  }

  void on_unit_complete(std::size_t, int) override {
    drain_anchor_worklist();
  }

  Assignment pick(std::size_t proc, double) override {
    const int* q = &proc_q_[proc * (L_ + 1)];
    for (std::size_t i = 0; i <= L_; ++i) {
      CacheState& c = cache_[q[i]];
      const int u = c.q_head;
      if (u < 0) continue;
      c.q_head = next_unit_[u];
      if (c.q_head < 0) {
        c.q_tail = -1;
        reach_queue(i + 1, std::size_t(q[i]), -1);
      }
      return {u, (*unit_dur_)[u]};
    }
    return {};
  }

 private:
  /// One anchoring attempt on the work-list: level-`level` task `task`, or
  /// (task == kBatch) the next task of that level's retry batch.
  struct Try {
    std::size_t level;
    int task;
  };
  static constexpr int kBatch = -1;

  /// A capacity-blocked task, with what tells whether a freed cache can
  /// take it.
  struct Blocked {
    int task;
    int parent;  ///< task at the level above (-1 at the top)
    double size;
  };

  /// A level's blocked tasks, in order, with a lower bound on their sizes:
  /// a ring buffer, so that a batch failing as a whole comes back
  /// reversed in O(1).
  class BlockedList {
   public:
    bool empty() const { return n_ == 0; }
    double min_size() const { return min_size_; }
    const Blocked& back() const { return at(n_ - 1); }
    void pop_back() {
      if (rev_) head_ = wrap(head_ + 1);
      --n_;
    }
    void push_back(const Blocked& b) {
      if (n_ == buf_.size()) grow();
      if (rev_) {
        head_ = wrap(head_ + buf_.size() - 1);
        buf_[head_] = b;
      } else {
        buf_[wrap(head_ + n_)] = b;
      }
      ++n_;
      min_size_ = std::min(min_size_, b.size);
    }
    /// Appends `o`'s tasks back to front and empties `o`.
    void append_reversed(BlockedList& o) {
      if (empty()) {
        std::swap(*this, o);
        rev_ = !rev_;
        o.clear();
        return;
      }
      for (; !o.empty(); o.pop_back()) push_back(o.back());
      o.clear();
    }
    void clear() {
      head_ = n_ = 0;
      rev_ = false;
      min_size_ = std::numeric_limits<double>::infinity();
    }

   private:
    std::size_t wrap(std::size_t i) const { return i & (buf_.size() - 1); }
    const Blocked& at(std::size_t i) const {
      return buf_[wrap(rev_ ? head_ + n_ - 1 - i : head_ + i)];
    }
    void grow() {
      std::vector<Blocked> nb(std::max<std::size_t>(16, 2 * buf_.size()));
      for (std::size_t i = 0; i < n_; ++i) nb[i] = at(i);
      buf_.swap(nb);
      head_ = 0;
      rev_ = false;
    }

    std::vector<Blocked> buf_;  ///< empty or a power of two long
    std::size_t head_ = 0, n_ = 0;
    bool rev_ = false;  ///< logical order runs from the physical back
    double min_size_ = std::numeric_limits<double>::infinity();
  };

  std::size_t flat(std::size_t level, int t) const {
    return dag_->ext_off(level) + std::size_t(t);
  }

  /// Queues every capacity-blocked task of level l for another attempt,
  /// in pending order (the drain tries the last-blocked first). The tasks
  /// move into the level's batch behind ONE work-list marker instead of
  /// one entry each, and stay flagged in_pending until really retried.
  /// The previous batch is always spent by now: drains run it dry, and no
  /// release happens inside a drain.
  void retry_pending(std::size_t l) {
    BlockedList& p = pending_[l - 1];
    if (p.empty()) return;
    BlockedList& b = batch_[l - 1];
    NDF_CHECK(b.empty());
    std::swap(b, p);
    to_try_.push_back({l, kBatch});
  }

  bool parent_anchored(std::size_t l, int ti) const {
    if (l == L_) return true;
    return task_[flat(l + 1, dag_->task_parent(l, ti))].anchored;
  }

  /// gi(S): number of level-(l-1) subclusters for a size-S task at level l.
  std::size_t allocation(std::size_t l, double S) const {
    const double fi = double(fan_[l - 1]);
    const double frac = std::pow(3.0 * S / m_->cache_size(l), alpha_prime_);
    return static_cast<std::size_t>(
        std::min(fi, std::max(1.0, std::floor(fi * frac))));
  }

  /// Level-l cache c can take a size-S task: capacity left under σM, and
  /// (above level 1) a free subcluster to lease.
  bool fits(std::size_t l, std::size_t c, double S) const {
    const CacheState& cs = cache_[cache_off_[l - 1] + c];
    return cs.used + S <= cap_[l - 1] && (l == 1 || cs.free_kids > 0);
  }

  /// The least `used` over top-level caches with a free subcluster (+inf
  /// when none has one). FP addition is monotone, so a task this cannot
  /// fit fits no top-level cache — an exact O(1) fail test.
  double top_min_used() {
    if (top_min_dirty_) {
      top_min_ = std::numeric_limits<double>::infinity();
      for (std::size_t i = cache_off_[L_ - 1]; i < cache_off_[L_]; ++i)
        if (L_ == 1 || cache_[i].free_kids > 0)
          top_min_ = std::min(top_min_, cache_[i].used);
      top_min_dirty_ = false;
    }
    return top_min_;
  }

  /// True when retrying `e` (a level-l blocked task) now would fail: no
  /// level-l cache freed since the last drain is its candidate (any cache
  /// at the top level, its parent's leased subclusters below) with room
  /// for it.
  bool still_blocked(std::size_t l, const Blocked& e) const {
    for (std::uint32_t k : freed_[l - 1])
      if ((l == L_ || cache_[cache_off_[l - 1] + k].leased_to == e.parent) &&
          fits(l, k, e.size))
        return false;
    return true;
  }

  /// The first cache the level-l task ti may anchor on, or -1. Candidates
  /// are the parent's leased subclusters in cache order (every top-level
  /// cache for top-level tasks).
  int find_anchor(std::size_t l, int ti, double S) {
    if (l == L_) {
      if (top_min_used() + S > cap_[l - 1]) return -1;
      for (std::size_t c = 0; c < cache_off_[l] - cache_off_[l - 1]; ++c)
        if (fits(l, c, S)) return int(c);
      return -1;
    }
    const int p = dag_->task_parent(l, ti);
    const int pc = task_[flat(l + 1, p)].anchor_cache;
    if (pc < 0) return -1;
    const std::size_t fan = fan_[l];
    for (std::size_t k = std::size_t(pc) * fan; k < std::size_t(pc + 1) * fan;
         ++k)
      if (cache_[cache_off_[l - 1] + k].leased_to == p && fits(l, k, S))
        return int(k);
    return -1;
  }

  /// Records level-l task ti (size S) as blocked, unless it already is.
  void block(std::size_t l, int ti, double S) {
    const std::size_t f = flat(l, ti);
    if (task_[f].in_pending) return;
    task_[f].in_pending = true;
    pending_[l - 1].push_back(
        {ti, l < L_ ? dag_->task_parent(l, ti) : -1, S});
  }

  /// Run queue `q` of level `l` (L_ + 1 for memory's) turned non-empty
  /// (+1) or empty (-1): the processors below it gain or lose one
  /// reachable queue.
  void reach_queue(std::size_t l, std::size_t q, int delta) {
    if (l > L_) {
      reach_.add_shared(delta);
      return;
    }
    const std::size_t first = (q - cache_off_[l - 1]) * ppc_[l - 1];
    reach_.add(first, first + ppc_[l - 1], delta);
  }

  void enqueue_unit(int u) {
    std::size_t l = 1;
    std::size_t q = cache_off_[L_];  // memory's queue
    for (; l <= L_; ++l) {
      const int t = dag_->unit_task(l, u);
      if (!dag_->task_oversized(l, t)) {
        const int c = task_[flat(l, t)].anchor_cache;
        NDF_CHECK(task_[flat(l, t)].anchored && c >= 0);
        q = cache_off_[l - 1] + std::size_t(c);
        break;
      }
    }
    next_unit_[u] = -1;
    CacheState& cs = cache_[q];
    if (cs.q_tail < 0) {
      cs.q_head = u;
      reach_queue(l, q, +1);
    } else {
      next_unit_[cs.q_tail] = u;
    }
    cs.q_tail = u;
  }

  void try_anchor(std::size_t l, int ti) {
    const std::size_t f = flat(l, ti);
    TaskState& ts = task_[f];
    if (ts.anchored || core_->task_ext(l, ti) != 0 || !parent_anchored(l, ti))
      return;
    const double S = dag_->task_size(l, ti);
    if (!dag_->task_oversized(l, ti)) {
      const int chosen = find_anchor(l, ti, S);
      if (chosen < 0) {
        block(l, ti, S);
        return;
      }
      const std::size_t c = std::size_t(chosen);
      ts.anchored = true;
      ts.anchor_cache = chosen;
      cache_[cache_off_[l - 1] + c].used += S;
      // Measured occupancy mirrors the capacity reservation: an anchored
      // footprint cannot be evicted until release, so it loads at most
      // once — the mechanism behind measured Q_i <= Q*(sigma*Mi).
      core_->pin_footprint(l, c, ti);
      if (l > 1) {
        const std::size_t want = allocation(l, S);
        const std::size_t fan = fan_[l - 1];
        std::size_t got = 0;
        for (std::size_t k = c * fan; k < (c + 1) * fan && got < want; ++k) {
          int& holder = cache_[cache_off_[l - 2] + k].leased_to;
          if (holder < 0) {
            holder = ti;
            --cache_[cache_off_[l - 1] + c].free_kids;
            ++got;
          }
        }
      }
      if (l == L_) top_min_dirty_ = true;
    } else {
      ts.anchored = true;
    }
    core_->stats().misses[l - 1] += S;
    ++core_->stats().anchors;
    if (l == 1) {
      enqueue_unit(ti);
    } else {
      // A child still waiting on an external arrow is tried when the last
      // one is satisfied (on_task_ready); no drain can satisfy it.
      for (int c : dag_->task_children(l, ti))
        if (core_->task_ext(l - 1, c) == 0) to_try_.push_back({l - 1, c});
    }
  }

  /// Moves level-l batch tasks that would fail again straight back to the
  /// pending list, in the order their retries would have put them there;
  /// stops at the first that needs a real retry.
  void requeue_blocked(std::size_t l) {
    BlockedList& b = batch_[l - 1];
    BlockedList& p = pending_[l - 1];
    // A batch whose smallest task fits no freed cache fails as a whole,
    // and comes back reversed.
    bool all_fail = true;
    for (std::uint32_t k : freed_[l - 1])
      all_fail = all_fail && !fits(l, k, b.min_size());
    if (all_fail) {
      p.append_reversed(b);
      return;
    }
    while (!b.empty() && still_blocked(l, b.back())) {
      p.push_back(b.back());
      b.pop_back();
    }
  }

  void drain_anchor_worklist() {
    while (!to_try_.empty()) {
      const Try t = to_try_.back();
      if (t.task != kBatch) {
        to_try_.pop_back();
        try_anchor(t.level, t.task);
        continue;
      }
      // A batch marker stays on the work-list until its batch is spent,
      // so tasks a success pushes run before the batch's next one — the
      // order of one entry per task.
      requeue_blocked(t.level);
      BlockedList& b = batch_[t.level - 1];
      if (b.empty()) {
        to_try_.pop_back();
        continue;
      }
      const int ti = b.back().task;
      b.pop_back();
      task_[flat(t.level, ti)].in_pending = false;
      try_anchor(t.level, ti);
    }
    for (std::vector<std::uint32_t>& f : freed_) f.clear();
  }

  SimCore* core_ = nullptr;
  const CondensedDag* dag_ = nullptr;
  const Pmh* m_ = nullptr;
  std::size_t L_ = 0;
  double alpha_prime_ = 1.0;
  // The core's cached distributed-charge table (valid for this run's
  // (dag, machine, charge) binding — no per-run copy).
  const std::vector<double>* unit_dur_ = nullptr;

  struct TaskState {
    int anchor_cache = -1;  ///< cache index at the task's level
    bool anchored = false;
    bool in_pending = false;  ///< in pending_ or batch_ of its level
  };
  struct CacheState {
    double used = 0.0;   ///< anchored footprint
    int leased_to = -1;  ///< level-(l+1) task leasing it, or -1
    int free_kids = 0;   ///< unleased level-(l-1) subclusters
    int q_head = -1;     ///< run queue, threaded through next_unit_
    int q_tail = -1;
  };

  // Per task, flat (level, task) arena.
  std::vector<TaskState> task_;

  // Per cache, flat (level, cache) arena at cache_off_, plus memory's slot.
  std::vector<std::size_t> cache_off_;  // [l-1]; [L] = number of caches
  std::vector<double> cap_;             // [l-1] = σM_l
  std::vector<std::size_t> fan_;        // [l-1] = level l's fan-out
  std::vector<std::size_t> ppc_;        // [l-1] = processors per cache
  std::vector<CacheState> cache_;
  double top_min_ = 0.0;
  bool top_min_dirty_ = true;

  // Run queues: each processor's scan order over the caches' queues.
  std::vector<int> next_unit_;
  std::vector<int> proc_q_;  // [p * (L+1) + i]

  // Anchoring work-list and capacity-blocked tasks.
  std::vector<Try> to_try_;
  std::vector<BlockedList> pending_;  // [l-1], in blocking order
  std::vector<BlockedList> batch_;    // [l-1], retried from the back
  // Caches released since the last drain, per level: the only ones a
  // blocked task of that level can newly fit.
  std::vector<std::vector<std::uint32_t>> freed_;
};

}  // namespace

namespace detail {
void register_sb_scheduler() {
  register_scheduler(
      "sb", "space-bounded: anchoring + boundedness + allocation (Sec. 4)",
      [](const SchedOptions& opts) -> std::unique_ptr<Scheduler> {
        return std::make_unique<SbScheduler>(opts);
      },
      /*deadline_aware=*/false, /*seeded=*/false);
}
}  // namespace detail

double sb_balanced_bound(const SpawnTree& tree, const Pmh& machine,
                         double sigma) {
  double cost = tree.work_of(tree.root());
  for (std::size_t l = 1; l <= machine.num_cache_levels(); ++l)
    cost += parallel_cache_complexity(tree, sigma * machine.cache_size(l)) *
            machine.miss_cost(l);
  return cost / double(machine.num_processors());
}

}  // namespace ndf
