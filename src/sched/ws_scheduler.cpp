// Randomized work-stealing scheduler baseline (Blumofe-Leiserson style) on
// the PMH simulator, for the SB-vs-WS locality comparison the paper invokes
// from [47, 48]; a policy on the shared core (sched/sim_core.hpp),
// registered as "ws".
//
// Scheduling granularity is the same σM1-maximal atomic unit used by the SB
// simulator, so makespans and miss counts are directly comparable. Each
// processor owns a LIFO deque of ready units; idle processors steal the
// oldest unit from a uniformly random victim.
//
// Cache model ("task-footprint model", DESIGN.md): each processor tracks,
// per cache level l, which level-l maximal task's footprint is resident in
// the level-l cache above it; executing a unit from a different level-l
// task reloads that task's footprint (s(t) misses at level l, latency
// s(t)·Cl added to the unit). Work stealing scatters units of the same
// task across the machine, which is exactly the locality loss the SB
// scheduler's anchoring avoids.
#include <deque>
#include <memory>

#include "sched/registry.hpp"
#include "support/rng.hpp"

namespace ndf {

namespace {

/// The "ws" policy: per-processor LIFO deques, random victim selection,
/// and the task-footprint reload model.
///
/// The reload model below is the *charged* one (it sets unit durations and
/// the legacy misses/miss_cost stats). Under SchedOptions::measure_misses
/// the core additionally runs every assignment through the shared LRU
/// occupancy layer (pmh/occupancy.hpp), which unlike the per-processor
/// `resident_` approximation models capacity and sharing in multi-core
/// caches — that measured Q_i is what exceeds the paper's Q*(sigma*Mi)
/// bound when stealing scatters footprints.
class WsScheduler final : public Scheduler {
 public:
  explicit WsScheduler(const SchedOptions&) {}

  const char* name() const override { return "ws"; }

  void init(SimCore& core) override {
    core_ = &core;
    opts_ = core.options();
    rng_ = Rng(opts_.seed);
    deque_.resize(core.machine().num_processors());
    for (std::deque<int>& d : deque_) d.clear();
    queued_ = 0;
    resident_.assign(core.machine().num_processors(),
                     std::vector<int>(core.num_levels(), -2));
    ready_.clear();
  }

  void on_start() override {
    // Dependency-free units seed processor 0's deque.
    for (int u : core_->initially_ready_units()) deque_[0].push_back(u);
    queued_ = deque_[0].size();
  }

  void on_task_ready(std::size_t level, int task) override {
    if (level == 1) ready_.push_back(task);
  }

  void on_unit_complete(std::size_t proc, int) override {
    for (int u : ready_) deque_[proc].push_back(u);
    queued_ += ready_.size();
    ready_.clear();
  }

  /// Own deque first (LIFO), then steal the oldest unit from a random
  /// victim (one round of up to 2p attempts).
  Assignment pick(std::size_t proc, double) override {
    const std::size_t np = core_->machine().num_processors();
    if (queued_ == 0) {
      // Every deque is empty, so the round below would draw all 2p
      // victims and find nothing: draw them (the steal order of later
      // picks depends on the stream) and skip the probing.
      for (std::size_t tries = 0; tries < 2 * np; ++tries) rng_();
      return {};
    }
    --queued_;  // some deque is non-empty, so this pick takes a unit
    int u = -1;
    bool stolen = false;
    if (!deque_[proc].empty()) {
      u = deque_[proc].back();
      deque_[proc].pop_back();
    } else {
      for (std::size_t tries = 0; tries < 2 * np && u < 0; ++tries) {
        const std::size_t victim = rng_.below(np);
        if (victim != proc && !deque_[victim].empty()) {
          u = deque_[victim].front();
          deque_[victim].pop_front();
          stolen = true;
          ++core_->stats().steals;
        }
      }
      // Deterministic sweep so an unlucky random round cannot strand a
      // ready unit with every processor idle (the simulator has no
      // retry tick).
      for (std::size_t victim = 0; victim < np && u < 0; ++victim)
        if (victim != proc && !deque_[victim].empty()) {
          u = deque_[victim].front();
          deque_[victim].pop_front();
          stolen = true;
          ++core_->stats().steals;
        }
    }
    NDF_CHECK(u >= 0);
    const double dur = core_->unit_work(u) + touch_caches(proc, u) +
                       (stolen ? opts_.steal_cost : 0.0);
    return {u, dur};
  }

 private:
  /// Charges context-switch misses for running unit u on processor p;
  /// returns the added latency.
  double touch_caches(std::size_t p, int u) {
    double lat = 0.0;
    const CondensedDag& dag = core_->dag();
    for (std::size_t l = 1; l <= core_->num_levels(); ++l) {
      const int t = dag.unit_task(l, u);
      if (resident_[p][l - 1] == t) continue;
      resident_[p][l - 1] = t;
      const double s = dag.task_size(l, t);
      core_->stats().misses[l - 1] += s;
      if (opts_.charge_misses) lat += s * core_->machine().miss_cost(l);
    }
    return lat;
  }

  SchedOptions opts_;  // this run's, from the core
  SimCore* core_ = nullptr;

  std::vector<std::deque<int>> deque_;     // per processor
  std::vector<std::vector<int>> resident_; // resident_[p][l-1] = task id
  std::vector<int> ready_;                 // units readied since last pick
  std::size_t queued_ = 0;                 // units in all deques
  Rng rng_;
};

}  // namespace

namespace detail {
void register_ws_scheduler() {
  register_scheduler(
      "ws",
      "randomized work stealing: LIFO deques + footprint-reload model",
      [](const SchedOptions& opts) -> std::unique_ptr<Scheduler> {
        return std::make_unique<WsScheduler>(opts);
      });
}
}  // namespace detail

}  // namespace ndf
