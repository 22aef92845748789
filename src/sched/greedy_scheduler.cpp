// "greedy" policy: a centralized Brent-style greedy scheduler — one global
// FIFO queue of ready atomic units; any idle processor takes the next unit.
// No anchoring, no capacity constraints, no stealing.
//
// Cache model: the distributed optimal-replacement charge of the SB
// accounting (each maximal task's footprint loaded exactly once, latency
// spread uniformly over its units), so total busy time is exactly
// T1 + Σi Q(t;σMi)·Ci — the numerator of the Eq. (22) balanced reference.
// Greedy therefore makes Eq. (22) executable: its makespan is bounded below
// by (total_work + miss_cost)/p and shows how close a schedule with ideal
// locality but no locality *constraints* gets to perfect balance.
//
// Under SchedOptions::measure_misses the core also reports what that
// "ideal locality" charge hides: the simulated LRU occupancy layer
// (pmh/occupancy.hpp) measures the reloads a global FIFO actually incurs
// when consecutive units land on unrelated caches.
//
// "edf" is the same class registered a second time, as the deadline-aware
// entry of the registry (after the sledge-serverless SCHEDULER_EDF
// option). Deadlines live on *jobs* (the service mode's admission unit,
// src/serve/), not on atomic units, so the policy splits across the two
// layers:
//
//   - Admission (service mode): the registration's deadline_aware flag
//     makes the serve engine order queued jobs earliest-absolute-deadline
//     first — non-preemptive EDF over job DAGs, ties broken by arrival
//     time then submission index. Jobs without a deadline sort last.
//   - Unit order (inside one job, and in batch sweeps where there is no
//     job stream): a single DAG has no deadlines to compare, so the unit
//     discipline is greedy's. Batch edf stats are therefore bit-identical
//     to greedy's (tested).
#include <memory>

#include "sched/registry.hpp"

namespace ndf {

namespace {

class GreedyScheduler final : public Scheduler {
 public:
  explicit GreedyScheduler(const char* name) : name_(name) {}

  const char* name() const override { return name_; }

  void init(SimCore& core) override {
    core_ = &core;
    unit_dur_ = &core.distributed_unit_durations();
    core.charge_condensed_footprints();
    ready_.clear();
    ready_.reserve(core.num_units());
    head_ = 0;
    // One queue every processor takes from.
    reach_.reset(core.machine().num_processors());
  }

  void on_start() override {
    for (int u : core_->initially_ready_units()) ready_.push_back(u);
    if (!ready_.empty()) reach_.add_shared(+1);
  }

  void on_task_ready(std::size_t level, int task) override {
    if (level != 1) return;
    if (head_ == ready_.size()) reach_.add_shared(+1);
    ready_.push_back(task);
  }

  Assignment pick(std::size_t, double) override {
    if (head_ == ready_.size()) return {};
    const int u = ready_[head_++];
    if (head_ == ready_.size()) reach_.add_shared(-1);
    return {u, (*unit_dur_)[u]};
  }

 private:
  const char* name_;
  SimCore* core_ = nullptr;
  const std::vector<double>* unit_dur_ = nullptr;  // core's cached table
  // Global FIFO: every unit is queued once per run, so a vector read from
  // head_ never needs to give entries back.
  std::vector<int> ready_;
  std::size_t head_ = 0;
};

}  // namespace

namespace detail {
void register_greedy_scheduler() {
  register_scheduler(
      "greedy",
      "centralized Brent-style greedy: global FIFO, Eq. (22) miss charge",
      [](const SchedOptions&) -> std::unique_ptr<Scheduler> {
        return std::make_unique<GreedyScheduler>("greedy");
      },
      /*deadline_aware=*/false, /*seeded=*/false);
  register_scheduler(
      "edf",
      "deadline-aware: EDF-over-jobs admission in service mode; greedy "
      "unit order within a job",
      [](const SchedOptions&) -> std::unique_ptr<Scheduler> {
        return std::make_unique<GreedyScheduler>("edf");
      },
      /*deadline_aware=*/true, /*seeded=*/false);
}
}  // namespace detail

}  // namespace ndf
