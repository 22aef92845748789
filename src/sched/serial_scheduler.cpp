// "serial" policy: the depth-first serial elision — every atomic unit runs
// on processor 0, and among ready units the leftmost in spawn-tree
// (depth-first) order runs first. The determinism baseline: its makespan is
// exactly total_work + miss_cost on any machine, and its unit order is the
// order a single-processor depth-first execution would produce (atomic
// units are indexed in spawn-tree order, so "smallest ready index" is
// depth-first order restricted to the dependence constraints).
//
// Cache model: the same distributed optimal-replacement charge as "sb" and
// "greedy" (DESIGN.md), so serial/p is the Eq. (22) balance reference for
// any of them. With SchedOptions::measure_misses the LRU occupancy layer
// reports the depth-first execution's actual reloads through processor
// 0's cache path — the sequential cache complexity the paper's Q(t; M)
// generalizes.
#include <memory>
#include <queue>

#include "sched/registry.hpp"

namespace ndf {

namespace {

class SerialScheduler final : public Scheduler {
 public:
  explicit SerialScheduler(const SchedOptions&) {}

  const char* name() const override { return "serial"; }

  void init(SimCore& core) override {
    core_ = &core;
    unit_dur_ = &core.distributed_unit_durations();
    core.charge_condensed_footprints();
    ready_ = {};
    // Only processor 0 ever takes a unit.
    reach_.reset(core.machine().num_processors());
  }

  void on_start() override {
    for (int u : core_->initially_ready_units()) ready_.push(u);
    if (!ready_.empty()) reach_.add(0, 1, +1);
  }

  void on_task_ready(std::size_t level, int task) override {
    if (level != 1) return;
    if (ready_.empty()) reach_.add(0, 1, +1);
    ready_.push(task);
  }

  Assignment pick(std::size_t proc, double) override {
    if (proc != 0 || ready_.empty()) return {};
    const int u = ready_.top();
    ready_.pop();
    if (ready_.empty()) reach_.add(0, 1, -1);
    return {u, (*unit_dur_)[u]};
  }

 private:
  SimCore* core_ = nullptr;
  const std::vector<double>* unit_dur_ = nullptr;  // core's cached table
  std::priority_queue<int, std::vector<int>, std::greater<int>> ready_;
};

}  // namespace

namespace detail {
void register_serial_scheduler() {
  register_scheduler(
      "serial", "depth-first serial elision on processor 0 (determinism "
                "baseline)",
      [](const SchedOptions& opts) -> std::unique_ptr<Scheduler> {
        return std::make_unique<SerialScheduler>(opts);
      },
      /*deadline_aware=*/false, /*seeded=*/false);
}
}  // namespace detail

}  // namespace ndf
