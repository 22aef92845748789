// Structured event tracing: the typed event vocabulary every layer of the
// simulator can emit into, and the sink interface that receives it.
//
// A TraceSink is attached per run via SchedOptions::sink (and per service
// scenario via ServeScenario::trace_sink). Emission is strictly
// observational: no simulator decision, duration, counter or emitter
// output may depend on whether a sink is attached — stats and all
// table/JSON/CSV outputs are byte-identical with tracing on or off
// (CI-gated by scripts/ci_gate.py sweep and serve). When no sink
// is attached the hot paths pay exactly one null-pointer test.
//
// Event families (docs/observability.md has the full schema):
//   - unit:        an atomic unit executed [start, end) on a processor.
//   - queue-wait:  the gap between a unit's last external dependence being
//                  satisfied (ready) and its dispatch onto a processor.
//   - cache:       the simulated occupancy layer's hits, misses, evictions
//                  and sb pin/unpin reservations (pmh/occupancy.hpp).
//                  Attaching a sink turns the occupancy simulation on even
//                  without --misses; the measured-Q stats stay suppressed
//                  so outputs are unchanged.
//   - job:         service-mode lifecycle (src/serve/): arrival, admission,
//                  completion, deadline miss, in global service time.
//
// All hooks have empty default bodies so a sink subscribes only to the
// families it cares about. Times are simulated machine time (the same unit
// as makespan); ids are raw integers so this header stays dependency-free.
#pragma once

#include <cstdint>

namespace ndf::obs {

/// What happened in a simulated cache (pmh/occupancy.hpp).
enum class CacheEvent : std::uint8_t {
  kHit,    ///< footprint found resident; no traffic
  kMiss,   ///< footprint loaded; `words` of reload traffic (the Q_i unit)
  kEvict,  ///< a resident or reserved footprint was evicted for capacity
  kPin,    ///< sb anchored a task: its footprint is reserved, evict-proof
  kUnpin,  ///< the reservation was released (task complete)
};

/// Service-mode job lifecycle (src/serve/engine.cpp).
enum class JobEvent : std::uint8_t {
  kArrival,       ///< the job entered the admission queue
  kAdmit,         ///< the machine picked it; execution starts
  kComplete,      ///< last unit finished
  kDeadlineMiss,  ///< completed after its absolute deadline
};

/// Receiver of trace events. All hooks default to no-ops; implementations
/// must not throw. A sink is driven from exactly one simulation at a time
/// (the sweep engines trace only grid cell 0), so implementations need no
/// internal locking.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// Atomic unit `unit` (spawn-tree root node `root`) ran [start, end) on
  /// processor `proc`.
  virtual void on_unit(double start, double end, std::uint32_t proc,
                       std::int64_t unit, std::int64_t root) {
    (void)start, (void)end, (void)proc, (void)unit, (void)root;
  }

  /// Unit `unit` became ready (last external dependence satisfied) at
  /// `ready` and was dispatched onto `proc` at `start`; the difference is
  /// its dispatch-queue wait. Emitted once per unit, at dispatch.
  virtual void on_queue_wait(double ready, double start, std::uint32_t proc,
                             std::int64_t unit) {
    (void)ready, (void)start, (void)proc, (void)unit;
  }

  /// Cache event at time `t` in the level-`level` cache with index `cache`:
  /// footprint key `task`, `words` of (line-quantized) footprint, and the
  /// cache's total resident+reserved words after the event (`used_after`,
  /// the occupancy counter-track sample).
  virtual void on_cache(CacheEvent kind, double t, std::uint32_t level,
                        std::uint32_t cache, std::int64_t task, double words,
                        double used_after) {
    (void)kind, (void)t, (void)level, (void)cache, (void)task, (void)words,
        (void)used_after;
  }

  /// Service-mode job event at global service time `t`: job stream index
  /// `job`, tenant id `tenant`, and a label (the tenant name for kArrival,
  /// the workload label for kAdmit, empty otherwise). `label` is only
  /// valid for the duration of the call — copy it.
  virtual void on_job(JobEvent kind, double t, std::int64_t job,
                      std::uint32_t tenant, const char* label) {
    (void)kind, (void)t, (void)job, (void)tenant, (void)label;
  }
};

/// Forwards every event to an inner sink with all timestamps shifted by a
/// fixed offset. The service engine wraps each job's SimCore run in one of
/// these (offset = the job's admission time) so a whole stream's events
/// land on one global service-time axis even though every job's simulation
/// starts its local clock at zero.
class OffsetSink final : public TraceSink {
 public:
  OffsetSink(TraceSink* inner, double offset)
      : inner_(inner), offset_(offset) {}

  void on_unit(double start, double end, std::uint32_t proc,
               std::int64_t unit, std::int64_t root) override {
    inner_->on_unit(start + offset_, end + offset_, proc, unit, root);
  }
  void on_queue_wait(double ready, double start, std::uint32_t proc,
                     std::int64_t unit) override {
    inner_->on_queue_wait(ready + offset_, start + offset_, proc, unit);
  }
  void on_cache(CacheEvent kind, double t, std::uint32_t level,
                std::uint32_t cache, std::int64_t task, double words,
                double used_after) override {
    inner_->on_cache(kind, t + offset_, level, cache, task, words,
                     used_after);
  }
  void on_job(JobEvent kind, double t, std::int64_t job, std::uint32_t tenant,
              const char* label) override {
    inner_->on_job(kind, t + offset_, job, tenant, label);
  }

 private:
  TraceSink* inner_;
  double offset_;
};

}  // namespace ndf::obs
