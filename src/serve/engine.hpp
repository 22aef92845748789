// The open-arrivals service engine: multiplexes a stream of DAG jobs from
// many tenants onto one PMH machine and reports service metrics —
// throughput, per-tenant fairness, p50/p99/p999 job latency — instead of a
// single batch makespan.
//
// Model: non-preemptive run-to-completion admission. Jobs wait in an
// admission queue from their arrival; whenever the machine is free, the
// admission order picks the next job — arrival order (FIFO) for the
// classic policies, earliest-absolute-deadline first for policies
// registered deadline-aware (`edf`), ties broken by arrival time then
// submission index. The admitted job runs alone on the whole machine
// through the shared discrete-event core: one SimCore per cell is
// reset()-rebound per simulated job, so serving a thousand jobs allocates
// like serving one. Job latency = completion − arrival, queueing included.
//
// Cost model: a job's stats are a function of its workload, σ, α′, the
// machine and its seed — plus, with --misses, the cache state earlier jobs
// left behind. So a cell whose policy ignores the seed (sb, greedy, edf,
// serial: SchedulerInfo::seeded), that does not measure misses and that
// carries no trace sink simulates each distinct workload once, and every
// later job of that workload takes the stored stats; only its admission,
// queueing and completion times are its own. A seeded cell (ws), a
// measured one and the traced cell 0 simulate every job.
// ServeSweep::simulations() counts the simulations a run took.
//
// Measured occupancy (--misses): the simulated caches persist *across*
// jobs (SchedOptions::keep_occupancy), so each job starts in whatever
// state the previous tenants left the hierarchy in. Footprint keys are
// namespaced per (tenant, workload): different tenants can never
// false-hit each other's data, while a tenant's repeat jobs over the same
// workload can hit lines still warm from earlier jobs. Each JobRecord
// carries the per-job *delta* of every level's measured misses — the Q_i
// attributable to that tenant's job, directly comparable against the
// job's own Q* bound.
//
// The grid (machines × σ × policies) runs on the same grid runner as
// src/exp (exp/grid.hpp): cells sharing a (workload, σ, cache-profile)
// share one condensation, cells fan out in chunks, each cell writes only
// its own pre-sized slot, and output is byte-identical at every `jobs`
// worker count (tested, CI-gated).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "pmh/cache_model.hpp"
#include "serve/arrivals.hpp"

namespace ndf::serve {

/// A service scenario: one job stream × machines × σ × policies.
struct ServeScenario {
  std::string name = "serve";
  /// Open stream (trace or expanded poisson), in any order; the engine
  /// serves arrivals in (arrival, index) order. May be empty (an idle
  /// service reports zero throughput, not an error).
  std::vector<JobSpec> jobs;
  /// Closed-loop generator instead of `jobs` (arrivals depend on service
  /// times); requires a non-empty `mix`.
  std::optional<ArrivalSpec> closed;
  std::vector<exp::WorkloadSpec> mix;  ///< closed-loop workload rotation
  std::vector<std::string> machines;   ///< pmh specs (pmh/presets.hpp)
  std::vector<std::string> policies;   ///< registry names; deadline-aware
                                       ///< ones get EDF-over-jobs admission
  std::vector<double> sigmas{1.0 / 3.0};
  double alpha_prime = 1.0;
  std::uint64_t base_seed = 42;  ///< job i runs with seed base_seed + i
  bool charge_misses = true;
  bool measure_misses = false;  ///< persistent occupancy + per-job Q_i
  /// Cache model for the persistent occupancy (`--cache=` spec,
  /// pmh/cache_model.hpp). A single model, not an axis: the service caches
  /// persist across jobs, so a model change means a different machine
  /// state history, not a comparable cell. Default keeps all output
  /// byte-identical to the pre-registry engine.
  CacheModelSpec cache_model;
  /// Structured tracing (`--trace-out`): the sink attached to grid cell 0
  /// only (one cell = one worker, so the sink needs no locking). Job
  /// lifecycle events arrive in global service time; each admitted job's
  /// simulation events are shifted onto the same axis (obs::OffsetSink).
  /// Observational only: all reports stay byte-identical. Not owned.
  obs::TraceSink* trace_sink = nullptr;
  /// `--progress`: stderr heartbeat while the grid runs (`--soak` cells
  /// are slow; this is the only sign of life). stdout is unaffected.
  bool progress = false;
};

/// One served job: the resolved spec plus its service trajectory. 144
/// bytes on LP64 (the JobSpec's 64 with its interned workload handle,
/// serve/arrivals.hpp, plus 80): one is written per job and cell.
struct JobRecord {
  JobSpec job;
  double start = 0.0;       ///< admission (= execution start) time
  double completion = 0.0;  ///< start + service
  double latency = 0.0;     ///< completion − arrival (queueing included)
  double service = 0.0;     ///< the job's makespan on the whole machine
  double utilization = 0.0; ///< processor utilization while it ran
  bool deadline_met = true; ///< false only when it had one and missed it
  /// Per-level measured misses attributable to this job (delta of the
  /// persistent occupancy counters); empty unless measuring.
  std::vector<double> measured_misses;
  double comm_cost = 0.0;   ///< Σ level delta · C_level (0 unless measuring)
};

/// Aggregates of one grid cell's completed stream.
struct ServeSummary {
  std::size_t completed = 0;
  double horizon = 0.0;      ///< completion time of the last job
  double throughput = 0.0;   ///< completed / horizon
  double utilization = 0.0;  ///< Σ busy time / (p · horizon)
  double latency_mean = 0.0;
  /// Nearest-rank percentiles of job latency (docs/metrics.md).
  double latency_p50 = 0.0, latency_p99 = 0.0, latency_p999 = 0.0;
  double latency_max = 0.0;
  std::size_t tenants = 0;
  /// Max/min per-tenant service share — 1.0 is perfectly fair, larger is
  /// more skewed. 1.0 when at most one tenant completed anything.
  double fairness = 1.0;
  std::size_t with_deadline = 0, deadline_misses = 0;
  /// Per-level measured miss totals over the whole stream (empty unless
  /// measuring), and their total cost.
  std::vector<double> measured_misses;
  double comm_cost = 0.0;
  /// Streaming histograms over the cell's jobs (obs/metrics.hpp), emitted
  /// under the JSON report's `metrics` key: `latency` (completion −
  /// arrival) and `queue_wait` (admission start − arrival). Always filled;
  /// the exact nearest-rank percentiles above remain the summary columns.
  obs::MetricsRegistry metrics;
};

/// One executed grid cell: coordinates, the served jobs in execution
/// order, and the aggregates.
struct ServeCell {
  std::string machine;       ///< the spec string the scenario named
  std::string machine_desc;  ///< Pmh::to_string() of the built machine
  std::string policy;
  /// Cache-model label when the scenario serves under a non-default model;
  /// empty otherwise (emitters gate their `cache` column on it).
  std::string cache;
  double sigma = 1.0 / 3.0;
  std::vector<JobRecord> jobs;  ///< in execution (admission) order
  ServeSummary summary;
};

/// |machines| · |sigmas| · |policies|.
std::size_t serve_grid_size(const ServeScenario& s);

/// Checks axes, registry names, machine specs, σ/α' ranges, and stream
/// coherence (closed needs a mix; arrivals finite). Throws CheckError.
void validate(const ServeScenario& s);

/// The serve runner. Expands machines × σ × policies, builds each distinct
/// workload and each (workload, σ, cache-profile) condensation exactly
/// once, then executes every cell's full service simulation through the
/// grid runner, with byte-identical results at any worker count.
class ServeSweep {
 public:
  /// `jobs` is the worker count: 0 = hardware concurrency, 1 = everything
  /// on the calling thread; clamped to the cell count.
  explicit ServeSweep(ServeScenario s, std::size_t jobs = 0)
      : scenario_(std::move(s)), jobs_(jobs) {}

  /// Expands and executes the grid (first call; later calls return the
  /// cached results). Cells are in machine-major, then σ, then policy
  /// order. A run that throws leaves the object fully reset.
  const std::vector<ServeCell>& run();

  const ServeScenario& scenario() const { return scenario_; }
  const std::vector<ServeCell>& results() const { return results_; }
  /// CondensedDags built (== distinct workload × σ × cache-profile
  /// combinations). Zero until a run completes.
  std::size_t condensations_built() const { return condensations_; }
  /// Job simulations run: one per job of a seeded, measured or traced
  /// cell, one per distinct workload of any other cell. Zero until a run
  /// completes.
  std::size_t simulations() const { return simulations_; }
  std::size_t jobs() const { return jobs_; }

 private:
  ServeScenario scenario_;
  std::size_t jobs_ = 0;
  std::vector<ServeCell> results_;
  std::size_t condensations_ = 0;
  std::size_t simulations_ = 0;
  bool ran_ = false;
};

}  // namespace ndf::serve
