// The sweep runner: expands a Scenario's grid and executes every point,
// sharing one CondensedDag across everything that can share it — all
// policies, repeats, α' values and machines with the same cache-size
// profile reuse the condensation built for their (workload, σ). The
// pre-split code rebuilt it inside every run; on a 4-policy × 7-machine
// scaling sweep that was 28 elaborations+decompositions instead of 1.
//
// Each distinct simulation also runs once (plan_runs): a seed-free
// policy's repeats differ only in a seed it never reads, so they are one
// run and every repeat row takes its stats.
//
// Execution is the shared grid runner (exp/grid.hpp): every workload is
// built once, every condensation the plan names is built once, then the
// runs go in contiguous chunks, each chunk cycling its runs through one
// reused SimCore (reset() per run keeps every arena's capacity). Each run
// writes only its own slot, and the rows are then filled in expand_grid
// order, so emitter output is byte-identical at every `--jobs` value —
// `--jobs=1` runs the same three phases on the calling thread.
//
// condensations_built() and runs() expose the actual build and simulation
// counts so tests can assert the reuse invariants ("exactly once per
// workload × σ × cache profile", "once per seed-free repeat axis"). A run
// that throws leaves the object fully reset (no results, zero counts) and
// a later run() retries from scratch.
#pragma once

#include <cstddef>

#include "exp/grid.hpp"
#include "exp/scenario.hpp"

namespace ndf::exp {

class Sweep {
 public:
  /// `jobs` is the worker count for grid execution: 0 (the default) means
  /// one worker per hardware thread, 1 runs everything on the calling
  /// thread, and any value is clamped to the number of distinct runs so
  /// tiny sweeps don't spawn threads they cannot feed.
  explicit Sweep(Scenario s, std::size_t jobs = 0)
      : scenario_(std::move(s)), jobs_(jobs) {}

  /// Expands and executes the grid (first call; later calls return the
  /// cached results). Points are emitted in expand_grid order.
  const std::vector<RunPoint>& run();

  const Scenario& scenario() const { return scenario_; }
  /// Results so far (empty before run()).
  const std::vector<RunPoint>& results() const { return results_; }
  /// Number of CondensedDags this sweep built (== distinct
  /// workload × σ × cache-size-profile combinations touched). Zero until
  /// a run completes — a failed run does not report a partial count.
  std::size_t condensations_built() const { return condensations_; }
  /// Number of distinct simulations this sweep ran (plan_runs): every
  /// seeded cell plus one per repeat axis of each seed-free point. Zero
  /// until a run completes.
  std::size_t runs() const { return runs_; }
  /// Per-phase wall-clock of the completed run (zeros before/without one).
  const PhaseTimes& phase_times() const { return phase_times_; }
  /// Per-worker busy/idle accounting of the completed run's thread pool
  /// (empty before a run, and when it ran on the calling thread — there
  /// are no workers).
  const std::vector<ThreadPool::WorkerStats>& worker_stats() const {
    return worker_stats_;
  }
  /// The worker count requested at construction (0 = auto).
  std::size_t jobs() const { return jobs_; }

 private:
  Scenario scenario_;
  std::size_t jobs_ = 0;
  std::vector<RunPoint> results_;
  std::size_t runs_ = 0;
  std::size_t condensations_ = 0;
  PhaseTimes phase_times_;
  std::vector<ThreadPool::WorkerStats> worker_stats_;
  bool ran_ = false;
};

}  // namespace ndf::exp
