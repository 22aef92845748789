// The sweep runner: expands a Scenario's grid and executes every point,
// sharing one CondensedDag across everything that can share it — all
// policies, repeats, α' values and machines with the same cache-size
// profile reuse the condensation built for their (workload, σ). The
// pre-split code rebuilt it inside every run; on a 4-policy × 7-machine
// scaling sweep that was 28 elaborations+decompositions instead of 1.
//
// Execution is the shared grid runner (exp/grid.hpp): every workload is
// built once, every condensation the plan names is built once, then the
// cells run in contiguous chunks, each chunk cycling its cells through one
// reused SimCore (reset() per cell keeps every arena's capacity). Each
// cell writes only its own slot, so results are in expand_grid order and
// emitter output is byte-identical at every `--jobs` value — `--jobs=1`
// runs the same three phases on the calling thread.
//
// condensations_built() exposes the actual build count so tests can assert
// the reuse invariant ("exactly once per workload × σ × cache profile").
// A run that throws leaves the object fully reset (no results, zero
// condensations) and a later run() retries from scratch.
#pragma once

#include <cstddef>

#include "exp/grid.hpp"
#include "exp/scenario.hpp"

namespace ndf::exp {

class Sweep {
 public:
  /// `jobs` is the worker count for grid execution: 0 (the default) means
  /// one worker per hardware thread, 1 runs everything on the calling
  /// thread, and any value is clamped to the grid size so tiny sweeps don't
  /// spawn threads they cannot feed.
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
  std::size_t condensations_ = 0;
  PhaseTimes phase_times_;
  std::vector<ThreadPool::WorkerStats> worker_stats_;
  bool ran_ = false;
};

}  // namespace ndf::exp
