// Declarative sweep description: the full experiment grid
//
//   workloads × sigmas × machines × cache models × alpha' × policies ×
//   repeats
//
// and its deterministic expansion order. The order is chosen so that
// everything sharing one condensation (a workload at a σ, across machines
// with the same cache-size profile, all cache models, all policies, all
// repeats) is contiguous — the Sweep runner walks the expansion linearly
// and builds each CondensedDag exactly once. Cache models are deliberately
// *absent* from the condensation dedup key: a condensation depends only on
// the cache-size profile, so sweeping replacement policies multiplies the
// grid without multiplying the dags.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/grid.hpp"
#include "exp/workload.hpp"
#include "sched/sim_core.hpp"

namespace ndf {
class Pmh;
}

namespace ndf::exp {

struct Scenario {
  std::string name = "sweep";
  std::vector<WorkloadSpec> workloads;
  std::vector<std::string> machines;  ///< pmh specs (pmh/presets.hpp)
  std::vector<std::string> policies;  ///< registry names (sched/registry.hpp)
  std::vector<double> sigmas{1.0 / 3.0};
  std::vector<double> alpha_primes{1.0};
  std::size_t repeats = 1;        ///< seed axis: seeds base_seed..+repeats-1
  std::uint64_t base_seed = 42;   ///< seed of repeat 0
  bool charge_misses = true;
  /// Simulate cache occupancy in every run and report measured Q_i /
  /// comm_cost (extra columns in every emitter). Off by default: legacy
  /// sweep output stays byte-identical unless asked for (`--misses`).
  bool measure_misses = false;
  /// Cache-model axis for the measured occupancy (`--cache=` specs,
  /// pmh/cache_model.hpp). Defaults to the single ideal LRU model, which
  /// keeps grid size, expansion order and emitter output byte-identical
  /// to a scenario without the axis. Only meaningful with measure_misses.
  std::vector<CacheModelSpec> cache_models{CacheModelSpec{}};
  double steal_cost = 0.0;
  /// Structured tracing (`--trace-out`): the sink attached to grid cell 0
  /// — and only cell 0; a grid-wide trace would interleave cells — on both
  /// execution paths. Observational only: results and emitter output stay
  /// byte-identical (CI-gated). Not owned.
  obs::TraceSink* trace_sink = nullptr;
  /// `--progress`: stderr heartbeat (phase, cells done/total, ETA) while
  /// the sweep runs. stdout emitters are unaffected.
  bool progress = false;
};

/// One grid point, as indices into the scenario's axes (repeat is the
/// 0-based repeat number).
struct GridPoint {
  std::size_t workload = 0;
  std::size_t sigma = 0;
  std::size_t machine = 0;
  std::size_t cache = 0;  ///< index into scenario.cache_models
  std::size_t alpha = 0;
  std::size_t policy = 0;
  std::size_t repeat = 0;
};

/// |workloads| · |sigmas| · |machines| · |cache_models| · |alpha_primes| ·
/// |policies| · repeats.
std::size_t grid_size(const Scenario& s);

/// Expands the grid in condensation-friendly order: workload-major, then
/// sigma, machine, cache model, alpha', policy, repeat (innermost).
std::vector<GridPoint> expand_grid(const Scenario& s);

/// Checks every axis is non-empty, every policy name is registered, and
/// every cache model names a registered replacement policy. (Workload and
/// machine specs are validated by their parsers when the scenario is built
/// from strings.) Throws CheckError otherwise.
void validate(const Scenario& s);

/// Scheduler options for one grid point.
SchedOptions point_options(const Scenario& s, const GridPoint& g);

/// The condensations a grid needs, computed up front: one key per distinct
/// workload × σ × cache-size profile, in first-use grid order, plus each
/// grid cell's index into them. The grid runner (exp/grid.hpp) builds
/// `keys` once each, then fans the cells out against the shared immutable
/// dags; `keys.size()` is the sweep's build count.
struct CondensationPlan {
  std::vector<CondensationKey> keys;
  std::vector<std::size_t> cell;      ///< cell[i] = key index of grid[i]
};

/// `machines[j]` must be the built Pmh of `s.machines[j]`; `grid` must be
/// expand_grid(s) (indices are trusted, not re-validated).
CondensationPlan plan_condensations(const Scenario& s,
                                    const std::vector<GridPoint>& grid,
                                    const std::vector<Pmh>& machines);

/// The simulations a grid needs: one run per distinct (workload, σ,
/// machine, cache model, α', policy) point, times the repeat only when the
/// policy is seeded (SchedulerInfo::seeded). A seed-free policy's repeats
/// differ only in a seed it never reads, so they are one run whose stats
/// every repeat row takes. Runs are in first-use grid order: cell 0 is
/// always run 0 (the `--trace-out` cell), and runs sharing a condensation
/// stay as contiguous as their cells are in the grid.
struct RunPlan {
  std::vector<std::size_t> cell;    ///< cell[k] = grid index run k simulates
  std::vector<std::size_t> run_of;  ///< run_of[i] = run index of grid[i]
};

/// `grid` must be expand_grid(s) of a validated scenario.
RunPlan plan_runs(const Scenario& s, const std::vector<GridPoint>& grid);

/// One executed grid point: the resolved coordinates plus the run's stats.
struct RunPoint {
  WorkloadSpec workload;
  std::string machine;       ///< the spec string the scenario named
  std::string machine_desc;  ///< Pmh::to_string() of the built machine
  std::string policy;
  CacheModelSpec cache;      ///< cache model the run measured under
  double sigma = 1.0 / 3.0;
  double alpha_prime = 1.0;
  std::size_t repeat = 0;
  std::uint64_t seed = 42;
  SchedStats stats;
};

}  // namespace ndf::exp
