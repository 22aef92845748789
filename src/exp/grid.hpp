// The grid runner behind both sweep engines (exp::Sweep and
// serve::ServeSweep): build every workload once, build every condensation
// once, then run the cells. Each phase runs once, in that order, and the
// cells read the built condensations as shared immutable inputs.
//
// Cells run in contiguous chunks — `4 * jobs` of them, not one task per
// cell — so whatever a chunk body hoists out of its cell loop (a reused
// SimCore, scratch buffers) is amortized over the chunk. Every cell writes
// only its own cache-line-padded slot, so the returned vector is in index
// order regardless of completion order, and output is byte-identical at
// every worker count.
//
// `jobs` is clamped to the cell count. Above one worker the three phases
// fan out over a ThreadPool; at one worker they run on the calling thread,
// with no pool and no extra thread (a pool worker's allocations would land
// in a fresh malloc arena and raise peak RSS for nothing). Either way one
// code path runs every phase, so no `jobs` value selects a different
// engine.
//
// Failure contract: a throw in any phase (after every sibling task has
// finished with the shared data) propagates out of run_grid and returns
// nothing — no partial cells, no build count, no phase times. Callers
// store a GridResult only once it exists, so a failed run leaves them as
// if it never happened and a later run retries from scratch.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/workload.hpp"
#include "obs/progress.hpp"
#include "sched/condensed_dag.hpp"
#include "support/thread_pool.hpp"

namespace ndf {
class Pmh;
}

namespace ndf::exp {

/// Wall-clock seconds spent in each phase of a grid run (`--phase-times`).
/// Emission happens outside the runner, so its time is the caller's to
/// measure.
struct PhaseTimes {
  double workload_build = 0.0;  ///< elaborating workload graphs
  double condensation = 0.0;    ///< building CondensedDags
  double cell_execution = 0.0;  ///< simulating grid cells
};

/// The distinct cache-size profiles among a machine list. A condensation
/// depends on the machine only through its profile, so machines sharing
/// one share every condensation.
struct CacheProfiles {
  std::vector<std::vector<double>> sizes;  ///< distinct, in first-use order
  std::vector<std::size_t> of_machine;     ///< machine index → profile index
};

CacheProfiles cache_profiles(const std::vector<Pmh>& machines);

/// One condensation a grid needs: a workload at a σ under a cache profile.
struct CondensationKey {
  std::size_t workload = 0;   ///< index into GridPlan::workloads
  std::size_t sigma = 0;      ///< index into GridPlan::sigmas
  std::vector<double> sizes;  ///< level_cache_sizes of the machine
};

/// What a grid run builds and how many cells it runs.
struct GridPlan {
  std::string name;       ///< progress label
  bool progress = false;  ///< stderr heartbeat per phase
  std::size_t jobs = 0;   ///< workers; 0 = one per hardware thread
  std::vector<WorkloadSpec> workloads;  ///< phase 1 builds each once
  std::vector<double> sigmas;
  std::vector<CondensationKey> keys;  ///< phase 2 builds each once
  std::size_t cells = 0;              ///< phase 3 runs [0, cells)
};

/// The built condensations, in GridPlan::keys order.
using GridDags = std::vector<std::unique_ptr<CondensedDag>>;

/// A completed grid run.
template <typename Cell>
struct GridResult {
  std::vector<Cell> cells;  ///< in index order
  PhaseTimes phases;
  /// Per-worker busy/task accounting; empty when the run used no pool.
  std::vector<ThreadPool::WorkerStats> workers;
};

/// Where a chunk body stores its cells: put(i, c) fills cell i's slot and
/// ticks the progress meter.
template <typename Cell>
class CellSlots {
 public:
  struct alignas(64) Slot {
    Cell cell;
  };

  CellSlots(std::vector<Slot>& slots, obs::ProgressMeter& progress)
      : slots_(slots), progress_(progress) {}

  void put(std::size_t i, Cell c) {
    slots_[i].cell = std::move(c);
    progress_.tick();
  }

 private:
  std::vector<Slot>& slots_;
  obs::ProgressMeter& progress_;
};

namespace detail {

/// The type-erased runner: phases 1–3, with `chunk(dags, begin, end,
/// progress)` as phase 3's body. Fills `phases` and `workers`.
using ChunkFn = std::function<void(const GridDags&, std::size_t, std::size_t,
                                   obs::ProgressMeter&)>;
void run_grid_phases(const GridPlan& plan, const ChunkFn& chunk,
                     PhaseTimes& phases,
                     std::vector<ThreadPool::WorkerStats>& workers);

}  // namespace detail

/// Runs `plan`: `body(dags, begin, end, slots)` executes cells
/// [begin, end) on one thread and must put() each of them exactly once.
/// Throws whatever a phase throws; see the failure contract above.
template <typename Cell, typename Body>
GridResult<Cell> run_grid(const GridPlan& plan, Body&& body) {
  using Slot = typename CellSlots<Cell>::Slot;
  std::vector<Slot> slots(plan.cells);
  GridResult<Cell> r;
  detail::run_grid_phases(
      plan,
      [&](const GridDags& dags, std::size_t b, std::size_t e,
          obs::ProgressMeter& progress) {
        CellSlots<Cell> out(slots, progress);
        body(dags, b, e, out);
      },
      r.phases, r.workers);
  r.cells.reserve(slots.size());
  for (Slot& s : slots) r.cells.push_back(std::move(s.cell));
  return r;
}

}  // namespace ndf::exp
