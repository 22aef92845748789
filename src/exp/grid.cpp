#include "exp/grid.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "pmh/machine.hpp"

namespace ndf::exp {

CacheProfiles cache_profiles(const std::vector<Pmh>& machines) {
  CacheProfiles out;
  out.of_machine.reserve(machines.size());
  for (const Pmh& m : machines) {
    std::vector<double> sizes = level_cache_sizes(m);
    std::size_t p = 0;
    while (p < out.sizes.size() && out.sizes[p] != sizes) ++p;
    if (p == out.sizes.size()) out.sizes.push_back(std::move(sizes));
    out.of_machine.push_back(p);
  }
  return out;
}

namespace detail {

void run_grid_phases(const GridPlan& plan, const ChunkFn& chunk,
                     PhaseTimes& phases,
                     std::vector<ThreadPool::WorkerStats>& workers) {
  const std::size_t jobs =
      std::min(plan.jobs == 0 ? ThreadPool::default_jobs() : plan.jobs,
               std::max<std::size_t>(plan.cells, 1));

  // Shared immutable inputs of phase 3, built into slots pre-sized in plan
  // order; each slot is written by exactly one task.
  std::vector<std::unique_ptr<Workload>> built(plan.workloads.size());
  GridDags dags(plan.keys.size());

  // Declared after everything the tasks touch: if a phase throws, the
  // pool's destructor drains and joins before any of the data above is
  // torn down. The progress meter outlives the pool's tasks the same way.
  obs::ProgressMeter progress(plan.progress, plan.name);
  std::optional<ThreadPool> pool;
  if (jobs > 1) pool.emplace(jobs);

  // One timed, progress-reported phase: body(begin, end) over [0, n) in
  // at most `chunks` contiguous ranges — pool tasks when there is a pool,
  // one range on this thread otherwise. Failures rethrow in index order
  // either way.
  const auto phase = [&](const char* name, double& seconds, std::size_t n,
                         std::size_t chunks, const auto& body) {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point t0 = Clock::now();
    progress.begin_phase(name, n);
    if (pool)
      parallel_for_chunks(*pool, n, chunks, body);
    else if (n > 0)
      body(std::size_t(0), n);
    progress.finish();
    seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  };

  // Phase 1: elaborate each workload once (one task each: elaboration is
  // expensive and distinct workloads are independent).
  phase("workloads", phases.workload_build, built.size(), built.size(),
        [&](std::size_t b, std::size_t e) {
          for (std::size_t w = b; w < e; ++w) {
            built[w] = std::make_unique<Workload>(plan.workloads[w]);
            progress.tick();
          }
        });
  // Phase 2: build each workload × σ × cache-profile condensation once.
  phase("condensations", phases.condensation, dags.size(), dags.size(),
        [&](std::size_t b, std::size_t e) {
          for (std::size_t k = b; k < e; ++k) {
            const CondensationKey& key = plan.keys[k];
            dags[k] = std::make_unique<CondensedDag>(
                built[key.workload]->graph(), key.sizes,
                plan.sigmas[key.sigma]);
            progress.tick();
          }
        });
  // Phase 3: the cells, a few contiguous chunks per worker. Expansion
  // order keeps cells that share a condensation contiguous, so a chunk's
  // reused state rebinds at chunk boundaries, not at every cell.
  phase("cells", phases.cell_execution, plan.cells, 4 * jobs,
        [&](std::size_t b, std::size_t e) { chunk(dags, b, e, progress); });

  if (pool) workers = pool->worker_stats();
}

}  // namespace detail

}  // namespace ndf::exp
