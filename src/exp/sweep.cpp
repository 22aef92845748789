#include "exp/sweep.hpp"

#include <memory>
#include <utility>

#include "pmh/presets.hpp"
#include "sched/condensed_dag.hpp"
#include "sched/registry.hpp"
#include "sched/sim_core.hpp"

namespace ndf::exp {

namespace {

/// Simulates grid cell `g` through `core` and `policy`, constructing each
/// on first use and reusing it afterwards (reset() rebinds the core; the
/// policy's init() restores its own state). `sink` (non-null for grid cell
/// 0 only — the scenario's trace_sink) records the run's event stream.
SchedStats run_cell(const Scenario& s, const GridPoint& g, const Pmh& m,
                    const CondensedDag& dag, std::unique_ptr<SimCore>& core,
                    std::unique_ptr<Scheduler>& policy, obs::TraceSink* sink) {
  SchedOptions opts = point_options(s, g);
  opts.sink = sink;
  if (!policy) policy = make_scheduler(s.policies[g.policy], opts);
  if (core)
    core->reset(dag, m, opts);
  else
    core = std::make_unique<SimCore>(dag, m, opts);
  return core->run(*policy);
}

}  // namespace

const std::vector<RunPoint>& Sweep::run() {
  if (ran_) return results_;
  validate(scenario_);

  std::vector<Pmh> machines;
  machines.reserve(scenario_.machines.size());
  for (const std::string& spec : scenario_.machines)
    machines.push_back(make_pmh(spec));

  const std::vector<GridPoint> grid = expand_grid(scenario_);
  CondensationPlan plan = plan_condensations(scenario_, grid, machines);
  const RunPlan runs = plan_runs(scenario_, grid);
  GridPlan gp;
  gp.name = scenario_.name;
  gp.progress = scenario_.progress;
  gp.jobs = jobs_;
  gp.workloads = scenario_.workloads;
  gp.sigmas = scenario_.sigmas;
  gp.keys = std::move(plan.keys);
  gp.cells = runs.cell.size();

  // The grid runner's cells are the plan's distinct runs. Each chunk
  // cycles its runs through ONE SimCore (reset() per run) and one policy
  // instance per policy name, so all per-run arenas and the (condensation,
  // machine)-keyed duration table amortize over the chunk instead of being
  // rebuilt per run.
  GridResult<SchedStats> r = run_grid<SchedStats>(
      gp, [&](const GridDags& dags, std::size_t b, std::size_t e,
              CellSlots<SchedStats>& out) {
        std::unique_ptr<SimCore> core;
        std::vector<std::unique_ptr<Scheduler>> policies(
            scenario_.policies.size());
        for (std::size_t k = b; k < e; ++k) {
          const std::size_t i = runs.cell[k];
          const GridPoint& g = grid[i];
          // Run 0 is cell 0 (one run, one worker) and carries the
          // scenario's trace sink; the sink needs no locking because no
          // other run emits.
          out.put(k, run_cell(scenario_, g, machines[g.machine],
                              *dags[plan.cell[i]], core, policies[g.policy],
                              k == 0 ? scenario_.trace_sink : nullptr));
        }
      });

  // Every cell takes its own coordinates and its run's stats, in grid
  // order.
  std::vector<std::string> machine_desc;
  machine_desc.reserve(machines.size());
  for (const Pmh& m : machines) machine_desc.push_back(m.to_string());
  std::vector<RunPoint> results(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const GridPoint& g = grid[i];
    const SchedOptions opts = point_options(scenario_, g);
    RunPoint& pt = results[i];
    pt.workload = scenario_.workloads[g.workload];
    pt.machine = scenario_.machines[g.machine];
    pt.machine_desc = machine_desc[g.machine];
    pt.policy = scenario_.policies[g.policy];
    pt.cache = scenario_.cache_models[g.cache];
    pt.sigma = opts.sigma;
    pt.alpha_prime = opts.alpha_prime;
    pt.repeat = g.repeat;
    pt.seed = opts.seed;
    pt.stats = r.cells[runs.run_of[i]];
  }

  // Stored only now: a throw above leaves the object as if run() was never
  // called, and a later run() retries from scratch.
  results_ = std::move(results);
  runs_ = runs.cell.size();
  condensations_ = gp.keys.size();
  phase_times_ = r.phases;
  worker_stats_ = std::move(r.workers);
  ran_ = true;
  return results_;
}

}  // namespace ndf::exp
