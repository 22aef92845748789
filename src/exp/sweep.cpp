#include "exp/sweep.hpp"

#include <memory>
#include <utility>

#include "pmh/presets.hpp"
#include "sched/condensed_dag.hpp"
#include "sched/registry.hpp"
#include "sched/sim_core.hpp"

namespace ndf::exp {

namespace {

/// Executes grid cell `g` through `core` and `policy`, constructing each on
/// first use and reusing it afterwards (reset() rebinds the core; the
/// policy's init() restores its own state). `sink` (non-null for grid cell
/// 0 only — the scenario's trace_sink) records the cell's event stream.
RunPoint run_cell(const Scenario& s, const GridPoint& g, const Pmh& m,
                  const CondensedDag& dag, std::unique_ptr<SimCore>& core,
                  std::unique_ptr<Scheduler>& policy, obs::TraceSink* sink) {
  SchedOptions opts = point_options(s, g);
  opts.sink = sink;
  if (!policy) policy = make_scheduler(s.policies[g.policy], opts);
  if (core)
    core->reset(dag, m, opts);
  else
    core = std::make_unique<SimCore>(dag, m, opts);
  RunPoint pt;
  pt.workload = s.workloads[g.workload];
  pt.machine = s.machines[g.machine];
  pt.machine_desc = m.to_string();
  pt.policy = s.policies[g.policy];
  pt.cache = s.cache_models[g.cache];
  pt.sigma = opts.sigma;
  pt.alpha_prime = opts.alpha_prime;
  pt.repeat = g.repeat;
  pt.seed = opts.seed;
  pt.stats = core->run(*policy);
  return pt;
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
  GridPlan gp;
  gp.name = scenario_.name;
  gp.progress = scenario_.progress;
  gp.jobs = jobs_;
  gp.workloads = scenario_.workloads;
  gp.sigmas = scenario_.sigmas;
  gp.keys = std::move(plan.keys);
  gp.cells = grid.size();

  // Each chunk cycles its cells through ONE SimCore (reset() per cell) and
  // one policy instance per policy name, so all per-run arenas and the
  // (condensation, machine)-keyed duration table amortize over the chunk
  // instead of being rebuilt per cell.
  GridResult<RunPoint> r = run_grid<RunPoint>(
      gp, [&](const GridDags& dags, std::size_t b, std::size_t e,
              CellSlots<RunPoint>& out) {
        std::unique_ptr<SimCore> core;
        std::vector<std::unique_ptr<Scheduler>> policies(
            scenario_.policies.size());
        for (std::size_t i = b; i < e; ++i) {
          const GridPoint& g = grid[i];
          // Cell 0 (one cell, one worker) carries the scenario's trace
          // sink; the sink needs no locking because no other cell emits.
          out.put(i, run_cell(scenario_, g, machines[g.machine],
                              *dags[plan.cell[i]], core, policies[g.policy],
                              i == 0 ? scenario_.trace_sink : nullptr));
        }
      });

  // Stored only now: a throw above leaves the object as if run() was never
  // called, and a later run() retries from scratch.
  results_ = std::move(r.cells);
  condensations_ = gp.keys.size();
  phase_times_ = r.phases;
  worker_stats_ = std::move(r.workers);
  ran_ = true;
  return results_;
}

}  // namespace ndf::exp
