#include "exp/scenario.hpp"

#include <algorithm>
#include <string>

#include "pmh/presets.hpp"
#include "sched/condensed_dag.hpp"
#include "sched/registry.hpp"

namespace ndf::exp {

std::size_t grid_size(const Scenario& s) {
  return s.workloads.size() * s.sigmas.size() * s.machines.size() *
         s.cache_models.size() * s.alpha_primes.size() * s.policies.size() *
         s.repeats;
}

std::vector<GridPoint> expand_grid(const Scenario& s) {
  std::vector<GridPoint> out;
  out.reserve(grid_size(s));
  for (std::size_t w = 0; w < s.workloads.size(); ++w)
    for (std::size_t g = 0; g < s.sigmas.size(); ++g)
      for (std::size_t m = 0; m < s.machines.size(); ++m)
        for (std::size_t c = 0; c < s.cache_models.size(); ++c)
          for (std::size_t a = 0; a < s.alpha_primes.size(); ++a)
            for (std::size_t p = 0; p < s.policies.size(); ++p)
              for (std::size_t r = 0; r < s.repeats; ++r)
                out.push_back({w, g, m, c, a, p, r});
  return out;
}

void validate(const Scenario& s) {
  NDF_CHECK_MSG(!s.workloads.empty(), "scenario '" << s.name
                                                   << "' has no workloads");
  NDF_CHECK_MSG(!s.machines.empty(), "scenario '" << s.name
                                                  << "' has no machines");
  NDF_CHECK_MSG(!s.policies.empty(), "scenario '" << s.name
                                                  << "' has no policies");
  NDF_CHECK_MSG(!s.sigmas.empty(), "scenario '" << s.name
                                                << "' has no sigma values");
  NDF_CHECK_MSG(!s.alpha_primes.empty(),
                "scenario '" << s.name << "' has no alpha' values");
  NDF_CHECK_MSG(s.repeats >= 1, "scenario '" << s.name
                                             << "' needs repeats >= 1");
  for (const std::string& p : s.policies)
    NDF_CHECK_MSG(scheduler_registered(p),
                  "scenario '" << s.name << "' names unknown policy '" << p
                               << "'");
  NDF_CHECK_MSG(!s.cache_models.empty(),
                "scenario '" << s.name << "' has no cache models");
  // The grid is expanded (and reserved) point by point: bound the product
  // of its axes, all non-empty by now, before anything multiplies it out.
  constexpr std::size_t kMaxCells = std::size_t(1) << 20;
  std::size_t points = 1;  // per repeat; saturates just past the cap
  for (const std::size_t axis :
       {s.workloads.size(), s.sigmas.size(), s.machines.size(),
        s.cache_models.size(), s.alpha_primes.size(), s.policies.size()})
    points = std::min(points * axis, kMaxCells + 1);
  NDF_CHECK_MSG(points <= kMaxCells && s.repeats <= kMaxCells / points,
                "scenario '" << s.name << "' asks for " << s.repeats
                             << " repeats of "
                             << (points > kMaxCells ? std::string("over 2^20")
                                                    : std::to_string(points))
                             << " grid points, more than 2^20 cells");
  for (const CacheModelSpec& cm : s.cache_models)
    NDF_CHECK_MSG(cache_repl_registered(cm.repl),
                  "scenario '" << s.name
                               << "' names unknown cache replacement policy '"
                               << cm.repl << "' (in '" << cm.label() << "')");
  // Machine specs fail here, at validation time, with the parser's message
  // (unknown preset/family/key) rather than mid-construction.
  for (const std::string& spec : s.machines) (void)parse_pmh(spec);
  for (double sigma : s.sigmas)
    NDF_CHECK_MSG(sigma > 0.0 && sigma < 1.0,
                  "scenario '" << s.name << "' has sigma " << sigma
                               << " outside (0, 1)");
  // α' = min{αmax, 1} with αmax in (0, 1): outside (0, 1] the allocation
  // g(S) = f·(3S/M)^α' degenerates (α'=0 pins it, α'<0 explodes).
  for (double a : s.alpha_primes)
    NDF_CHECK_MSG(a > 0.0 && a <= 1.0, "scenario '" << s.name
                                                    << "' has alpha' " << a
                                                    << " outside (0, 1]");
}

CondensationPlan plan_condensations(const Scenario& s,
                                    const std::vector<GridPoint>& grid,
                                    const std::vector<Pmh>& machines) {
  NDF_CHECK_MSG(machines.size() == s.machines.size(),
                "plan_condensations: machines were not built from the "
                "scenario's machine list");
  // Machine cache profiles as small integer ids, so the walk over the
  // grid below compares integers, not vector<double>s.
  const CacheProfiles profiles = cache_profiles(machines);

  // Dense (workload, σ, profile) → key-index memo: one O(1) lookup per
  // cell keeps planning linear in the grid even when repeats/α'/policies
  // multiply the cell count far past the key count.
  constexpr std::size_t kNone = std::size_t(-1);
  const std::size_t S = s.sigmas.size(), P = profiles.sizes.size();
  std::vector<std::size_t> memo(s.workloads.size() * S * P, kNone);

  CondensationPlan plan;
  plan.cell.reserve(grid.size());
  for (const GridPoint& g : grid) {
    const std::size_t p = profiles.of_machine[g.machine];
    std::size_t& k = memo[(g.workload * S + g.sigma) * P + p];
    if (k == kNone) {
      k = plan.keys.size();
      plan.keys.push_back({g.workload, g.sigma, profiles.sizes[p]});
    }
    plan.cell.push_back(k);
  }
  return plan;
}

RunPlan plan_runs(const Scenario& s, const std::vector<GridPoint>& grid) {
  std::vector<char> seeded(s.policies.size());
  for (std::size_t p = 0; p < s.policies.size(); ++p)
    seeded[p] = scheduler_seeded(s.policies[p]);

  // Dense memo over every axis but the repeat: a seed-free cell looks up
  // the run of its (workload, σ, machine, cache, α', policy) point.
  constexpr std::size_t kNone = std::size_t(-1);
  std::vector<std::size_t> memo(grid_size(s) / s.repeats, kNone);

  RunPlan plan;
  plan.run_of.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const GridPoint& g = grid[i];
    std::size_t run = plan.cell.size();
    if (!seeded[g.policy]) {
      std::size_t point = g.workload;
      point = point * s.sigmas.size() + g.sigma;
      point = point * s.machines.size() + g.machine;
      point = point * s.cache_models.size() + g.cache;
      point = point * s.alpha_primes.size() + g.alpha;
      point = point * s.policies.size() + g.policy;
      if (memo[point] == kNone) memo[point] = run;
      run = memo[point];
    }
    if (run == plan.cell.size()) plan.cell.push_back(i);
    plan.run_of.push_back(run);
  }
  return plan;
}

SchedOptions point_options(const Scenario& s, const GridPoint& g) {
  SchedOptions o;
  o.sigma = s.sigmas[g.sigma];
  o.alpha_prime = s.alpha_primes[g.alpha];
  o.charge_misses = s.charge_misses;
  o.measure_misses = s.measure_misses;
  o.cache_model = s.cache_models[g.cache];
  o.steal_cost = s.steal_cost;
  o.seed = s.base_seed + g.repeat;
  return o;
}

}  // namespace ndf::exp
