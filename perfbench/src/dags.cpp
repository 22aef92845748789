#include <algorithm>
#include <cmath>
#include <sstream>

#include "analysis/pcc.hpp"
#include "exp/workload.hpp"
#include "layers.hpp"
#include "nd/drs.hpp"
#include "pmh/presets.hpp"

namespace pb {

using namespace ndf;

DagSet build_dags(const std::vector<std::string>& specs,
                  const std::vector<std::string>& machines, double sigma,
                  Tracer& tr) {
  DagSet d;
  std::vector<std::vector<double>> profiles;
  for (const std::string& m : machines) {
    d.machines.push_back(make_pmh(m));
    const std::vector<double> sizes = level_cache_sizes(d.machines.back());
    const auto it = std::find(profiles.begin(), profiles.end(), sizes);
    d.profile_of.push_back(std::size_t(it - profiles.begin()));
    if (it == profiles.end()) profiles.push_back(sizes);
  }
  for (const std::string& s : specs) {
    d.specs.push_back(exp::parse_workload(s));
    const exp::WorkloadSpec& spec = d.specs.back();
    {
      Scoped span(tr, spec.algo == "gen" ? "gen.generate" : "nd.build_tree",
                  spec.label());
      d.trees.push_back(
          std::make_unique<SpawnTree>(exp::build_workload_tree(spec)));
    }
    {
      Scoped span(tr, "nd.elaborate", spec.label());
      d.graphs.push_back(std::make_unique<StrandGraph>(
          elaborate(*d.trees.back(), {.np_mode = spec.np})));
      span.set_units(double(d.trees.back()->strand_count(
          d.trees.back()->root())));
    }
    d.dags.emplace_back();
    for (const std::vector<double>& sizes : profiles) {
      Scoped span(tr, "sched.condense", spec.label());
      d.dags.back().push_back(
          std::make_unique<CondensedDag>(*d.graphs.back(), sizes, sigma));
      span.set_units(double(d.graphs.back()->num_edges()) *
                     double(sizes.size()));
    }
  }
  return d;
}

BoundsTable compute_bounds(const DagSet& d,
                           const std::vector<std::string>& machine_specs) {
  BoundsTable t;
  for (std::size_t i = 0; i < d.specs.size(); ++i) {
    const double work = d.graphs[i]->work(), span = d.graphs[i]->span();
    for (std::size_t m = 0; m < machine_specs.size(); ++m) {
      const CondensedDag& dag = *d.dags[i][d.profile_of[m]];
      Bounds b{work, span, {}};
      for (std::size_t l = 1; l <= dag.num_levels(); ++l)
        b.qstar.push_back(
            parallel_cache_complexity(*d.trees[i], dag.decomposition(l)));
      t[{d.specs[i].label(), machine_specs[m]}] = std::move(b);
    }
  }
  return t;
}

SimMetrics check_cells(const std::vector<exp::RunPoint>& cells,
                       const BoundsTable& bounds, Result& r) {
  SimMetrics out;
  std::vector<double> ratios, slowdowns;
  // Best makespan over the policies of one (workload, machine, σ, repeat).
  std::map<std::string, double> best;
  const auto group = [](const exp::RunPoint& c) {
    std::ostringstream k;
    k << c.workload.label() << '|' << c.machine << '|' << c.cache.label()
      << '|' << c.sigma << '|' << c.repeat;
    return k.str();
  };
  for (const exp::RunPoint& c : cells) {
    const auto [it, fresh] = best.emplace(group(c), c.stats.makespan);
    if (!fresh) it->second = std::min(it->second, c.stats.makespan);
  }
  for (const exp::RunPoint& c : cells) {
    const Bounds& b = bounds.at({c.workload.label(), c.machine});
    const double p = double(make_pmh(c.machine).num_processors());
    const double lower = std::max(b.work / p, b.span);
    const std::string where =
        c.workload.label() + " on " + c.machine + " under " + c.policy;
    if (!(c.stats.makespan >= lower * (1.0 - 1e-12)))
      r.fail(1, where + ": makespan below max(W/p, span)");
    slowdowns.push_back(c.stats.makespan / best.at(group(c)));
    if (c.policy != "sb") continue;
    ratios.push_back(c.stats.makespan / lower);
    if (c.workload.algo == "gen" || !c.cache.is_default()) continue;
    bool ok = c.stats.measured_misses.size() == b.qstar.size();
    for (std::size_t l = 0; ok && l < b.qstar.size(); ++l) {
      const double q = c.stats.measured_misses[l] / b.qstar[l];
      out.q_ratio_max = std::max(out.q_ratio_max, q);
      ok = q <= 1.0;
    }
    if (!ok) r.fail(1, where + ": measured Q_i above Q*(sigma M_i)");
  }
  out.makespan_ratio = geomean(ratios);
  out.slowdown_p99 = percentile(slowdowns, 0.99);
  return out;
}

exp::Scenario sim_scenario(const std::vector<exp::WorkloadSpec>& specs,
                           const std::vector<std::string>& machines,
                           double sigma, std::uint64_t seed) {
  exp::Scenario s;
  s.name = "perfbench";
  s.workloads = specs;
  s.machines = machines;
  s.policies = {"sb", "ws", "greedy"};
  s.sigmas = {sigma};
  s.measure_misses = true;
  s.base_seed = seed;
  return s;
}

void add_end_to_end(Result& r, const std::vector<double>& setup_s,
                    const std::vector<double>& round_ms,
                    double ops_per_round, double tail_pct,
                    const SimMetrics& sim) {
  const double p50 = median(round_ms);
  const Tail tail = tail_percentile(round_ms, tail_pct);
  r.add("setup_s", "s", median(setup_s));
  r.add("peak_rss_mb", "MB", peak_rss_mb());
  r.add("ops_per_s", "1/s", ops_per_round / (p50 / 1e3));
  r.add("round_ms_p50", "ms", p50);
  r.add("round_ms_tail", "ms", tail.value);
  r.add("sim_makespan_ratio", "x", sim.makespan_ratio);
  r.add("q_ratio_max", "x", sim.q_ratio_max);
  r.add("slowdown_p99", "x", sim.slowdown_p99);
  std::ostringstream ctx;
  ctx << "rounds: " << round_ms.size() << ", tail = p" << tail.pct
      << ", set-up reps: " << setup_s.size();
  r.context.push_back(ctx.str());
}

namespace {
bool same_stats(const SchedStats& a, const SchedStats& b) {
  return a.makespan == b.makespan && a.total_work == b.total_work &&
         a.misses == b.misses && a.miss_cost == b.miss_cost &&
         a.atomic_units == b.atomic_units && a.anchors == b.anchors &&
         a.steals == b.steals && a.utilization == b.utilization &&
         a.measured_misses == b.measured_misses &&
         a.comm_cost == b.comm_cost &&
         a.measured_writebacks == b.measured_writebacks &&
         a.contention_cost == b.contention_cost;
}
}  // namespace

std::size_t count_differing(const std::vector<exp::RunPoint>& a,
                            const std::vector<exp::RunPoint>& b) {
  if (a.size() != b.size()) return std::max(a.size(), b.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const bool same = a[i].workload.label() == b[i].workload.label() &&
                      a[i].machine == b[i].machine &&
                      a[i].policy == b[i].policy &&
                      a[i].sigma == b[i].sigma && a[i].seed == b[i].seed &&
                      same_stats(a[i].stats, b[i].stats);
    bad += same ? 0 : 1;
  }
  return bad;
}

}  // namespace pb
