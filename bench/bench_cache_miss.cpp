// E14 — measured per-level misses vs the paper's Theorem 1 bound: run the
// occupancy-simulation layer (pmh/occupancy.hpp, always on here) over a
// kernels × σ × machines × policies grid and put the *measured* Q_i next
// to the *analytical* Q*(t; σ·Mi) from analysis/pcc, per cache level.
//
// This is the headline theory-vs-measurement experiment the simulator
// exists for: for every space-bounded (`sb`) run the bench CHECKS
// Q_i <= Q*(σMi) at every level and exits non-zero on any violation (the
// CI gate on Theorem 1), while `ws` rows show the bound failing without
// capacity reservations — stealing reloads scattered footprints past Q*.
//
// Flags (every spec and list follows README's "Spec grammar"):
//   --workloads=<spec;...>  default: all eight transcribed kernels at
//                           small n
//   --machines=<spec;...>   default: flat8;deep2x4
//   --sigma=<x,x,...>       default: 0.25,0.33...,0.5 (all swept values
//                           are gated for sb)
//   --sched=<name,...>      default: sb,ws,greedy,serial
//   --cache=<spec;...>      cache-model axis (docs/cache-models.md);
//                           default the ideal LRU model. The Theorem 1 gate
//                           applies only to default-model sb cells — rows
//                           under non-ideal models report where the bound
//                           survives or erodes, without failing the gate
//   --jobs=<n>              sweep workers (0 = hardware concurrency)
//   --json=<path>           mirror tables into BENCH_cache_miss.json
#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>

#include "analysis/pcc.hpp"
#include "bench_common.hpp"
#include "exp/sweep.hpp"
#include "pmh/presets.hpp"

using namespace ndf;

namespace {

/// Q*(t; σM) per workload label, memoized — the grid revisits each
/// (workload, σ·M) pair once per machine sharing the profile and once per
/// policy.
class QStarCache {
 public:
  double get(const exp::WorkloadSpec& spec, double threshold) {
    const auto key = std::make_pair(spec.label(), threshold);
    const auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    const auto t = trees_.find(spec.label());
    if (t == trees_.end())
      trees_.emplace(spec.label(), exp::build_workload_tree(spec));
    const double q =
        parallel_cache_complexity(trees_.at(spec.label()), threshold);
    memo_.emplace(key, q);
    return q;
  }

 private:
  std::map<std::string, SpawnTree> trees_;
  std::map<std::pair<std::string, double>, double> memo_;
};

int run(int argc, char** argv) {
  Args args(argc, argv);
  bench::reject_unknown_flags(
      args,
      {"workloads", "machines", "sigma", "sched", "cache", "jobs", "json"},
      "see the header of bench_cache_miss.cpp");
  exp::Scenario s;
  s.name = "cache_miss";
  s.workloads = exp::parse_workload_list(args.get(
      "workloads",
      std::string("mm:n=32;trs:n=32;cholesky:n=32;lu:n=32;lcs:n=128;"
                  "gotoh:n=64;fw1d:n=16;fw2d:n=16")));
  s.machines = {"flat8", "deep2x4"};
  if (args.has("machines"))
    s.machines = spec::split(args.get("machines", std::string()), ';');
  s.policies = parse_sched_list(
      args.get("sched", std::string("sb,ws,greedy,serial")));
  s.sigmas = {0.25, 1.0 / 3.0, 0.5};
  if (args.has("sigma"))
    s.sigmas =
        bench::parse_double_list(args.get("sigma", std::string()), "sigma");
  s.measure_misses = true;  // the whole point of this bench
  if (args.has("cache"))
    s.cache_models = parse_cache_model_list(args.get("cache", std::string()));

  bench::Output out("E14 cache-miss/theorem1", args);
  bench::heading("E14 cache-miss/theorem1",
                 "Theorem 1, measured: simulated LRU occupancy counts the "
                 "level-i misses Q_i of each policy; space-bounded runs "
                 "must stay within Q*(t; sigma*Mi), work stealing need "
                 "not.");

  exp::Sweep sweep(s, bench::jobs_flag(args));
  const auto& runs = sweep.run();

  QStarCache qstar;
  bool any_model = false;
  for (const exp::RunPoint& r : runs)
    if (!r.cache.is_default()) any_model = true;
  // Per-model sb tallies: the Theorem 1 CI gate covers only the default
  // (ideal LRU) model; non-ideal models report where the bound survives or
  // erodes without failing the gate.
  std::size_t sb_cells = 0, sb_violations = 0, ws_exceeds = 0;
  std::map<std::string, std::pair<std::size_t, std::size_t>> model_sb;
  Table t("measured Q_i vs Q*(sigma*Mi), per cache level");
  {
    std::vector<std::string> header{"workload", "machine", "policy"};
    if (any_model) header.push_back("cache");
    for (const char* h : {"sigma", "level", "Q_i", "Q*", "Q_i/Q*", "within"})
      header.push_back(h);
    t.set_header(std::move(header));
  }
  for (const exp::RunPoint& r : runs) {
    const Pmh m = make_pmh(r.machine);
    for (std::size_t l = 1; l <= m.num_cache_levels(); ++l) {
      const double q = r.stats.measured_misses[l - 1];
      const double bound =
          qstar.get(r.workload, r.sigma * m.cache_size(l));
      const bool within = q <= bound;
      if (r.policy == "sb") {
        if (r.cache.is_default()) {
          ++sb_cells;
          if (!within) ++sb_violations;
        } else {
          auto& [cells, viols] = model_sb[r.cache.label()];
          ++cells;
          if (!within) ++viols;
        }
      }
      if (r.policy == "ws" && !within) ++ws_exceeds;
      std::vector<Cell> row{r.workload.label(), r.machine, r.policy};
      if (any_model) row.emplace_back(r.cache.label());
      row.emplace_back(r.sigma);
      row.emplace_back((long long)l);
      row.emplace_back(q);
      row.emplace_back(bound);
      row.emplace_back(q / std::max(1.0, bound));
      row.emplace_back(std::string(within ? "yes" : "NO"));
      t.add_row(std::move(row));
    }
  }
  out.emit(t);

  const auto swept = [&](const char* p) {
    return std::find(s.policies.begin(), s.policies.end(), p) !=
           s.policies.end();
  };
  if (swept("sb") && sb_cells > 0) {
    // "ideal LRU" qualifier only when other models share the grid — the
    // default-model output stays byte-identical to the pre-registry bench.
    std::cout << "sb: " << (sb_cells - sb_violations) << "/" << sb_cells
              << " level-cells within Q* (Theorem 1"
              << (any_model ? ", ideal LRU)" : ")");
    if (sb_violations) std::cout << " — " << sb_violations << " VIOLATIONS";
    std::cout << "\n";
  }
  // Non-ideal hardware models: report per model where sb's bound survives
  // and where it erodes. Informational — Theorem 1 assumes the ideal
  // cache, so these never fail the gate.
  for (const auto& [label, tally] : model_sb)
    std::cout << "sb under " << label << ": "
              << (tally.first - tally.second) << "/" << tally.first
              << " level-cells within Q* ("
              << (tally.second ? "bound erodes on this model"
                               : "bound survives this model")
              << ")\n";
  if (swept("ws"))
    std::cout << "ws: exceeded Q* on " << ws_exceeds
              << " level-cells (no capacity reservation, none expected to "
                 "hold)\n";
  out.write_json();
  if (sb_violations) {
    std::cerr << "FAIL: space-bounded measured misses exceeded the "
                 "Theorem 1 bound\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argv[0], [&] { return run(argc, argv); });
}
