#include "exp/presets.hpp"

#include <algorithm>
#include <cctype>
#include <ostream>
#include <tuple>

#include "analysis/pcc.hpp"
#include "exp/sweep.hpp"
#include "pmh/presets.hpp"
#include "sched/sb_scheduler.hpp"

namespace ndf::exp {

namespace {

using Runs = std::vector<RunPoint>;
using Policies = std::vector<std::string>;
using Blocks = std::vector<PresetBlock>;

/// A fixed grid over every policy at σ = 1/3 and 1/2.
Scenario grid(std::string name, const std::string& workloads,
              std::vector<std::string> machines, std::size_t repeats) {
  return {.name = std::move(name),
          .workloads = parse_workload_list(workloads),
          .machines = std::move(machines),
          .policies = {"sb", "ws", "greedy", "serial"},
          .sigmas = {1.0 / 3.0, 0.5},
          .repeats = repeats};
}

// Small enough for CI on every push: three transcribed workloads (two ND,
// one NP variant), a random series-parallel tree and a wavefront on two
// machine shapes, with a repeat axis for ws variance — 160 runs.
Scenario smoke() {
  return grid("smoke",
              "mm:n=32;lcs:n=128;trs:n=32,np;"
              "gen:family=sp,depth=6,fan=3,seed=7;gen:family=wavefront,n=12",
              {"flat:p=8,m1=192,c1=10", "deep2x4"}, 2);
}

// Deliberately big: deep/wide generated DAGs the smoke grid never touches
// on three machine shapes — 1008 cells (360 distinct runs: only ws's
// repeats are simulated separately), under a second of serial wall-clock,
// so thread startup is noise, not signal, in perf and scaling runs.
Scenario stress() {
  return grid("stress",
              "gen:family=sp,depth=9,fan=4,work=32,cross=60,seed=11;"
              "gen:family=sp,depth=11,fan=3,work=32,cross=60,seed=13;"
              "gen:family=wavefront,n=96;gen:family=forkjoin,depth=64,fan=48;"
              "gen:family=diamond,depth=128,fan=24;gen:family=chain,n=4096",
              {"flat16", "deep4x4", "deep2x4"}, 7);
}

/// A block's title name, its one workload and its machine.
struct Spot {
  std::string name, workload, machine;
};

Scenario block(const Spot& at, Policies policies, bool misses) {
  return {.name = at.name,
          .workloads = {parse_workload(at.workload)},
          .machines = {at.machine},
          .policies = std::move(policies),
          .measure_misses = misses};
}

/// The E7 and E9 view: one row per metric, its name then its values.
using Metrics = std::vector<std::pair<std::string, std::vector<double>>>;

Table metric_table(const std::string& name, const RunPoint& r,
                   std::vector<std::string> header, const Metrics& metrics) {
  Table t(name + " n=" + std::to_string(r.workload.n) + " on " +
          r.machine_desc);
  header.insert(header.begin(), "metric");
  t.set_header(std::move(header));
  for (const auto& [metric, values] : metrics) {
    std::vector<Cell> row{metric};
    row.insert(row.end(), values.begin(), values.end());
    t.add_row(std::move(row));
  }
  return t;
}

// E7: misses against Q*(σ·M_l) (Theorem 1), makespan against Eq. 22.
Blocks sb_bounds(const Policies& policies, bool misses) {
  Blocks blocks;
  for (const Spot& at : {Spot{"MM(flat)", "mm:n=64", "flat8"},
                         Spot{"TRS(flat)", "trs:n=64", "flat8"},
                         Spot{"LCS(flat)", "lcs:n=256", "flat8"},
                         Spot{"MM(2-tier)", "mm:n=64", "deep2x4"},
                         Spot{"TRS(2-tier)", "trs:n=64", "deep2x4"}})
    blocks.push_back({block(at, policies, misses), [at](const Runs& runs) {
      const RunPoint& r = runs[0];
      const SchedStats& s = r.stats;
      const SpawnTree tree = build_workload_tree(r.workload);
      const Pmh m = make_pmh(r.machine);
      Metrics rows;
      for (std::size_t l = 0; l < s.misses.size(); ++l) {
        const double q =
            parallel_cache_complexity(tree, r.sigma * m.cache_size(l + 1));
        rows.push_back({"misses L" + std::to_string(l + 1),
                        {s.misses[l], q, s.misses[l] / q}});
      }
      const double ideal = sb_balanced_bound(tree, m, r.sigma);
      rows.push_back({"makespan", {s.makespan, ideal, s.makespan / ideal}});
      rows.push_back({"utilization", {s.utilization, 1.0, s.utilization}});
      return metric_table(at.name, r, {"value", "bound", "ratio"}, rows);
    }});
  return blocks;
}

// E8: ND and NP speedup over p. The flat machines share one cache
// profile, so each elaboration condenses once.
Blocks sb_scaling(const Policies& policies, bool misses) {
  static const std::size_t kProcs[] = {1, 2, 4, 8, 16, 32, 64};
  Blocks blocks;
  for (const auto& [name, algo, n, M1] :
       {std::tuple<std::string, std::string, int, int>{"TRS", "trs", 128,
                                                       3 * 16 * 16},
        {"Cholesky", "cholesky", 128, 3 * 16 * 16},
        {"LCS", "lcs", 512, 64}}) {
    const std::string spec = algo + ":n=" + std::to_string(n);
    std::vector<std::string> machines;
    for (std::size_t p : kProcs)
      machines.push_back("flat:p=" + std::to_string(p) +
                         ",m1=" + std::to_string(M1) + ",c1=10");
    const std::string title = name + " n=" + std::to_string(n) + ": " +
                              policies[0] + " speedup vs p (flat PMH, M1=" +
                              std::to_string(M1) + ")";
    Scenario s{
        .name = name,
        .workloads = {parse_workload(spec), parse_workload(spec + ",np")},
        .machines = std::move(machines),
        .policies = policies,
        .measure_misses = misses};
    blocks.push_back({std::move(s), [title, misses](const Runs& runs) {
      Table t(title);
      std::vector<std::string> header{"p",          "T_ND",       "T_NP",
                                      "speedup_ND", "speedup_NP", "eff_ND",
                                      "eff_NP"};
      if (misses) header.insert(header.end(), {"comm_ND", "comm_NP"});
      t.set_header(std::move(header));
      // Workload-major: runs[i] is ND and runs[P + i] NP on machine i.
      const std::size_t P = std::size(kProcs);
      const double t1_nd = runs[0].stats.makespan;
      const double t1_np = runs[P].stats.makespan;
      for (std::size_t i = 0; i < P; ++i) {
        const double p = double(kProcs[i]);
        const SchedStats &nd = runs[i].stats, &np = runs[P + i].stats;
        std::vector<Cell> row{(long long)kProcs[i], nd.makespan, np.makespan,
                              t1_nd / nd.makespan, t1_np / np.makespan,
                              t1_nd / nd.makespan / p,
                              t1_np / np.makespan / p};
        if (misses) row.insert(row.end(), {nd.comm_cost, np.comm_cost});
        t.add_row(std::move(row));
      }
      return t;
    }});
  }
  return blocks;
}

std::string upper(std::string s) {
  for (char& c : s) c = char(std::toupper(static_cast<unsigned char>(c)));
  return s;
}

// E9: each policy's misses and makespan, then their ratios to the first
// policy's (one workload × one machine: runs arrive in policy order).
Blocks sb_vs_ws(const Policies& policies, bool misses) {
  std::vector<std::string> header;
  for (const std::string& p : policies) header.push_back(upper(p));
  for (std::size_t i = 1; i < policies.size(); ++i)
    header.push_back(upper(policies[i]) + "/" + upper(policies[0]));
  Blocks blocks;
  for (const Spot& at : {Spot{"MM", "mm:n=64", "flat16"},
                         Spot{"TRS", "trs:n=64", "flat16"},
                         Spot{"LCS", "lcs:n=256", "flat16"},
                         Spot{"MM(2-tier)", "mm:n=64", "deep4x4"}})
    blocks.push_back({block(at, policies, misses), [=](const Runs& runs) {
      Metrics rows;
      // `floored` divides by at least 1, for costs that may be zero.
      auto add = [&](std::string metric, auto stat, bool floored) {
        std::vector<double> v;
        for (const RunPoint& r : runs) v.push_back(stat(r.stats));
        const double base = floored ? std::max(1.0, v[0]) : v[0];
        for (std::size_t i = 1; i < runs.size(); ++i) v.push_back(v[i] / base);
        rows.emplace_back(std::move(metric), std::move(v));
      };
      const std::size_t levels = runs[0].stats.misses.size();
      for (std::size_t l = 0; l < levels; ++l)
        add("misses L" + std::to_string(l + 1),
            [l](const SchedStats& s) { return s.misses[l]; }, false);
      add("miss cost", [](const SchedStats& s) { return s.miss_cost; }, true);
      add("makespan", [](const SchedStats& s) { return s.makespan; }, false);
      for (std::size_t l = 0; misses && l < levels; ++l)
        add("Q L" + std::to_string(l + 1) + " (measured)",
            [l](const SchedStats& s) { return s.measured_misses[l]; }, true);
      if (misses)
        add("comm cost", [](const SchedStats& s) { return s.comm_cost; }, true);
      return metric_table(at.name, runs[0], header, rows);
    }});
  return blocks;
}

// EA: the σ axis under the chosen policy (A1), the α' axis under sb (A2).
PresetBlock sigma_sweep(const Policies& policies, bool misses,
                        const Spot& at) {
  Scenario s = block(at, policies, misses);
  s.sigmas = {0.1, 0.2, 1.0 / 3.0, 0.5, 0.8};
  return {std::move(s), [at, misses](const Runs& runs) {
    Table t("A1: sigma sweep — " + at.name + " on " + runs[0].machine_desc);
    std::vector<std::string> header{"sigma", "makespan", "misses_L1",
                                    "utilization"};
    if (misses) header.insert(header.end(), {"Q_L1", "comm_cost"});
    t.set_header(std::move(header));
    for (const RunPoint& r : runs) {
      const SchedStats& s = r.stats;
      std::vector<Cell> row{r.sigma, s.makespan, s.misses[0], s.utilization};
      if (misses) row.insert(row.end(), {s.measured_misses[0], s.comm_cost});
      t.add_row(std::move(row));
    }
    return t;
  }};
}

Blocks ablation(const Policies& policies, bool misses) {
  Scenario alpha = block({"alpha", "trs:n=64", "deep2x4"}, {"sb"}, false);
  alpha.alpha_primes = {0.25, 0.5, 0.75, 1.0};
  return {sigma_sweep(policies, misses, {"TRS n=64", "trs:n=64", "flat8"}),
          {std::move(alpha),
           [](const Runs& runs) {
             Table t("A2: allocation exponent sweep — TRS n=64");
             t.set_header({"alpha'", "makespan", "utilization", "anchors"});
             for (const RunPoint& r : runs)
               t.add_row({r.alpha_prime, r.stats.makespan,
                          r.stats.utilization, (long long)r.stats.anchors});
             return t;
           }},
          sigma_sweep(policies, misses,
                      {"LCS n=256", "lcs:n=256", "flat:p=8,m1=256,c1=10"})};
}

}  // namespace

const std::vector<Preset>& presets() {
  static const std::vector<Preset> table{
      {.name = "smoke",
       .description = "small fixed grid for CI (160 runs, fast)",
       .grid = smoke},
      {.name = "stress",
       .description = "large fixed grid (1008 cells of deep/wide generated "
                      "workloads) for perf measurement",
       .grid = stress},
      {.name = "sb_bounds",
       .description = "E7 sb-bounds/Thm 1+3",
       .claim = "Theorem 1: level-j misses <= Q*(t;sigma*Mj). Eq. 22/Thm 3: "
                "makespan within a constant factor vh of the balanced bound "
                "when machine parallelism < alpha_max.",
       .sched = "sb",
       .blocks = sb_bounds,
       .expected = "miss ratios <= 1 (Thm 1 holds); makespan ratio a small "
                   "constant (the vh overhead)."},
      {.name = "sb_scaling",
       .description = "E8 sb-scaling/ND vs NP",
       .claim = "Sec. 1+4: SB schedulers exploit the ND model's extra "
                "parallelizability — ND keeps near-linear speedup to larger "
                "p; NP TRS/Cholesky flatten early.",
       .sched = "sb",
       .blocks = sb_scaling,
       .expected = "eff_ND stays near 1 to higher p than eff_NP; the gap "
                   "widens with p (who wins: ND, by a growing factor)."},
      {.name = "sb_vs_ws",
       .description = "E9 sb-vs-ws/locality",
       .claim = "SB's anchoring bounds misses by Q*(sigma*M); random "
                "stealing reloads scattered footprints ([47,48]).",
       .sched = "sb,ws",
       .one_policy = false,
       .blocks = sb_vs_ws,
       .expected = "WS/SB miss ratio > 1 (often substantially); makespan "
                   "follows when miss costs dominate."},
      {.name = "ablation",
       .description = "EA ablations",
       .claim = "Design-choice ablations: boundedness sigma, allocation "
                "exponent, base-case size.",
       .sched = "sb",
       .blocks = ablation,
       .expected = "very small sigma serializes (capacity), sigma near 1 "
                   "overcommits caches without miss benefit in this model; "
                   "alpha' mainly shifts anchoring granularity; larger bases "
                   "cut strand counts but coarsen the DAG."},
  };
  return table;
}

const Preset& find_preset(const std::string& name) {
  const Preset* found = nullptr;
  std::string names;
  for (const Preset& p : presets()) {
    if (p.name == name) found = &p;
    names += (names.empty() ? "" : ", ") + p.name;
  }
  NDF_CHECK_MSG(found, "unknown preset '" << name << "' (presets: " << names
                                          << ")");
  return *found;
}

Runs run_preset(const Preset& p, const Policies& policies, bool misses,
                std::size_t jobs, std::ostream& os) {
  NDF_CHECK_MSG(p.blocks, "--preset=" << p.name << " is a grid preset");
  NDF_CHECK_MSG(!p.one_policy || policies.size() == 1,
                "--sched expects exactly one policy here, got "
                    << policies.size());
  NDF_CHECK_MSG(!policies.empty(), "--sched list must name a policy");
  print_heading(os, p.description, p.claim);
  Runs all;
  for (PresetBlock& b : p.blocks(policies, misses)) {
    Sweep sweep(std::move(b.scenario), jobs);
    const Runs& runs = sweep.run();
    b.view(runs).print(os);
    all.insert(all.end(), runs.begin(), runs.end());
  }
  os << "Expected shape: " << p.expected << "\n";
  return all;
}

}  // namespace ndf::exp
