// E9 — SB vs randomized work stealing: anchoring preserves locality while
// stealing scatters footprints (the empirical motivation from [47, 48]).
// Same DAGs, same machine, same atomic units; compare misses and makespan.
//
// Thin wrapper over the sweep subsystem (src/exp/): each comparison block
// is a one-workload × one-machine × N-policy Scenario, so the workload's
// condensation is built once and shared by every policy instead of being
// rebuilt per run. `ndf_sweep` runs the same grids (and arbitrary others)
// with consolidated output.
//
// Flags: --sched=sb,ws[,greedy,serial] (policies from the registry; the
// first is the ratio baseline), --json=<path>, --jobs=<n> (sweep workers;
// 0 = hardware concurrency, output identical at every value), --misses
// (adds measured-occupancy rows "Q L<i> (measured)" and "comm cost";
// without it the output is byte-identical to the pre-measurement bench).
#include <algorithm>
#include <cctype>

#include "bench_common.hpp"
#include "exp/sweep.hpp"

using namespace ndf;

namespace {

std::string upper(std::string s) {
  for (char& c : s) c = char(std::toupper(static_cast<unsigned char>(c)));
  return s;
}

void compare(bench::Output& out, const std::vector<std::string>& policies,
             const std::string& name, const std::string& workload,
             const std::string& machine, std::size_t jobs, bool misses) {
  exp::Scenario sc;
  sc.name = "sb_vs_ws/" + name;
  sc.workloads = {exp::parse_workload(workload)};
  sc.machines = {machine};
  sc.policies = policies;
  sc.measure_misses = misses;
  exp::Sweep sweep(std::move(sc), jobs);
  const std::vector<exp::RunPoint>& runs = sweep.run();
  // One workload × one machine × one σ: runs arrive in policy order.
  const std::size_t levels = runs[0].stats.misses.size();

  Table t(name + " n=" + std::to_string(runs[0].workload.n) + " on " +
          runs[0].machine_desc);
  std::vector<std::string> header{"metric"};
  for (const std::string& p : policies) header.push_back(upper(p));
  for (std::size_t i = 1; i < policies.size(); ++i)
    header.push_back(upper(policies[i]) + "/" + upper(policies[0]));
  t.set_header(header);

  auto add = [&](const std::string& metric, auto value, auto ratio) {
    std::vector<Cell> row{metric};
    for (std::size_t i = 0; i < runs.size(); ++i) row.emplace_back(value(i));
    for (std::size_t i = 1; i < runs.size(); ++i) row.emplace_back(ratio(i));
    t.add_row(std::move(row));
  };
  for (std::size_t l = 1; l <= levels; ++l)
    add(std::string("misses L") + std::to_string(l),
        [&](std::size_t i) { return runs[i].stats.misses[l - 1]; },
        [&](std::size_t i) {
          return runs[i].stats.misses[l - 1] / runs[0].stats.misses[l - 1];
        });
  add(std::string("miss cost"),
      [&](std::size_t i) { return runs[i].stats.miss_cost; },
      [&](std::size_t i) {
        return runs[i].stats.miss_cost / std::max(1.0, runs[0].stats.miss_cost);
      });
  add(std::string("makespan"),
      [&](std::size_t i) { return runs[i].stats.makespan; },
      [&](std::size_t i) {
        return runs[i].stats.makespan / runs[0].stats.makespan;
      });
  if (misses) {
    for (std::size_t l = 1; l <= levels; ++l)
      add("Q L" + std::to_string(l) + " (measured)",
          [&](std::size_t i) { return runs[i].stats.measured_misses[l - 1]; },
          [&](std::size_t i) {
            return runs[i].stats.measured_misses[l - 1] /
                   std::max(1.0, runs[0].stats.measured_misses[l - 1]);
          });
    add(std::string("comm cost"),
        [&](std::size_t i) { return runs[i].stats.comm_cost; },
        [&](std::size_t i) {
          return runs[i].stats.comm_cost /
                 std::max(1.0, runs[0].stats.comm_cost);
        });
  }
  out.emit(t);
}

int run(int argc, char** argv) {
  Args args(argc, argv);
  bench::reject_unknown_flags(args, {"sched", "jobs", "misses", "json"},
                              "see the header of bench_sb_vs_ws.cpp");
  const auto policies =
      parse_sched_list(args.get("sched", std::string("sb,ws")));
  NDF_CHECK_MSG(!policies.empty(), "--sched list must name a policy");
  const std::size_t jobs = bench::jobs_flag(args);
  const bool misses = bench::misses_flag(args);
  bench::Output out("E9 sb-vs-ws/locality", args);
  bench::heading("E9 sb-vs-ws/locality",
                 "SB's anchoring bounds misses by Q*(sigma*M); random "
                 "stealing reloads scattered footprints ([47,48]).");
  compare(out, policies, "MM", "mm:n=64", "flat16", jobs, misses);
  compare(out, policies, "TRS", "trs:n=64", "flat16", jobs, misses);
  compare(out, policies, "LCS", "lcs:n=256", "flat16", jobs, misses);
  compare(out, policies, "MM(2-tier)", "mm:n=64", "deep4x4", jobs, misses);
  std::cout << "Expected shape: WS/SB miss ratio > 1 (often substantially); "
               "makespan follows when miss costs dominate.\n";
  out.write_json();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argv[0], [&] { return run(argc, argv); });
}
