// E8 — the headline scheduling experiment: the SB scheduler can use more
// processors on ND programs than on NP programs (Sec. 1: with input
// N > M_{h-1}, ND stays efficient out to ~N^{1-c}/M_{h-1} subclusters,
// while NP TRS/Cholesky lose efficiency much earlier). We sweep processor
// counts and report speedup and efficiency for both elaborations.
//
// Thin wrapper over the sweep subsystem: one Scenario per algorithm with
// the ND and NP elaborations as two workloads and the processor axis as
// seven flat machines sharing one cache profile — so each elaboration's
// condensation is built once and reused across the whole p sweep.
//
// Flags: --sched=<policy> (default sb — any registry policy can be swept),
// --json=<path>, --jobs=<n> (sweep workers; 0 = hardware concurrency),
// --misses (grows measured comm-cost columns for both elaborations; off
// keeps the legacy output byte-identical).
#include <sstream>

#include "bench_common.hpp"
#include "exp/sweep.hpp"

using namespace ndf;

namespace {

const std::size_t kProcs[] = {1, 2, 4, 8, 16, 32, 64};

void sweep(bench::Output& out, const std::string& policy,
           const std::string& name, const std::string& algo, std::size_t n,
           double M1, std::size_t jobs, bool misses) {
  exp::Scenario sc;
  sc.name = "sb_scaling/" + name;
  std::ostringstream nd, np;
  nd << algo << ":n=" << n;
  np << algo << ":n=" << n << ",np";
  sc.workloads = {exp::parse_workload(nd.str()), exp::parse_workload(np.str())};
  for (std::size_t p : kProcs) {
    std::ostringstream m;
    m << "flat:p=" << p << ",m1=" << M1 << ",c1=10";
    sc.machines.push_back(m.str());
  }
  sc.policies = {policy};
  sc.measure_misses = misses;
  exp::Sweep sw(std::move(sc), jobs);
  const auto& runs = sw.run();
  // Grid order is workload-major: runs[m] is ND on machine m, runs[P + m]
  // is NP on machine m.
  const std::size_t P = std::size(kProcs);

  Table t(name + " n=" + std::to_string(n) + ": " + policy +
          " speedup vs p (flat PMH, M1=" + std::to_string((long long)M1) +
          ")");
  std::vector<std::string> header{"p",          "T_ND",   "T_NP",
                                  "speedup_ND", "speedup_NP", "eff_ND",
                                  "eff_NP"};
  if (misses) {
    header.push_back("comm_ND");
    header.push_back("comm_NP");
  }
  t.set_header(std::move(header));
  const double t1_nd = runs[0].stats.makespan;
  const double t1_np = runs[P].stats.makespan;
  for (std::size_t i = 0; i < P; ++i) {
    const double p = double(kProcs[i]);
    const double ms_nd = runs[i].stats.makespan;
    const double ms_np = runs[P + i].stats.makespan;
    std::vector<Cell> row{(long long)kProcs[i], ms_nd, ms_np, t1_nd / ms_nd,
                          t1_np / ms_np, t1_nd / ms_nd / p,
                          t1_np / ms_np / p};
    if (misses) {
      row.emplace_back(runs[i].stats.comm_cost);
      row.emplace_back(runs[P + i].stats.comm_cost);
    }
    t.add_row(std::move(row));
  }
  out.emit(t);
}

int run(int argc, char** argv) {
  Args args(argc, argv);
  bench::reject_unknown_flags(args, {"sched", "jobs", "misses", "json"},
                              "see the header of bench_sb_scaling.cpp");
  const std::string policy = bench::single_policy(args, "sb");
  const std::size_t jobs = bench::jobs_flag(args);
  const bool misses = bench::misses_flag(args);
  bench::Output out("E8 sb-scaling/ND vs NP", args);
  bench::heading("E8 sb-scaling/ND vs NP",
                 "Sec. 1+4: SB schedulers exploit the ND model's extra "
                 "parallelizability — ND keeps near-linear speedup to "
                 "larger p; NP TRS/Cholesky flatten early.");
  sweep(out, policy, "TRS", "trs", 128, 3 * 16 * 16, jobs, misses);
  sweep(out, policy, "Cholesky", "cholesky", 128, 3 * 16 * 16, jobs, misses);
  sweep(out, policy, "LCS", "lcs", 512, 64, jobs, misses);
  std::cout << "Expected shape: eff_ND stays near 1 to higher p than "
               "eff_NP; the gap widens with p (who wins: ND, by a growing "
               "factor).\n";
  out.write_json();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argv[0], [&] { return run(argc, argv); });
}
