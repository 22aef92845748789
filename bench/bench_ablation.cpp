// Ablations over the design choices DESIGN.md calls out:
//   A1 — dilation parameter σ (boundedness): capacity vs parallelism.
//   A2 — allocation exponent α' in gi(S): subcluster provisioning.
//   A3 — base-case size: span/overhead vs cache-complexity granularity.
// A1/A2 are thin wrappers over the sweep subsystem's σ and α' axes
// (src/exp/); A3 is analysis-only (no scheduling) and builds its trees
// through the same workload registry.
// Flags: --n=<size> --sched=<policy> (default sb; A1 applies to any
// registered policy, A2 is sb-specific), --json=<path>, --jobs=<n> (sweep
// workers; 0 = hardware concurrency), --misses (A1 grows measured Q_L1 +
// comm_cost columns; off keeps the legacy output byte-identical).
#include <cmath>

#include "analysis/pcc.hpp"
#include "bench_common.hpp"
#include "exp/sweep.hpp"
#include "nd/drs.hpp"

using namespace ndf;

namespace {

void sigma_sweep(bench::Output& out, const std::string& policy,
                 const std::string& name, const std::string& workload,
                 const std::string& machine, std::size_t jobs, bool misses) {
  exp::Scenario sc;
  sc.name = "ablation/sigma";
  sc.workloads = {exp::parse_workload(workload)};
  sc.machines = {machine};
  sc.policies = {policy};
  sc.sigmas = {0.1, 0.2, 1.0 / 3.0, 0.5, 0.8};
  sc.measure_misses = misses;
  exp::Sweep sweep(std::move(sc), jobs);
  const auto& runs = sweep.run();

  Table t("A1: sigma sweep — " + name + " on " + runs[0].machine_desc);
  std::vector<std::string> header{"sigma", "makespan", "misses_L1",
                                  "utilization"};
  if (misses) {
    header.push_back("Q_L1");
    header.push_back("comm_cost");
  }
  t.set_header(std::move(header));
  for (const exp::RunPoint& r : runs) {
    std::vector<Cell> row{r.sigma, r.stats.makespan, r.stats.misses[0],
                          r.stats.utilization};
    if (misses) {
      row.push_back(r.stats.measured_misses[0]);
      row.push_back(r.stats.comm_cost);
    }
    t.add_row(std::move(row));
  }
  out.emit(t);
}

void alpha_sweep(bench::Output& out, const std::string& name,
                 const std::string& workload, const std::string& machine,
                 std::size_t jobs) {
  exp::Scenario sc;
  sc.name = "ablation/alpha";
  sc.workloads = {exp::parse_workload(workload)};
  sc.machines = {machine};
  sc.policies = {"sb"};
  sc.alpha_primes = {0.25, 0.5, 0.75, 1.0};
  exp::Sweep sweep(std::move(sc), jobs);
  const auto& runs = sweep.run();

  Table t("A2: allocation exponent sweep — " + name);
  t.set_header({"alpha'", "makespan", "utilization", "anchors"});
  for (const exp::RunPoint& r : runs)
    t.add_row({r.alpha_prime, r.stats.makespan, r.stats.utilization,
               (long long)r.stats.anchors});
  out.emit(t);
}

void base_sweep(bench::Output& out, std::size_t n) {
  Table t("A3: base-case sweep — TRS n=" + std::to_string(n));
  t.set_header({"base", "strands", "span_ND", "span_NP", "Q*(M=768)"});
  for (std::size_t b : {2, 4, 8, 16}) {
    exp::WorkloadSpec spec{"trs", n, b, false, {}};
    SpawnTree tree = exp::build_workload_tree(spec);
    StrandGraph g = elaborate(tree);
    t.add_row({(long long)b, (long long)tree.strand_count(tree.root()),
               g.span(), elaborate(tree, {.np_mode = true}).span(),
               parallel_cache_complexity(tree, 768.0)});
  }
  out.emit(t);
}

int run(int argc, char** argv) {
  Args args(argc, argv);
  bench::reject_unknown_flags(args, {"n", "sched", "jobs", "misses", "json"},
                              "see the header of bench_ablation.cpp");
  const std::size_t n = std::size_t(args.get("n", 64LL));
  const std::string policy = bench::single_policy(args, "sb");
  const std::size_t jobs = bench::jobs_flag(args);
  const bool misses = bench::misses_flag(args);
  bench::Output out("EA ablations", args);
  bench::heading("EA ablations",
                 "Design-choice ablations: boundedness sigma, allocation "
                 "exponent, base-case size.");
  sigma_sweep(out, policy, "TRS n=" + std::to_string(n),
              "trs:n=" + std::to_string(n), "flat8", jobs, misses);
  alpha_sweep(out, "TRS n=" + std::to_string(n),
              "trs:n=" + std::to_string(n), "deep2x4", jobs);
  sigma_sweep(out, policy, "LCS n=" + std::to_string(4 * n),
              "lcs:n=" + std::to_string(4 * n), "flat:p=8,m1=256,c1=10", jobs,
              misses);
  base_sweep(out, n);
  std::cout << "Expected shape: very small sigma serializes (capacity), "
               "sigma near 1 overcommits caches without miss benefit in "
               "this model; alpha' mainly shifts anchoring granularity; "
               "larger bases cut strand counts but coarsen the DAG.\n";
  out.write_json();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argv[0], [&] { return run(argc, argv); });
}
