// E12 — structural comparison of workload DAGs in the two models: strand
// counts, work/span/parallelism, and wavefront (parallelism profile)
// widths. This is the table form of the paper's Figs. 1, 6, 8, 11: the
// same spawn tree, drastically different available parallelism.
//
// Driven by the workload registry (src/exp/workload), so any spec works —
// the eight transcribed algorithms and generated "gen:family=..."
// workloads alike. Each spec's tree is elaborated twice (ND and the NP
// serial elision); a spec's own `np` flag is irrelevant here.
//
//   bench_dag_stats                                  # the paper's table
//   bench_dag_stats --workloads='gen:family=wavefront,n=32;lcs:n=64'
//   bench_dag_stats --json=BENCH_dag_stats.json
#include "bench_common.hpp"
#include "exp/workload.hpp"
#include "nd/drs.hpp"
#include "nd/stats.hpp"

using namespace ndf;

namespace {

// The historical E12 rows (base-8 trees at the paper's sizes).
const char* kPaperSpecs =
    "mm:n=64,base=8;trs:n=64,base=8;cholesky:n=64,base=8;lu:n=64,base=8;"
    "lcs:n=256,base=8;gotoh:n=256,base=8;fw1d:n=256,base=8;fw2d:n=64,base=8";

void row(Table& t, const exp::WorkloadSpec& spec) {
  const SpawnTree tree = exp::build_workload_tree(spec);
  const DagStats nd = compute_stats(elaborate(tree));
  const DagStats np = compute_stats(elaborate(tree, {.np_mode = true}));
  t.add_row({spec.label(), (long long)nd.strands, nd.work, nd.span, np.span,
             nd.parallelism, np.parallelism,
             (long long)nd.max_level_width, (long long)np.max_level_width});
}

int run(int argc, char** argv) {
  Args args(argc, argv);
  bench::reject_unknown_flags(args, {"workloads", "json"},
                              "see the header of bench_dag_stats.cpp");

  bench::Output out("dag_stats", args);
  bench::heading("E12 dag-stats",
                 "Same spawn trees, two semantics: the ND elaboration's "
                 "parallelism (T1/T_inf) and wavefront width vs the NP "
                 "serial elision.");
  const bool custom = args.has("workloads");
  const auto specs = exp::parse_workload_list(
      args.get("workloads", std::string(kPaperSpecs)));
  NDF_CHECK_MSG(!specs.empty(), "no workloads — pass --workloads=...");

  Table t("algorithm DAGs (ND vs NP)");
  t.set_header({"workload", "strands", "work", "span_ND", "span_NP",
                "par_ND", "par_NP", "width_ND", "width_NP"});
  for (const exp::WorkloadSpec& s : specs) row(t, s);
  out.emit(t);
  if (!custom)
    std::cout << "Expected shape: par_ND >> par_NP for TRS/CHO/LCS/GOTOH/"
                 "FW1D (the paper's algorithms); MM similar in both "
                 "models.\n";
  out.write_json();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argv[0], [&] { return run(argc, argv); });
}
