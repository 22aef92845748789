// Inspect an algorithm's spawn tree and algorithm DAG: DOT export, DAG
// statistics and the wavefront (parallelism) profile, for the ND and NP
// semantics side by side.
//
//   ./inspect_dag --algo=lcs --n=64 --base=8 [--dot]
//                 [--sched=sb,ws,greedy,serial] [--p=8] [--M1=768]
//
// With --dot, prints the Graphviz sources (pipe into `dot -Tsvg`).
// With --sched, simulates the named registry policies on a flat PMH of
// --p processors with --M1-word caches and tabulates makespan and misses.
// An unknown flag or a bad value exits 2 with one `inspect_dag: <message>`
// line on stderr.
#include <iostream>

#include "algos/cholesky.hpp"
#include "algos/fw1d.hpp"
#include "algos/lcs.hpp"
#include "algos/trs.hpp"
#include "nd/dot.hpp"
#include "nd/drs.hpp"
#include "nd/stats.hpp"
#include "sched/registry.hpp"
#include "support/args.hpp"
#include "support/table.hpp"

using namespace ndf;

namespace {

int inspect(int argc, char** argv) {
  Args args(argc, argv);
  reject_unknown_flags(args, {"algo", "n", "base", "dot", "sched", "p", "M1"},
                       "see the header of examples/inspect_dag.cpp");
  const std::string algo = args.get("algo", std::string("lcs"));
  const std::size_t n = std::size_t(args.get("n", 64LL));
  const std::size_t base = std::size_t(args.get("base", 8LL));

  SpawnTree tree = [&] {
    if (algo == "lcs") return make_lcs_tree(n, base);
    if (algo == "trs") return make_trs_tree(n, base);
    if (algo == "cho") return make_cholesky_tree(n, base);
    if (algo == "fw1d") return make_fw1d_tree(n, base);
    NDF_CHECK_MSG(false, "unknown --algo=" << algo
                                           << " (lcs|trs|cho|fw1d)");
    return make_lcs_tree(n, base);
  }();

  StrandGraph nd = elaborate(tree);
  StrandGraph np = elaborate(tree, {.np_mode = true});
  const DagStats snd = compute_stats(nd);
  const DagStats snp = compute_stats(np);

  std::cout << algo << " n=" << n << " base=" << base << ": "
            << tree.num_nodes() << " spawn nodes, " << snd.strands
            << " strands\n\n";
  Table t("ND vs NP");
  t.set_header({"metric", "ND", "NP"});
  t.add_row({std::string("edges"), (long long)snd.edges,
             (long long)snp.edges});
  t.add_row({std::string("span"), snd.span, snp.span});
  t.add_row({std::string("parallelism"), snd.parallelism, snp.parallelism});
  t.add_row({std::string("depth levels"), (long long)snd.depth_levels,
             (long long)snp.depth_levels});
  t.add_row({std::string("max wavefront"), (long long)snd.max_level_width,
             (long long)snp.max_level_width});
  t.print(std::cout);

  std::cout << "\nwavefront profile (strands ready per dependence depth):\n";
  const auto prof = parallelism_profile(nd);
  const auto prof_np = parallelism_profile(np);
  const std::size_t show = std::min<std::size_t>(prof.size(), 24);
  for (std::size_t d = 0; d < show; ++d) {
    std::cout << "  d" << d << "  ND " << std::string(prof[d], '#');
    if (d < prof_np.size())
      std::cout << "   NP " << std::string(prof_np[d], '+');
    std::cout << "\n";
  }
  if (prof.size() > show)
    std::cout << "  ... (" << prof.size() - show << " more levels)\n";

  const auto policies =
      parse_sched_list(args.get("sched", std::string("")));
  if (!policies.empty()) {
    Pmh m(PmhConfig::flat(std::size_t(args.get("p", 8LL)),
                          args.get("M1", 768.0), 10.0));
    Table st("simulated schedulers on " + m.to_string() +
             " (ND elaboration)");
    st.set_header({"policy", "makespan", "misses_L1", "utilization",
                   "anchors", "steals"});
    for (const std::string& p : policies) {
      const SchedStats s = run_scheduler(p, nd, m);
      st.add_row({p, s.makespan, s.misses[0], s.utilization,
                  (long long)s.anchors, (long long)s.steals});
    }
    std::cout << "\n";
    st.print(std::cout);
  }

  if (args.get("dot", false)) {
    std::cout << "\n--- spawn tree (DOT) ---\n" << to_dot(tree);
    std::cout << "\n--- algorithm DAG (DOT) ---\n" << to_dot(nd);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run_main(argv[0], [&] { return inspect(argc, argv); });
}
