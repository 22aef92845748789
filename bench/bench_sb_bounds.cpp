// E7 — SB scheduler bounds: Theorem 1 (misses at level j ≤ Q*(t;σMj)) and
// Theorem 3 / Eq. 22 (makespan within a modest factor of the perfectly
// balanced (T1 + Σ Q*(σMi)·Ci)/p when parallelism suffices).
//
// Flags: --sched=<policy> (default sb; ws/greedy show how far a
// non-space-bounded policy strays from the same bounds), --json=<path>.
#include "algos/lcs.hpp"
#include "algos/matmul.hpp"
#include "algos/trs.hpp"
#include "analysis/pcc.hpp"
#include "bench_common.hpp"
#include "nd/drs.hpp"
#include "sched/registry.hpp"
#include "sched/sb_scheduler.hpp"

using namespace ndf;

namespace {

template <typename Make>
void run(bench::Output& out, const std::string& policy,
         const std::string& name, Make make, std::size_t n, const Pmh& m) {
  SpawnTree tree = make(n, 4);
  StrandGraph g = elaborate(tree);
  SchedOptions opts;
  const SchedStats s = run_scheduler(policy, g, m, opts);
  const double ideal = sb_balanced_bound(tree, m, opts.sigma);

  Table t(name + " n=" + std::to_string(n) + " on " + m.to_string());
  t.set_header({"metric", "value", "bound", "ratio"});
  for (std::size_t l = 1; l <= m.num_cache_levels(); ++l) {
    const double q = parallel_cache_complexity(tree,
                                               opts.sigma * m.cache_size(l));
    t.add_row({std::string("misses L") + std::to_string(l), s.misses[l - 1],
               q, s.misses[l - 1] / q});
  }
  t.add_row({std::string("makespan"), s.makespan, ideal, s.makespan / ideal});
  t.add_row({std::string("utilization"), s.utilization, 1.0, s.utilization});
  out.emit(t);
}

int run(int argc, char** argv) {
  Args args(argc, argv);
  bench::reject_unknown_flags(args, {"sched", "json"},
                              "see the header of bench_sb_bounds.cpp");
  const std::string policy = bench::single_policy(args, "sb");
  bench::Output out("E7 sb-bounds/Thm 1+3", args);
  bench::heading("E7 sb-bounds/Thm 1+3",
                 "Theorem 1: level-j misses <= Q*(t;sigma*Mj). Eq. 22/Thm 3: "
                 "makespan within a constant factor vh of the balanced "
                 "bound when machine parallelism < alpha_max.");
  Pmh flat(PmhConfig::flat(8, 3 * 16 * 16, 10));
  Pmh deep(PmhConfig::two_tier(2, 4, 3 * 8 * 8, 3 * 32 * 32, 3, 30));
  run(out, policy, "MM(flat)",
      [](std::size_t n, std::size_t b) { return make_mm_tree(n, b); }, 64,
      flat);
  run(out, policy, "TRS(flat)", make_trs_tree, 64, flat);
  run(out, policy, "LCS(flat)", make_lcs_tree, 256, flat);
  run(out, policy, "MM(2-tier)",
      [](std::size_t n, std::size_t b) { return make_mm_tree(n, b); }, 64,
      deep);
  run(out, policy, "TRS(2-tier)", make_trs_tree, 64, deep);
  std::cout << "Expected shape: miss ratios <= 1 (Thm 1 holds); makespan "
               "ratio a small constant (the vh overhead).\n";
  out.write_json();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argv[0], [&] { return run(argc, argv); });
}
