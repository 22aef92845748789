// E6 — parallelizability αmax (Claims 2–3, Sec. 4): MM has
// αmax = 1 − log_M(1+c); the NP TRS drops to 1 − log_{min{N/M,M}}(1+c),
// strictly worse when N/M < M, while the ND TRS recovers MM-like αmax.
// We measure the Q̂α/Q* crossover on both elaborations of the same trees.
//
// Workloads come from the sweep subsystem's registry (src/exp/workload) so
// the grid here is the same spec strings ndf_sweep accepts; the analysis
// itself (αmax) has no scheduling component, so this wrapper expands the
// workload axis only.
#include "analysis/ecc.hpp"
#include "bench_common.hpp"
#include "exp/workload.hpp"
#include "nd/drs.hpp"

using namespace ndf;

namespace {

void sweep(const std::string& name, const std::string& algo,
           std::initializer_list<std::size_t> sizes, double M) {
  Table t(name + "  (alpha_max at M = " + std::to_string((long long)M) + ")");
  t.set_header({"n", "alpha_ND", "alpha_NP", "gap"});
  for (std::size_t n : sizes) {
    const exp::WorkloadSpec spec =
        exp::parse_workload(algo + ":n=" + std::to_string(n));
    SpawnTree tree = exp::build_workload_tree(spec);
    StrandGraph nd = elaborate(tree);
    StrandGraph np = elaborate(tree, {.np_mode = true});
    Decomposition d = decompose(tree, M);
    const double a_nd = parallelizability(tree, nd, d, 2.0);
    const double a_np = parallelizability(tree, np, d, 2.0);
    t.add_row({(long long)n, a_nd, a_np, a_nd - a_np});
  }
  t.print(std::cout);
}

int run() {
  bench::heading(
      "E6 parallelizability/Claims 2-3",
      "Claims 2-3: alpha_max(MM) ~ 1 - log_M(1+c); NP TRS loses "
      "parallelizability when N/M < M; ND TRS recovers it.");
  const double M = 3 * 8 * 8;
  sweep("MM", "mm", {32, 64, 128}, M);
  sweep("TRS", "trs", {32, 64, 128}, M);
  sweep("Cholesky", "cholesky", {32, 64, 128}, M);
  sweep("LCS", "lcs", {128, 256}, 32.0);
  std::cout << "Expected shape: alpha_ND >= alpha_NP everywhere; the gap is "
               "largest for TRS/Cholesky (the algorithms the NP model "
               "serializes), and MM shows little gap.\n";
  return 0;
}

}  // namespace

int main(int, char** argv) { return bench::run_main(argv[0], run); }
