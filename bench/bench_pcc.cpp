// E5 — parallel cache complexity (Claim 1): for N = n×n inputs, MM, TRS,
// Cholesky and 2D Floyd-Warshall have Q*(N;M) = O(N^1.5/M^0.5); LCS has
// Q*(n;M) = O(n²/M). Identical in NP and ND (the decomposition ignores
// composition constructs), which we also report.
#include <cmath>

#include "algos/cholesky.hpp"
#include "algos/fw2d.hpp"
#include "algos/lcs.hpp"
#include "algos/matmul.hpp"
#include "algos/trs.hpp"
#include "analysis/pcc.hpp"
#include "bench_common.hpp"

using namespace ndf;

namespace {

template <typename Make>
void sweep(const std::string& name, Make make,
           std::initializer_list<std::size_t> sizes, double M,
           double norm_exp_n, double norm_exp_m) {
  Table t(name + "  (M = " + std::to_string((long long)M) + ")");
  t.set_header({"n", "Q*", "Q*/(n^a/M^b)"});
  std::vector<double> ns, qs;
  for (std::size_t n : sizes) {
    SpawnTree tree = make(n, 4);
    const double q = parallel_cache_complexity(tree, M);
    ns.push_back(double(n));
    qs.push_back(q);
    t.add_row({(long long)n, q,
               q / (std::pow(double(n), norm_exp_n) /
                    std::pow(M, norm_exp_m))});
  }
  t.print(std::cout);
  bench::print_fit(name + " Q* vs n", ns, qs);
}

int run(int argc, char** argv) {
  Args args(argc, argv);
  bench::reject_unknown_flags(args, {}, "a fixed grid: it takes no flags");
  bench::heading("E5 pcc/Claim 1",
                 "Claim 1: Q*(N;M) = O(N^1.5/M^0.5) = O(n^3/sqrt(M)) for "
                 "MM/TRS/CHO/FW2D; Q*(n;M) = O(n^2/M) for LCS.");
  const double M = 3 * 16 * 16;
  sweep("MM", [](std::size_t n, std::size_t b) { return make_mm_tree(n, b); },
        {32, 64, 128, 256}, M, 3.0, 0.5);
  sweep("TRS", make_trs_tree, {32, 64, 128, 256}, M, 3.0, 0.5);
  sweep("Cholesky", make_cholesky_tree, {32, 64, 128, 256}, M, 3.0, 0.5);
  sweep("FW2D", make_fw2d_tree, {16, 32, 64, 128}, M, 3.0, 0.5);
  sweep("LCS", make_lcs_tree, {128, 256, 512, 1024}, 64.0, 2.0, 1.0);

  // M-dependence at fixed n: MM should halve Q* per 4x M; LCS per 2x M.
  Table t("M sweep at fixed n");
  t.set_header({"algo", "M", "Q*"});
  for (double m : {48.0, 192.0, 768.0, 3072.0}) {
    t.add_row({std::string("MM n=128"), m,
               parallel_cache_complexity(make_mm_tree(128, 4), m)});
  }
  for (double m : {32.0, 64.0, 128.0, 256.0}) {
    t.add_row({std::string("LCS n=512"), m,
               parallel_cache_complexity(make_lcs_tree(512, 4), m)});
  }
  t.print(std::cout);
  std::cout << "Expected shape: exponents ~3 (dense) and ~2 (LCS); Q* "
               "falls like 1/sqrt(M) (dense) and 1/M (LCS).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argv[0], [&] { return run(argc, argv); });
}
