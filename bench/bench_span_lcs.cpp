// E1 — LCS span: NP Θ(n log n) vs ND Θ(n) (Sec. 1 Fig. 1, Sec. 3 Eq. 17).
// Regenerates the claim as a series of measured critical-path lengths.
#include <cmath>

#include "algos/lcs.hpp"
#include "bench_common.hpp"
#include "nd/drs.hpp"

using namespace ndf;

namespace {

int run() {
  bench::heading("E1 span/LCS",
                 "Claim: T_inf(LCS) = Theta(n log n) in NP vs Theta(n) in "
                 "ND (optimal).");
  Table t("LCS span vs n (base case 1 cell emulated by base=2)");
  t.set_header({"n", "span_ND", "span_NP", "ND/n", "NP/(n log2 n)"});
  std::vector<double> ns, nds, nps;
  for (std::size_t n : {64, 128, 256, 512, 1024}) {
    SpawnTree tree = make_lcs_tree(n, 2);
    const double nd = elaborate(tree).span();
    const double np = elaborate(tree, {.np_mode = true}).span();
    ns.push_back(double(n));
    nds.push_back(nd);
    nps.push_back(np);
    t.add_row({(long long)n, nd, np, nd / double(n),
               np / (double(n) * std::log2(double(n)))});
  }
  t.print(std::cout);
  bench::print_fit("ND span", ns, nds);
  bench::print_fit("NP span", ns, nps);
  std::cout << "Expected shape: ND exponent ~1.0; NP exponent >1 with "
               "NP/(n log n) ratio flat.\n";
  return 0;
}

}  // namespace

int main(int, char** argv) { return bench::run_main(argv[0], run); }
