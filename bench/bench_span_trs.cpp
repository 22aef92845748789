// E2 — TRS span: NP Θ(n log n) vs ND Θ(n) (Sec. 3 Eq. 4, Fig. 8: the DAG
// cross-section's longest path is O(n)).
#include <cmath>

#include "algos/trs.hpp"
#include "bench_common.hpp"
#include "nd/drs.hpp"

using namespace ndf;

namespace {

int run() {
  bench::heading("E2 span/TRS",
                 "Claim: T_inf(TRS) = Theta(n log n) in NP vs Theta(n) in "
                 "ND; Fig. 8's cross-section chain is O(n).");
  Table t("TRS span vs n");
  t.set_header({"n", "span_ND", "span_NP", "ND/n", "NP/(n log2 n)"});
  std::vector<double> ns, nds, nps;
  for (std::size_t n : {16, 32, 64, 128, 256}) {
    SpawnTree tree = make_trs_tree(n, 2);
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
  std::cout << "Expected shape: ND exponent ~1.0 (optimal), NP strictly "
               "above; crossover favors ND at every n.\n";
  return 0;
}

}  // namespace

int main(int, char** argv) { return bench::run_main(argv[0], run); }
