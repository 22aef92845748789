// E3 — Cholesky span: NP Θ(n log² n) vs ND Θ(n) (Sec. 3 Eqs. 10–12).
#include <cmath>

#include "algos/cholesky.hpp"
#include "bench_common.hpp"
#include "nd/drs.hpp"

using namespace ndf;

namespace {

int run() {
  bench::heading("E3 span/Cholesky",
                 "Claim: T_inf(CHO) = Theta(n log^2 n) in NP vs Theta(n) in "
                 "ND (Eq. 12 solves to O(n)).");
  Table t("Cholesky span vs n");
  t.set_header({"n", "span_ND", "span_NP", "ND/n", "NP/(n log2^2 n)"});
  std::vector<double> ns, nds, nps;
  for (std::size_t n : {16, 32, 64, 128, 256}) {
    SpawnTree tree = make_cholesky_tree(n, 2);
    const double nd = elaborate(tree).span();
    const double np = elaborate(tree, {.np_mode = true}).span();
    const double l = std::log2(double(n));
    ns.push_back(double(n));
    nds.push_back(nd);
    nps.push_back(np);
    t.add_row({(long long)n, nd, np, nd / double(n), np / (double(n) * l * l)});
  }
  t.print(std::cout);
  bench::print_fit("ND span", ns, nds);
  bench::print_fit("NP span", ns, nps);
  std::cout << "Expected shape: ND exponent ~1.0; NP/(n log^2 n) roughly "
               "flat.\n";
  return 0;
}

}  // namespace

int main(int, char** argv) { return bench::run_main(argv[0], run); }
