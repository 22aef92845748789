// E4 — spans of 1D Floyd-Warshall (Eq. 15: NP Θ(n log n) → ND Θ(n)) and of
// LU with partial pivoting (Sec. 3: ND O(m log n); NP pays an extra log).
#include <cmath>

#include "algos/fw1d.hpp"
#include "algos/lu.hpp"
#include "bench_common.hpp"
#include "nd/drs.hpp"

using namespace ndf;

namespace {

int run() {
  bench::heading("E4 span/FW1D+LU",
                 "Claims: FW1D NP Theta(n log n) vs ND Theta(n) (Eq. 15); "
                 "LU ND O(n log n) vs NP O(n log^2 n) for square n.");
  {
    Table t("1D Floyd-Warshall span vs n");
    t.set_header({"n", "span_ND", "span_NP", "ND/n", "NP/(n log2 n)"});
    std::vector<double> ns, nds, nps;
    for (std::size_t n : {64, 128, 256, 512, 1024}) {
      SpawnTree tree = make_fw1d_tree(n, 2);
      const double nd = elaborate(tree).span();
      const double np = elaborate(tree, {.np_mode = true}).span();
      ns.push_back(double(n));
      nds.push_back(nd);
      nps.push_back(np);
      t.add_row({(long long)n, nd, np, nd / double(n),
                 np / (double(n) * std::log2(double(n)))});
    }
    t.print(std::cout);
    bench::print_fit("FW1D ND span", ns, nds);
    bench::print_fit("FW1D NP span", ns, nps);
  }
  {
    Table t("LU (partial pivoting) span vs n");
    t.set_header({"n", "span_ND", "span_NP", "ND/(n log2 n)", "NP/ND"});
    std::vector<double> ns, nds;
    for (std::size_t n : {16, 32, 64, 128, 256}) {
      SpawnTree tree = make_lu_tree(n, 4);
      const double nd = elaborate(tree).span();
      const double np = elaborate(tree, {.np_mode = true}).span();
      ns.push_back(double(n));
      nds.push_back(nd);
      t.add_row({(long long)n, nd, np,
                 nd / (double(n) * std::log2(double(n))), np / nd});
    }
    t.print(std::cout);
    bench::print_fit("LU ND span", ns, nds);
  }
  std::cout << "Expected shape: FW1D ND exponent ~1.0; LU keeps one log "
               "factor in ND (pivoting) and gains one over NP.\n";
  return 0;
}

}  // namespace

int main(int, char** argv) { return bench::run_main(argv[0], run); }
