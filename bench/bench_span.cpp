// E1–E4 — critical-path length (span) of the Sec. 3 algorithms in ND vs NP:
//   E1 LCS       NP Θ(n log n)   vs ND Θ(n)  (Sec. 1 Fig. 1, Sec. 3 Eq. 17)
//   E2 TRS       NP Θ(n log n)   vs ND Θ(n)  (Sec. 3 Eq. 4, Fig. 8: the DAG
//                cross-section's longest path is O(n))
//   E3 Cholesky  NP Θ(n log² n)  vs ND Θ(n)  (Sec. 3 Eqs. 10–12)
//   E4 FW1D      NP Θ(n log n)   vs ND Θ(n)  (Eq. 15), and LU with partial
//                pivoting: ND O(m log n), NP pays an extra log (Sec. 3)
// Each claim is regenerated as a series of measured spans with fitted
// growth exponents. The grid is fixed; the driver takes no flags.
#include <cmath>

#include "algos/cholesky.hpp"
#include "algos/fw1d.hpp"
#include "algos/lcs.hpp"
#include "algos/lu.hpp"
#include "algos/trs.hpp"
#include "bench_common.hpp"
#include "nd/drs.hpp"

using namespace ndf;

namespace {

/// A normalised column of a span table: its header and its value from
/// (n, ND span, NP span).
struct Ratio {
  const char* name;
  double (*of)(double n, double nd, double np);
};

const Ratio kNdPerN{"ND/n",
                    [](double n, double nd, double) { return nd / n; }};
const Ratio kNpPerNLogN{"NP/(n log2 n)", [](double n, double, double np) {
                          return np / (n * std::log2(n));
                        }};

/// One ND-vs-NP span series: elaborates `make(n, base)` in both modes for
/// each n, prints the table with two normalised columns, then the fitted
/// span exponents (`fit_np` = false fits the ND series only).
void span_series(const std::string& title, const std::string& fit_prefix,
                 SpawnTree (*make)(std::size_t, std::size_t), std::size_t base,
                 std::initializer_list<std::size_t> sizes, Ratio nd_col,
                 Ratio np_col, bool fit_np = true) {
  Table t(title);
  t.set_header({"n", "span_ND", "span_NP", nd_col.name, np_col.name});
  std::vector<double> ns, nds, nps;
  for (std::size_t n : sizes) {
    SpawnTree tree = make(n, base);
    const double nd = elaborate(tree).span();
    const double np = elaborate(tree, {.np_mode = true}).span();
    ns.push_back(double(n));
    nds.push_back(nd);
    nps.push_back(np);
    t.add_row({(long long)n, nd, np, nd_col.of(double(n), nd, np),
               np_col.of(double(n), nd, np)});
  }
  t.print(std::cout);
  bench::print_fit(fit_prefix + "ND span", ns, nds);
  if (fit_np) bench::print_fit(fit_prefix + "NP span", ns, nps);
}

int run(int argc, char** argv) {
  Args args(argc, argv);
  bench::reject_unknown_flags(args, {}, "a fixed grid: it takes no flags");

  bench::heading("E1 span/LCS",
                 "Claim: T_inf(LCS) = Theta(n log n) in NP vs Theta(n) in "
                 "ND (optimal).");
  span_series("LCS span vs n (base case 1 cell emulated by base=2)", "",
              make_lcs_tree, 2, {64, 128, 256, 512, 1024}, kNdPerN,
              kNpPerNLogN);
  std::cout << "Expected shape: ND exponent ~1.0; NP exponent >1 with "
               "NP/(n log n) ratio flat.\n";

  bench::heading("E2 span/TRS",
                 "Claim: T_inf(TRS) = Theta(n log n) in NP vs Theta(n) in "
                 "ND; Fig. 8's cross-section chain is O(n).");
  span_series("TRS span vs n", "", make_trs_tree, 2, {16, 32, 64, 128, 256},
              kNdPerN, kNpPerNLogN);
  std::cout << "Expected shape: ND exponent ~1.0 (optimal), NP strictly "
               "above; crossover favors ND at every n.\n";

  bench::heading("E3 span/Cholesky",
                 "Claim: T_inf(CHO) = Theta(n log^2 n) in NP vs Theta(n) in "
                 "ND (Eq. 12 solves to O(n)).");
  span_series("Cholesky span vs n", "", make_cholesky_tree, 2,
              {16, 32, 64, 128, 256}, kNdPerN,
              {"NP/(n log2^2 n)", [](double n, double, double np) {
                 const double l = std::log2(n);
                 return np / (n * l * l);
               }});
  std::cout << "Expected shape: ND exponent ~1.0; NP/(n log^2 n) roughly "
               "flat.\n";

  bench::heading("E4 span/FW1D+LU",
                 "Claims: FW1D NP Theta(n log n) vs ND Theta(n) (Eq. 15); "
                 "LU ND O(n log n) vs NP O(n log^2 n) for square n.");
  span_series("1D Floyd-Warshall span vs n", "FW1D ", make_fw1d_tree, 2,
              {64, 128, 256, 512, 1024}, kNdPerN, kNpPerNLogN);
  span_series("LU (partial pivoting) span vs n", "LU ", make_lu_tree, 4,
              {16, 32, 64, 128, 256},
              {"ND/(n log2 n)", [](double n, double nd, double) {
                 return nd / (n * std::log2(n));
               }},
              {"NP/ND", [](double, double nd, double np) { return np / nd; }},
              /*fit_np=*/false);
  std::cout << "Expected shape: FW1D ND exponent ~1.0; LU keeps one log "
               "factor in ND (pivoting) and gains one over NP.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argv[0], [&] { return run(argc, argv); });
}
