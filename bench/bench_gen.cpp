// bench_gen — harness for the synthetic workload generator (src/gen/).
//
// Builds every requested workload spec (gen: or named), elaborates it, and
// prints one row per spec: structure (strands, edges, work, span,
// parallelism, wavefront width), the generated rule-table size, and the
// legality verdict (nd/validate + acyclicity + analysis/determinacy over
// the synthetic footprints). Exits non-zero if any spec fails legality —
// which makes this binary double as the generator's CI gate.
//
// Flags:
//   --workloads=<spec;spec;...>  any registry spec (default: a showcase of
//                                every gen family plus a random-sp spread)
//   --fuzz=<n>                   generate 2n workloads from n seeds (random
//                                sp + a structured family each), validate
//                                all, print a summary — the CI fuzz-smoke
//   --dump-dot=<path>            DOT of the first workload's strand DAG
//   --json=<path>                mirror the table (bench_common Output)
#include <iostream>

#include "bench_common.hpp"
#include "gen/gen.hpp"
#include "nd/stats.hpp"

using namespace ndf;

namespace {

const char* kShowcase =
    "gen:family=chain,n=64;"
    "gen:family=forkjoin,depth=8,fan=8;"
    "gen:family=diamond,depth=4,fan=6;"
    "gen:family=wavefront,n=24;"
    "gen:family=sp,depth=6,fan=3,seed=1;"
    "gen:family=sp,depth=8,fan=2,seed=2;"
    "gen:family=sp,depth=4,fan=6,seed=3,cross=60";

/// One table row; returns whether the spec passed every legality check.
bool add_row(Table& t, const exp::WorkloadSpec& spec) {
  const SpawnTree tree = exp::build_workload_tree(spec);
  const gen::GenReport rep = gen::check_generated(tree, spec.np);
  const DagStats st = compute_stats(elaborate(tree, {.np_mode = spec.np}));
  std::size_t rules = 0;
  for (FireType ty = 0; ty < FireType(tree.rules().num_types()); ++ty)
    rules += tree.rules().rules(ty).size();
  t.add_row({spec.label(), (long long)st.strands, (long long)st.edges,
             st.work, st.span, st.parallelism, (long long)st.max_level_width,
             (long long)rules, (long long)rep.conflicting_pairs,
             rep.ok() ? std::string("yes") : "NO: " + rep.message});
  return rep.ok();
}

/// The CI fuzz-smoke: n seeds, each yielding one random-sp spec (depth,
/// fan, work and cross-edge density all derived from the seed) plus one
/// structured-family spec with seed-derived sizes. Everything must pass
/// the full legality check.
bool fuzz(std::size_t n) {
  std::size_t built = 0;
  for (std::uint64_t seed = 0; seed < n; ++seed) {
    gen::GenSpec sp;
    sp.family = "sp";
    sp.depth = 3 + seed % 5;
    sp.fan = 2 + seed % 4;
    sp.work = 16 + (seed * 7) % 80;
    sp.cross = (seed * 13) % 101;
    sp.seed = seed;

    gen::GenSpec fam;
    switch (seed % 4) {
      case 0:
        fam.family = "chain";
        fam.n = 1 + seed % 40;
        break;
      case 1:
        fam.family = "forkjoin";
        fam.depth = 1 + seed % 5;
        fam.fan = 1 + seed % 7;
        break;
      case 2:
        fam.family = "diamond";
        fam.depth = 1 + seed % 4;
        fam.fan = 1 + seed % 6;
        break;
      default:
        fam.family = "wavefront";
        fam.n = 1 + seed % 17;
        break;
    }

    for (const gen::GenSpec& g : {sp, fam}) {
      const SpawnTree tree = gen::generate(g);
      const gen::GenReport rep = gen::check_generated(tree);
      ++built;
      if (!rep.ok()) {
        std::cerr << "FUZZ FAIL: " << g.label() << ": " << rep.message
                  << "\n";
        return false;
      }
    }
  }
  std::cout << "fuzz: " << built << " generated workloads passed rule "
            << "validation, acyclicity and determinacy\n";
  return true;
}

int run(int argc, char** argv) {
  Args args(argc, argv);
  bench::reject_unknown_flags(args, {"workloads", "fuzz", "dump-dot", "json"},
                              "see the header of bench_gen.cpp");

  const long long fuzz_n = args.get("fuzz", 0LL);
  NDF_CHECK_MSG(fuzz_n >= 0, "--fuzz must be >= 0");
  if (fuzz_n > 0) return fuzz(std::size_t(fuzz_n)) ? 0 : 1;

  bench::Output out("gen", args);
  bench::heading("gen workload generator",
                 "Synthetic nested-dataflow workloads (src/gen/): structure "
                 "of each generated DAG and its legality verdict "
                 "(validate_rules + acyclic + determinacy).");

  const auto specs =
      exp::parse_workload_list(args.get("workloads", std::string(kShowcase)));
  NDF_CHECK_MSG(!specs.empty(), "no workloads — pass --workloads=...");

  bench::dump_dot_flag(args, specs.front());

  Table t("generated workloads");
  t.set_header({"workload", "strands", "edges", "work", "span", "par",
                "width", "rules", "conflicts", "legal"});
  bool all_ok = true;
  for (const exp::WorkloadSpec& s : specs) all_ok &= add_row(t, s);
  out.emit(t);
  out.write_json();
  if (!all_ok) {
    std::cerr << "bench_gen: at least one workload failed legality checks\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argv[0], [&] { return run(argc, argv); });
}
