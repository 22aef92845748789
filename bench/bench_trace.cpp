// E13 — utilization timelines (Fig.-style series): processor utilization
// over time under a simulated scheduler for the ND vs NP elaborations of
// the same program. The NP curve shows the starvation phases (serialized
// subtask boundaries) that the fire construct removes.
//
// Flags: --n=<size> --buckets=<k> --sched=<policy> (default sb),
// --json=<path>, --trace-out=<path> (export the first timeline's full
// event stream as Chrome trace-event JSON / CSV, docs/observability.md).
#include "algos/lcs.hpp"
#include "algos/trs.hpp"
#include "bench_common.hpp"
#include "nd/drs.hpp"
#include "obs/export.hpp"
#include "sched/registry.hpp"

using namespace ndf;

namespace {

/// Runs one elaboration and prints its utilization timeline, read from
/// the recorder's unit events. `keep`, when non-null, receives the run's
/// recorder (the --trace-out export).
void timeline(bench::Output& out, const std::string& policy,
              const std::string& name, const StrandGraph& g, const Pmh& m,
              std::size_t buckets, obs::EventRecorder* keep = nullptr) {
  obs::EventRecorder rec;
  SchedOptions o;
  o.sink = &rec;
  const SchedStats s = run_scheduler(policy, g, m, o);
  const auto tl = obs::utilization_timeline(rec, m.num_processors(),
                                            s.makespan, buckets);
  Table t(name + " (makespan " + std::to_string((long long)s.makespan) +
          ", avg util " + std::to_string(s.utilization).substr(0, 5) + ")");
  t.set_header({"time_slice", "utilization", "bar"});
  for (std::size_t b = 0; b < tl.size(); ++b) {
    std::string bar(std::size_t(tl[b] * 40.0 + 0.5), '#');
    t.add_row({(long long)b, tl[b], bar});
  }
  out.emit(t);
  if (keep != nullptr) *keep = std::move(rec);
}

int run(int argc, char** argv) {
  Args args(argc, argv);
  bench::reject_unknown_flags(args, {"n", "buckets", "sched", "json",
                                     "trace-out"},
                              "see the header of bench_trace.cpp");
  const std::size_t n = std::size_t(args.get("n", 128LL));
  const std::size_t buckets = std::size_t(args.get("buckets", 16LL));
  const std::string policy = bench::single_policy(args, "sb");
  bench::Output out("E13 trace/utilization", args);
  bench::heading("E13 trace/utilization",
                 "Simulated-scheduler utilization over time, ND vs NP "
                 "elaboration of the same spawn tree.");
  const std::string trace_out = args.get("trace-out", std::string());
  obs::EventRecorder first;
  Pmh m(PmhConfig::flat(16, 768, 10));
  {
    SpawnTree tree = make_trs_tree(n, 4);
    timeline(out, policy, "TRS n=" + std::to_string(n) + " [ND]",
             elaborate(tree), m, buckets,
             trace_out.empty() ? nullptr : &first);
    timeline(out, policy, "TRS n=" + std::to_string(n) + " [NP]",
             elaborate(tree, {.np_mode = true}), m, buckets);
  }
  {
    Pmh m2(PmhConfig::flat(16, 96, 10));
    SpawnTree tree = make_lcs_tree(2 * n, 4);
    timeline(out, policy, "LCS n=" + std::to_string(2 * n) + " [ND]",
             elaborate(tree), m2, buckets);
    timeline(out, policy, "LCS n=" + std::to_string(2 * n) + " [NP]",
             elaborate(tree, {.np_mode = true}), m2, buckets);
  }
  std::cout << "Expected shape: the ND timelines hold high utilization; the "
               "NP timelines show deep troughs at serialized recursion "
               "boundaries.\n";
  if (!trace_out.empty()) {
    obs::write_trace_file(trace_out, first, "E13 TRS [ND]");
    std::fprintf(stderr, "trace: wrote %zu events to %s\n",
                 first.events().size(), trace_out.c_str());
  }
  out.write_json();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argv[0], [&] { return run(argc, argv); });
}
