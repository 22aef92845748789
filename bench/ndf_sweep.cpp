// ndf_sweep — the declarative experiment-sweep driver. One binary expands a
// workload × machine × policy × σ × α' × repeat grid, reuses each
// workload's condensation across everything that shares it, and emits one
// consolidated table / JSON / CSV (src/exp/). Named grids are presets
// (src/exp/presets.hpp): the smoke and stress grids, and the paper-claim
// tables E7 (sb_bounds), E8 (sb_scaling), E9 (sb_vs_ws) and EA (ablation).
//
//   ndf_sweep --workloads='mm:n=64;trs:n=48,np'
//             --machines='flat16;twotier:s=4,c=4'
//             --sched=sb,ws,greedy,serial --sigma=0.2,0.33
//             --repeat=3 --json=SWEEP.json --csv=SWEEP.csv
//   (one line; wrapped here for readability)
//
// Flags (every spec and list follows README's "Spec grammar"):
//   --workloads=<spec;spec;...>  named algos and generated gen: specs
//   --machines=<spec;spec;...>   presets, flat: or twotier: machines
//   --sched=<name,name,...>      registry policies (default all four)
//   --sigma=<x,x,...>            dilation values in (0,1), default 1/3
//   --alpha=<x,x,...>            SB allocation exponents, default 1.0
//   --repeat=<k> --seed=<s>      seed axis: seeds s..s+k-1 (ws variance);
//                                a seed-free policy (sb, greedy, edf,
//                                serial) is simulated once and its row
//                                repeated k times
//   --jobs=<n>                   grid workers: 0 = hardware concurrency
//                                (default), 1 = the calling thread; output
//                                is byte-identical at every n
//   --misses                     simulate cache occupancy per run and
//                                grow comm_cost + Q_L<i> measured-miss
//                                columns in every emitter (off: legacy
//                                output, byte-identical)
//   --cache=<spec;spec;...>      cache-model axis for the measured
//                                occupancy (docs/cache-models.md); default
//                                the ideal LRU model. Only meaningful with
//                                --misses; non-default models add a cache
//                                column to every emitter
//   --json=<path> --csv=<path>   consolidated emitters
//   --dump-dot=<path>            DOT of the first workload's strand DAG
//                                (nd/dot), then run the sweep as usual
//   --name=<id>                  sweep id in the outputs
//   --preset=<name>              a named grid (--list shows them): smoke
//                                (CI) and stress (perf) take the axis
//                                flags as overrides; a paper claim's
//                                tables take only --sched --jobs --misses
//                                --json --csv
//   --phase-times                print per-phase wall-clock (workload build
//                                / condensation / cell execution / emit),
//                                the distinct-run count and per-worker
//                                busy/task accounting to stderr,
//                                so a perf regression is attributable
//                                without a profiler
//   --trace-out=<path>           record grid cell 0's full event stream
//                                (unit slices, queue waits, cache events)
//                                and write it as Chrome trace-event JSON —
//                                loadable in Perfetto — or raw CSV when the
//                                path ends in .csv (docs/observability.md).
//                                Observational: stdout/JSON/CSV stay
//                                byte-identical with or without it
//   --progress                   stderr heartbeat (phase, cells done/total,
//                                ETA) while the sweep runs
//   --list                       print workloads/machines/policies/gen
//                                families and exit
#include <chrono>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "bench_common.hpp"
#include "exp/presets.hpp"
#include "exp/report.hpp"
#include "exp/sweep.hpp"
#include "obs/export.hpp"
#include "gen/gen.hpp"
#include "pmh/cache_model.hpp"
#include "pmh/presets.hpp"
#include "sched/registry.hpp"

using namespace ndf;

namespace {

void list_everything() {
  std::cout << "workloads (--workloads=<name>[:n=,base=,np][;...]):\n";
  for (const auto& w : exp::registered_workloads())
    std::cout << "  " << w.name << " — " << w.description
              << " (default n=" << w.default_n << ")\n";
  std::cout << "\ngenerated workloads "
               "(--workloads=gen:family=<f>[,key=value...][,np][;...]):\n";
  for (const auto& f : gen::registered_families())
    std::cout << "  " << f.name << " — " << f.description << " (" << f.keys
              << ")\n";
  std::cout << "\nmachine presets (--machines=<preset or "
               "flat:p=,m1=,c1= / twotier:s=,c=,m1=,m2=,c1=,c2=>[;...]):\n";
  for (const auto& m : pmh_presets())
    std::cout << "  " << m.name << " — " << m.description << "\n";
  std::cout << "\npolicies (--sched=<name,...>):\n";
  for (const auto& p : registered_schedulers())
    std::cout << "  " << p.name << " — " << p.description << "\n";
  std::cout << "\ncache models (--cache=<name or "
               "cache:repl=,assoc=,line=,excl=,wb=,bw=>[;...], with "
               "--misses):\n";
  for (const auto& c : registered_cache_repls())
    std::cout << "  " << c.name << " — " << c.description << "\n";
  std::cout << "\npresets (--preset=<name>):\n";
  for (const auto& p : exp::presets())
    std::cout << "  " << p.name << " — " << p.description
              << (p.blocks ? " (--sched default " + p.sched + ")" : "") << "\n";
}

/// `--json`/`--csv`: the run-record documents over `runs`.
void write_outputs(const Args& args, const std::string& name,
                   const std::vector<exp::RunPoint>& runs) {
  bench::write_flag_file(args, "json", [&](std::ostream& os) {
    exp::write_sweep_json(os, name, runs);
  });
  bench::write_flag_file(args, "csv", [&](std::ostream& os) {
    exp::write_sweep_csv(os, runs);
  });
}

int run(int argc, char** argv) {
  Args args(argc, argv);
  bench::reject_unknown_flags(
      args,
      {"workloads", "machines", "sched", "sigma", "alpha", "repeat", "seed",
       "jobs", "json", "csv", "name", "preset", "list", "dump-dot",
       "misses", "cache", "phase-times", "trace-out", "progress"},
      "see the header of ndf_sweep.cpp or --list");
  if (args.get("list", false)) {
    list_everything();
    return 0;
  }

  const exp::Preset* preset =
      args.has("preset") ? &exp::find_preset(args.get("preset", std::string()))
                         : nullptr;
  if (preset && preset->blocks) {
    bench::reject_unknown_flags(
        args, {"preset", "sched", "jobs", "misses", "json", "csv"},
        "a paper preset takes only --sched, --jobs, --misses, --json and "
        "--csv");
    const auto runs = exp::run_preset(
        *preset, parse_sched_list(args.get("sched", preset->sched)),
        bench::misses_flag(args), bench::jobs_flag(args), std::cout);
    write_outputs(args, preset->name, runs);
    return 0;
  }
  exp::Scenario s = preset ? preset->grid() : exp::Scenario{};
  s.name = args.get("name", s.name);
  if (args.has("workloads"))
    s.workloads =
        exp::parse_workload_list(args.get("workloads", std::string()));
  if (args.has("machines"))
    s.machines = spec::split(args.get("machines", std::string()), ';');
  if (args.has("sched") || !preset)
    s.policies =
        parse_sched_list(args.get("sched", std::string("sb,ws,greedy,serial")));
  if (args.has("sigma"))
    s.sigmas =
        bench::parse_double_list(args.get("sigma", std::string()), "sigma");
  if (args.has("alpha"))
    s.alpha_primes =
        bench::parse_double_list(args.get("alpha", std::string()), "alpha");
  const long long repeat = args.get("repeat", (long long)s.repeats);
  NDF_CHECK_MSG(repeat >= 1, "--repeat must be >= 1, got " << repeat);
  s.repeats = std::size_t(repeat);
  s.base_seed = std::uint64_t(args.get("seed", 42LL));
  s.measure_misses = bench::misses_flag(args);
  if (args.has("cache"))
    s.cache_models = parse_cache_model_list(args.get("cache", std::string()));
  const std::size_t jobs = bench::jobs_flag(args);

  NDF_CHECK_MSG(!s.workloads.empty(),
                "no workloads — pass --workloads=... or --preset=smoke "
                "(--list shows what exists)");
  NDF_CHECK_MSG(!s.machines.empty(),
                "no machines — pass --machines=... or --preset=smoke "
                "(--list shows what exists)");

  bench::dump_dot_flag(args, s.workloads.front());

  // Outlives the sweep: the scenario only borrows the sink.
  obs::EventRecorder rec;
  const std::string trace_out = args.get("trace-out", std::string());
  if (!trace_out.empty()) s.trace_sink = &rec;
  s.progress = args.get("progress", false);

  exp::Sweep sweep(std::move(s), jobs);
  const auto& runs = sweep.run();
  const auto emit_start = std::chrono::steady_clock::now();

  std::ostringstream title;
  title << "sweep '" << sweep.scenario().name << "': " << runs.size()
        << " runs, " << sweep.condensations_built() << " condensations built";
  exp::results_table(title.str(), runs).print(std::cout);

  write_outputs(args, sweep.scenario().name, runs);

  if (!trace_out.empty()) {
    obs::write_trace_file(trace_out, rec, sweep.scenario().name);
    // stderr, like --phase-times: stdout must stay byte-identical with
    // and without the flag (the perf gate diffs it).
    std::fprintf(stderr, "trace: wrote %zu events to %s\n",
                 rec.events().size(), trace_out.c_str());
  }

  if (args.get("phase-times", false)) {
    const double emit_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      emit_start)
            .count();
    const exp::PhaseTimes& pt = sweep.phase_times();
    // stderr, so piping/redirecting stdout (the result table) stays
    // byte-identical with and without the flag.
    std::fprintf(stderr,
                 "phase-times: workload-build %.3fs, condensation %.3fs, "
                 "cell-execution %.3fs, emit %.3fs\n",
                 pt.workload_build, pt.condensation, pt.cell_execution,
                 emit_s);
    std::fprintf(stderr, "phase-times: runs %zu of %zu cells\n",
                 sweep.runs(), runs.size());
    // Pool self-profiling (empty at --jobs=1: no pool): busy seconds and
    // task count per worker expose imbalance the phase totals hide.
    const auto& ws = sweep.worker_stats();
    for (std::size_t w = 0; w < ws.size(); ++w)
      std::fprintf(stderr, "phase-times: worker %zu busy %.3fs (%zu tasks)\n",
                   w, ws[w].busy_s, ws[w].tasks);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argv[0], [&] { return run(argc, argv); });
}
