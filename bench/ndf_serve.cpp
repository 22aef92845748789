// ndf_serve — the open-arrivals service-mode driver. One binary admits a
// stream of DAG jobs (a trace file or a seeded arrival distribution) onto
// each machine × σ × policy cell, runs the full multi-tenant service
// simulation (src/serve/), and emits one consolidated summary table /
// JSON / CSV. Deadline-aware policies (`edf`) admit queued jobs earliest-
// deadline-first; everything else admits in arrival order.
//
//   ndf_serve --arrivals='poisson:rate=0.001,jobs=40,tenants=4'
//             --workloads='mm:n=32;gen:family=sp,depth=6,fan=3,seed=7'
//             --machines=flat16 --sched=sb,edf --json=BENCH_serve.json
//   ndf_serve --trace=jobs.trace --machines=deep2x4 --sched=edf
//
// Flags (every spec and list follows README's "Spec grammar"):
//   --trace=<path>               job stream from a trace file, one job per
//                                line: <arrival> <tenant> <workload-spec>
//                                [deadline=<t>] (src/serve/arrivals.hpp)
//   --arrivals=<spec>            generated stream instead of a trace, a
//                                poisson: (open) or closed: (closed loop)
//                                spec; the mix comes from --workloads
//   --workloads=<spec;spec;...>  workload mix for --arrivals (dealt
//                                round-robin); ignored with --trace
//   --machines=<spec;spec;...>   presets, flat: or twotier: machines
//   --sched=<name,name,...>      registry policies (default sb,edf)
//   --sigma=<x,x,...>            dilation values in (0,1), default 1/3
//   --alpha=<x>                  SB allocation exponent, default 1.0
//   --seed=<s>                   base seed; job i runs with seed s+i
//   --jobs=<n>                   cell workers: 0 = hardware concurrency
//                                (default); output is byte-identical at
//                                every n
//   --misses                     simulate cache occupancy persistently
//                                across jobs and attribute per-job/per-
//                                tenant measured Q_i (docs/metrics.md)
//   --cache=<spec>               single cache model for the persistent
//                                occupancy (docs/cache-models.md); default
//                                ideal LRU. Not an axis: the service caches
//                                persist across jobs, so one model binds
//                                the whole scenario
//   --json=<path> --csv=<path>   consolidated emitters
//   --name=<id>                  run id in the outputs
//   --smoke                      small fixed scenario for CI (fast)
//   --soak                       larger fixed grid (nightly CI): a
//                                multi-tenant poisson burst across two
//                                machines, all admission policies
//   --trace-out=<path>           record grid cell 0's full event stream —
//                                job arrival/admission/completion/deadline
//                                plus every admitted job's unit, queue-wait
//                                and cache events on the global service
//                                clock — as Chrome trace-event JSON
//                                (Perfetto-loadable) or raw CSV when the
//                                path ends in .csv (docs/observability.md).
//                                Observational: stdout/JSON/CSV stay
//                                byte-identical with or without it
//   --progress                   stderr heartbeat (phase, cells done/total,
//                                ETA) while the grid runs
//   --list                       print workloads/machines/policies and exit
#include <cstdio>
#include <iostream>
#include <sstream>

#include "bench_common.hpp"
#include "obs/export.hpp"
#include "pmh/cache_model.hpp"
#include "pmh/presets.hpp"
#include "sched/registry.hpp"
#include "serve/engine.hpp"
#include "serve/report.hpp"

using namespace ndf;

namespace {

void list_everything() {
  std::cout << "workloads (--workloads=<name>[:n=,base=,np][;...]):\n";
  for (const auto& w : exp::registered_workloads())
    std::cout << "  " << w.name << " — " << w.description
              << " (default n=" << w.default_n << ")\n";
  std::cout << "\nmachine presets (--machines=<preset or "
               "flat:p=,m1=,c1= / twotier:s=,c=,m1=,m2=,c1=,c2=>[;...]):\n";
  for (const auto& m : pmh_presets())
    std::cout << "  " << m.name << " — " << m.description << "\n";
  std::cout << "\npolicies (--sched=<name,...>; deadline-aware ones admit "
               "EDF-over-jobs):\n";
  for (const auto& p : registered_schedulers())
    std::cout << "  " << p.name << (p.deadline_aware ? " [deadline-aware]" : "")
              << " — " << p.description << "\n";
  std::cout << "\ncache models (--cache=<name or "
               "cache:repl=,assoc=,line=,excl=,wb=,bw=>, with --misses):\n";
  for (const auto& c : registered_cache_repls())
    std::cout << "  " << c.name << " — " << c.description << "\n";
}

int run(int argc, char** argv) {
  Args args(argc, argv);
  bench::reject_unknown_flags(
      args,
      {"trace", "arrivals", "workloads", "machines", "sched", "sigma",
       "alpha", "seed", "jobs", "misses", "cache", "json", "csv", "name",
       "smoke", "soak", "list", "trace-out", "progress"},
      "see the header of ndf_serve.cpp or --list");
  if (args.get("list", false)) {
    list_everything();
    return 0;
  }

  serve::ServeScenario s;
  const bool smoke = args.get("smoke", false);
  const bool soak = args.get("soak", false);
  NDF_CHECK_MSG(!(smoke && soak), "--smoke and --soak are exclusive");
  std::string arrivals_spec;
  if (smoke) {
    // Small fixed scenario CI can afford on every push: 24 poisson jobs
    // from 3 tenants over a 3-workload mix, one machine, FIFO vs EDF.
    s.name = "serve-smoke";
    arrivals_spec = "poisson:rate=0.00003,jobs=24,tenants=3,deadline=60000";
    s.mix = exp::parse_workload_list(
        "mm:n=32;gen:family=sp,depth=6,fan=3,seed=7;lcs:n=96");
    s.machines = {"flat:p=8,m1=192,c1=10"};
    s.policies = {"sb", "edf"};
  }
  if (soak) {
    // Nightly grid: a long multi-tenant burst with deadlines across two
    // machine shapes and every admission discipline — 2 machines × 2 σ ×
    // 4 policies = 16 cells of 360 heavyweight jobs each. The 4 ws cells
    // simulate every job; the 12 seed-free cells simulate each of the 5
    // workloads once (serve/engine.hpp), so the serial run takes just
    // under a second on a 4-vCPU Xeon, and the serve gate's speedup
    // mostly measures how the ws cells spread over the workers.
    s.name = "serve-soak";
    arrivals_spec =
        "poisson:rate=0.002,jobs=360,tenants=6,deadline=9000,seed=17";
    s.mix = exp::parse_workload_list(
        "mm:n=48;trs:n=48,np;gen:family=sp,depth=9,fan=4,work=32,cross=60,"
        "seed=11;gen:family=wavefront,n=48;gen:family=forkjoin,depth=48,"
        "fan=24");
    s.machines = {"flat16", "deep2x4"};
    s.policies = {"sb", "ws", "greedy", "edf"};
    s.sigmas = {1.0 / 3.0, 0.5};
  }

  s.name = args.get("name", s.name);
  if (args.has("workloads"))
    s.mix = exp::parse_workload_list(args.get("workloads", std::string()));
  if (args.has("machines"))
    s.machines = spec::split(args.get("machines", std::string()), ';');
  if (args.has("sched") || (!smoke && !soak))
    s.policies = parse_sched_list(args.get("sched", std::string("sb,edf")));
  if (args.has("sigma"))
    s.sigmas =
        bench::parse_double_list(args.get("sigma", std::string()), "sigma");
  s.alpha_prime = args.get("alpha", 1.0);
  s.base_seed = std::uint64_t(args.get("seed", 42LL));
  s.measure_misses = bench::misses_flag(args);
  if (args.has("cache"))
    s.cache_model = parse_cache_model(args.get("cache", std::string()));
  const std::size_t jobs = bench::jobs_flag(args);

  const std::string trace = args.get("trace", std::string());
  if (args.has("arrivals")) arrivals_spec = args.get("arrivals", std::string());
  NDF_CHECK_MSG(trace.empty() || arrivals_spec.empty(),
                "--trace and --arrivals are exclusive: the stream is either "
                "explicit or generated");
  NDF_CHECK_MSG(!trace.empty() || !arrivals_spec.empty(),
                "no job stream — pass --trace=<file>, --arrivals=<spec>, or "
                "--smoke (--list shows workloads/machines/policies)");
  if (!trace.empty()) {
    s.jobs = serve::load_trace(trace);
  } else {
    const serve::ArrivalSpec a = serve::parse_arrivals(arrivals_spec);
    if (a.kind == "closed")
      s.closed = a;  // the engine generates closed-loop arrivals
    else
      s.jobs = serve::expand_open_arrivals(a, s.mix);
  }
  NDF_CHECK_MSG(!s.machines.empty(),
                "no machines — pass --machines=... or --smoke "
                "(--list shows what exists)");

  // Outlives the sweep: the scenario only borrows the sink.
  obs::EventRecorder rec;
  const std::string trace_out = args.get("trace-out", std::string());
  if (!trace_out.empty()) s.trace_sink = &rec;
  s.progress = args.get("progress", false);

  serve::ServeSweep sweep(std::move(s), jobs);
  const auto& cells = sweep.run();

  std::size_t total_jobs = 0;
  for (const auto& c : cells) total_jobs += c.jobs.size();
  std::ostringstream title;
  title << "serve '" << sweep.scenario().name << "': " << cells.size()
        << " cells, " << total_jobs << " jobs served, "
        << sweep.condensations_built() << " condensations built";
  serve::summary_table(title.str(), cells).print(std::cout);

  bench::write_flag_file(args, "json", [&](std::ostream& os) {
    serve::write_serve_json(os, sweep.scenario().name, cells);
  });
  bench::write_flag_file(args, "csv", [&](std::ostream& os) {
    serve::write_serve_csv(os, cells);
  });

  if (!trace_out.empty()) {
    obs::write_trace_file(trace_out, rec, sweep.scenario().name);
    // stderr: stdout must stay byte-identical with and without the flag
    // (the serve gate diffs it).
    std::fprintf(stderr, "trace: wrote %zu events to %s\n",
                 rec.events().size(), trace_out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argv[0], [&] { return run(argc, argv); });
}
