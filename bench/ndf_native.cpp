// ndf_native — the native execution driver: runs workloads on the
// real-thread executor (src/runtime) instead of the simulator, and reports
// measured wall-clock scaling next to the scaling the simulator predicts
// for the same DAG. Structure-only workloads (the registry kernels and
// every gen: family) get calibrated spin bodies so strand durations mirror
// their declared work (runtime/workbody.hpp).
//
//   ndf_native --workloads='mm:n=64;gen:family=sp,depth=9,fan=4,seed=11'
//              --threads=1,2,4,8 --sched=ws,sb --machine=deep2x4
//              --reps=3 --json=BENCH_native.json
//   (one line; wrapped here for readability)
//
// Flags (every spec and list follows README's "Spec grammar"):
//   --workloads=<spec;spec;...>  workload specs (src/exp/workload.hpp);
//                                default: all eight kernels plus two
//                                generated DAGs at measurement sizes
//   --threads=<n,n,...>          worker counts, default 1,2,4,8
//   --sched=<ws[,sb]>            native modes (runtime/executor.hpp);
//                                default both
//   --machine=<spec>             PMH preset whose cache tree defines the
//                                sb anchor groups (default deep2x4)
//   --sigma=<x>                  sb anchoring dilation, default 1/3
//   --seed=<s>                   steal-victim PRNG seed, default 42
//   --reps=<k>                   best-of-k timing, default 3
//   --spin=<x>                   spin iterations per declared work unit
//                                for body-less strands, default 64
//   --pin                        pin worker i to cpu i (Linux only)
//   --chaos[=<seed>]             enable chaos delays (stress demo; times
//                                reported are then perturbed on purpose)
//   --json=<path>                mirror tables to JSON (BENCH_native.json)
//   --smoke                      tiny fixed grid + exactly-once assertion,
//                                for sanitizer CI jobs
//   --list                       print workloads/machines/modes and exit
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "gen/gen.hpp"
#include "pmh/presets.hpp"
#include "runtime/executor.hpp"
#include "runtime/workbody.hpp"
#include "sched/registry.hpp"

using namespace ndf;

namespace {

constexpr const char* kDefaultWorkloads =
    "mm:n=48;trs:n=48;cholesky:n=48;lu:n=48;lcs:n=192;gotoh:n=128;"
    "fw1d:n=48;fw2d:n=48;"
    "gen:family=sp,depth=9,fan=4,work=32,seed=11;"
    "gen:family=wavefront,n=48";

void list_everything() {
  std::cout << "workloads (--workloads=<name>[:n=,base=,np][;...]):\n";
  for (const auto& w : exp::registered_workloads())
    std::cout << "  " << w.name << " — " << w.description
              << " (default n=" << w.default_n << ")\n";
  std::cout << "\ngenerated workloads "
               "(--workloads=gen:family=<f>[,key=value...][;...]):\n";
  for (const auto& f : gen::registered_families())
    std::cout << "  " << f.name << " — " << f.description << " (" << f.keys
              << ")\n";
  std::cout << "\nmachine presets (--machine=<spec>):\n";
  for (const auto& m : pmh_presets())
    std::cout << "  " << m.name << " — " << m.description << "\n";
  std::cout << "\nnative modes (--sched=<m,...>):\n"
               "  ws — randomized work stealing over per-worker deques\n"
               "  sb — space-bounded: stealing confined to anchor groups\n";
}

std::vector<std::size_t> parse_thread_list(const std::string& csv) {
  std::vector<std::size_t> out;
  for (const std::string& item : spec::split(csv, ',')) {
    const std::optional<std::uint64_t> v = spec::to_uint(item);
    NDF_CHECK_MSG(v && *v >= 1 && *v <= 1024,
                  "--threads entries must be integers in [1, 1024], got "
                      << item);
    out.push_back(std::size_t(*v));
  }
  NDF_CHECK_MSG(!out.empty(), "--threads list is empty");
  return out;
}

/// Simulator-predicted parallel speedup of `g` at `p` processors under the
/// matching policy: makespan on one processor over makespan on p flat
/// processors. This is the model curve the measured curve is compared to;
/// flat machines isolate the parallelism prediction from cache effects the
/// spin bodies don't reproduce.
double sim_speedup(const StrandGraph& g, const std::string& policy,
                   std::size_t p, double sigma) {
  SchedOptions opts;
  opts.sigma = sigma;
  opts.charge_misses = false;
  const double one =
      run_scheduler(policy, g, make_pmh("flat:p=1"), opts).makespan;
  if (p == 1) return 1.0;
  const double many =
      run_scheduler(policy, g, make_pmh("flat:p=" + std::to_string(p)), opts)
          .makespan;
  return many > 0 ? one / many : 0.0;
}

struct BestRun {
  ExecReport report;  ///< the fastest rep's full report
};

BestRun best_of(const StrandGraph& g, const ExecOptions& opts,
                std::size_t reps) {
  BestRun best;
  for (std::size_t r = 0; r < reps; ++r) {
    ExecReport rep = execute(g, opts);
    if (r == 0 || rep.seconds < best.report.seconds)
      best.report = std::move(rep);
  }
  return best;
}

int run_smoke(double spin) {
  // Tiny grid, hard assertions: every strand exactly once at every thread
  // count and mode, steals accounted. The sanitizer jobs run this.
  const auto specs = exp::parse_workload_list(
      "mm:n=16;lcs:n=32;gen:family=sp,depth=6,fan=3,seed=7");
  const Pmh machine = make_pmh("deep2x4");
  for (const exp::WorkloadSpec& spec : specs) {
    SpawnTree tree = exp::build_workload_tree(spec);
    attach_spin_bodies(tree, spin);
    const std::size_t total = tree.strand_count(tree.root());
    const StrandGraph g = elaborate(tree, {.np_mode = spec.np});
    for (std::size_t threads : {1ul, 2ul, 4ul}) {
      for (ExecMode mode : {ExecMode::Ws, ExecMode::Sb}) {
        ExecOptions opts;
        opts.threads = threads;
        opts.mode = mode;
        opts.machine = &machine;
        const ExecReport r = execute(g, opts);
        NDF_CHECK_MSG(r.strands == total,
                      spec.label() << ": ran " << r.strands << " of "
                                   << total << " strands");
        std::size_t per_worker = 0, steals = 0;
        for (const WorkerReport& w : r.workers) {
          per_worker += w.strands;
          steals += w.steals;
        }
        NDF_CHECK_MSG(per_worker == total, "worker accounting mismatch");
        NDF_CHECK_MSG(steals == r.steals, "steal accounting mismatch");
      }
    }
    std::cout << "smoke: " << spec.label() << " ok (" << total
              << " strands)\n";
  }
  std::cout << "smoke: all native checks passed\n";
  return 0;
}

int run(int argc, char** argv) {
  Args args(argc, argv);
  bench::reject_unknown_flags(
      args,
      {"workloads", "threads", "sched", "machine", "sigma", "seed", "reps",
       "spin", "pin", "chaos", "json", "smoke", "list"},
      "see the header of ndf_native.cpp or --list");
  if (args.get("list", false)) {
    list_everything();
    return 0;
  }
  const double spin = args.get("spin", 64.0);
  NDF_CHECK_MSG(spin >= 0, "--spin must be >= 0");
  if (args.get("smoke", false)) return run_smoke(spin);

  const auto specs = exp::parse_workload_list(
      args.get("workloads", std::string(kDefaultWorkloads)));
  const auto threads =
      parse_thread_list(args.get("threads", std::string("1,2,4,8")));
  std::vector<ExecMode> modes;
  for (const std::string& m :
       spec::split(args.get("sched", std::string("ws,sb")), ',')) {
    NDF_CHECK_MSG(m == "ws" || m == "sb",
                  "--sched must list ws and/or sb, got " << m);
    modes.push_back(m == "ws" ? ExecMode::Ws : ExecMode::Sb);
  }
  const std::string machine_spec =
      args.get("machine", std::string("deep2x4"));
  const Pmh machine = make_pmh(machine_spec);
  const double sigma = args.get("sigma", 1.0 / 3.0);
  const std::uint64_t seed = std::uint64_t(args.get("seed", 42LL));
  const std::size_t reps = std::size_t(args.get("reps", 3LL));
  NDF_CHECK_MSG(reps >= 1, "--reps must be >= 1");
  const bool pin = args.get("pin", false);
  const bool chaos = args.has("chaos");

  bench::Output out("native", args);
  bench::heading("native scaling",
                 "measured wall-clock on the real-thread executor vs the "
                 "simulator's predicted parallel speedup (flat:p=P model; "
                 "best of " +
                     std::to_string(reps) + ")");
  std::cout << "spin calibration: "
            << static_cast<long long>(spin_rate_per_second())
            << " iters/s, --spin=" << spin << " iters per work unit\n";

  Table scaling("native scaling (machine " + machine_spec + ", sigma " +
                std::to_string(sigma) + ")");
  scaling.set_header({"workload", "mode", "threads", "strands", "best_s",
                      "speedup", "sim_speedup", "steals", "attempts",
                      "handoffs", "anchors", "busy_frac"});
  Table workers_tab("per-worker accounting (max thread count per mode)");
  workers_tab.set_header({"workload", "mode", "worker", "busy_s", "strands",
                          "steals", "attempts"});

  for (const exp::WorkloadSpec& spec : specs) {
    SpawnTree tree = exp::build_workload_tree(spec);
    attach_spin_bodies(tree, spin);
    const StrandGraph g = elaborate(tree, {.np_mode = spec.np});

    double serial_best = 0;
    for (std::size_t r = 0; r < reps; ++r) {
      const double s = execute_serial(g).seconds;
      if (r == 0 || s < serial_best) serial_best = s;
    }

    for (const ExecMode mode : modes) {
      const std::string mode_name = mode == ExecMode::Ws ? "ws" : "sb";
      for (const std::size_t t : threads) {
        ExecOptions opts;
        opts.threads = t;
        opts.mode = mode;
        opts.seed = seed;
        opts.machine = &machine;
        opts.sigma = sigma;
        opts.pin_threads = pin;
        if (chaos) {
          opts.chaos.enabled = true;
          opts.chaos.seed = std::uint64_t(args.get("chaos", 0LL));
        }
        const BestRun best = best_of(g, opts, reps);
        const ExecReport& r = best.report;
        double busy = 0;
        for (const WorkerReport& w : r.workers) busy += w.busy_s;
        const double busy_frac =
            r.seconds > 0 ? busy / (double(t) * r.seconds) : 0.0;
        scaling.add_row(
            {spec.label(), mode_name, (long long)t, (long long)r.strands,
             r.seconds, r.seconds > 0 ? serial_best / r.seconds : 0.0,
             sim_speedup(g, mode_name, t, sigma), (long long)r.steals,
             (long long)r.steal_attempts, (long long)r.handoffs,
             (long long)r.anchors, busy_frac});
        if (t == *std::max_element(threads.begin(), threads.end())) {
          for (std::size_t w = 0; w < r.workers.size(); ++w) {
            const WorkerReport& wr = r.workers[w];
            workers_tab.add_row({spec.label(), mode_name, (long long)w,
                                 wr.busy_s, (long long)wr.strands,
                                 (long long)wr.steals,
                                 (long long)wr.steal_attempts});
          }
        }
      }
    }
  }
  out.emit(scaling);
  out.emit(workers_tab);
  out.write_json();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argv[0], [&] { return run(argc, argv); });
}
