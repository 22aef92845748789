// The per-layer probes of a traced run. Every probe runs on the calling
// workload's own DAGs, so each traced run reports every layer's metrics:
// for a layer the workload's rounds use, they explain its end-to-end
// numbers; for one they bypass, they show what that layer costs on these
// inputs (and an optimisation of it should leave the end-to-end numbers
// of this workload alone). Each metric is read off the spans recorded
// around the calls (name + tag), so the span file and the metrics agree.
#include <cmath>
#include <sstream>

#include "exp/sweep.hpp"
#include "exp/workload.hpp"
#include "layers.hpp"
#include "obs/recorder.hpp"
#include "pmh/presets.hpp"
#include "sched/registry.hpp"
#include "serve/engine.hpp"

namespace pb {

using namespace ndf;

namespace {

constexpr std::size_t kBuildReps = 3;
/// ServeSweep / direct-SimCore pairs of the serve probe.
constexpr std::size_t kServePairs = 5;
/// Offered load of the serve probe's stream on non-serve workloads, the
/// same ρ the serve workload runs at.
constexpr double kProbeRho = 0.8;
/// Strands each executor configuration runs at least, summed over reps.
constexpr double kExecStrands = 200000.0;

/// One simulator run of the probes: a condensation on a machine.
struct SimRun {
  const CondensedDag* dag;
  const Pmh* machine;
};

/// One run per job of a stream, each on its DAG's condensation for
/// machine 0.
std::vector<SimRun> job_runs(const DagSet& d,
                             const std::vector<serve::JobSpec>& jobs) {
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < d.specs.size(); ++i)
    index[d.specs[i].label()] = i;
  std::vector<SimRun> runs;
  for (const serve::JobSpec& j : jobs) {
    const std::size_t w = index.at(j.workload.label());
    runs.push_back({d.dags[w][d.profile_of[0]].get(), &d.machines[0]});
  }
  return runs;
}

double ms(double s) { return 1e3 * s; }

/// nd / gen / condense: spans of kBuildReps fresh builds of the DAG set,
/// plus the heap the condensations of one build hold.
DagSet probe_build(const ProbeInputs& in, Tracer& tr, Result& r) {
  const double t0 = now_s();
  DagSet d;
  for (std::size_t i = 0; i < kBuildReps; ++i)
    d = build_dags(in.specs, in.machines, in.sigma, tr);
  const double reps = double(kBuildReps);
  r.add("nd.elaborate_ms", "ms", ms(tr.total_s("nd.elaborate", "", t0)) / reps);
  r.add("nd.strands_per_s", "1/s",
        tr.total_units("nd.elaborate", "", t0) /
            tr.total_s("nd.elaborate", "", t0));

  // Workloads without a generated DAG time the generator on a stand-in of
  // similar shape (a wavefront), so every traced run reports the layer.
  bool has_gen = false;
  for (const exp::WorkloadSpec& s : d.specs) has_gen |= s.algo == "gen";
  if (!has_gen) {
    const exp::WorkloadSpec w =
        exp::parse_workload("gen:family=wavefront,n=32");
    for (std::size_t i = 0; i < kBuildReps; ++i) {
      Scoped span(tr, "gen.generate", w.label());
      (void)exp::build_workload_tree(w);
    }
  }
  r.add("gen.build_ms", "ms", ms(tr.total_s("gen.generate", "", t0)) / reps);
  r.add("condense.build_ms", "ms",
        ms(tr.total_s("sched.condense", "", t0)) / reps);
  r.add("condense.ns_per_edge_level", "ns",
        1e9 * tr.total_s("sched.condense", "", t0) /
            tr.total_units("sched.condense", "", t0));

  const double heap0 = heap_in_use_mb();
  std::vector<std::unique_ptr<CondensedDag>> held;
  for (std::size_t i = 0; i < d.specs.size(); ++i)
    for (const auto& dag : d.dags[i])
      held.push_back(std::make_unique<CondensedDag>(*d.graphs[i], dag->sizes(),
                                                    in.sigma));
  r.add("condense.rss_mb", "MB", heap_in_use_mb() - heap0);
  return d;
}

/// Runs `runs` under `policy` on one reused core, one span per reset and
/// per run; returns each run's stats.
std::vector<SchedStats> simulate(const std::vector<SimRun>& runs,
                                 const std::string& policy, bool misses,
                                 const ProbeInputs& in, Tracer& tr) {
  std::vector<SchedStats> out;
  std::unique_ptr<SimCore> core;
  const std::string tag = policy + (misses ? "+misses" : "");
  for (std::size_t k = 0; k < runs.size(); ++k) {
    SchedOptions opts;
    opts.sigma = in.sigma;
    opts.measure_misses = misses;
    opts.seed = in.seed + k;
    const auto sched = make_scheduler(policy, opts);
    {
      Scoped span(tr, "simcore.reset", tag);
      span.set_units(1.0);
      if (core)
        core->reset(*runs[k].dag, *runs[k].machine, opts);
      else
        core = std::make_unique<SimCore>(*runs[k].dag, *runs[k].machine, opts);
    }
    Scoped span(tr, "simcore.run", tag);
    span.set_units(double(runs[k].dag->num_units()));
    out.push_back(core->run(*sched));
  }
  return out;
}

/// SimCore per policy, then pmh occupancy (sb with misses on ÷ off).
/// Returns the sb makespan of every run (the serve probe's calibration).
std::vector<double> probe_simcore(const std::vector<SimRun>& runs,
                                  const ProbeInputs& in, Tracer& tr,
                                  Result& r) {
  const char* const policies[] = {"sb", "ws", "greedy", "edf"};
  const double t0 = now_s();
  std::vector<double> makespans, miss_x, miss_ns;
  double units = 0.0;
  // kBuildReps passes; in each, sb with misses on runs right after sb with
  // misses off, and the occupancy cost is the median of those pairs.
  for (std::size_t rep = 0; rep < kBuildReps; ++rep) {
    const double pass = now_s();
    for (const char* policy : policies) {
      const std::vector<SchedStats> st = simulate(runs, policy, false, in, tr);
      if (rep == 0 && std::string(policy) == "sb")
        for (const SchedStats& s : st) makespans.push_back(s.makespan);
    }
    units = tr.total_units("simcore.run", "", pass);
    const double off = tr.total_s("simcore.run", "sb", pass);
    double words = 0.0;
    for (const SchedStats& s : simulate(runs, "sb", true, in, tr))
      for (double q : s.measured_misses) words += q;
    const double on = tr.total_s("simcore.run", "sb+misses", pass);
    miss_x.push_back(on / off);
    miss_ns.push_back(1e9 * (on - off) / words);
  }
  for (const char* policy : policies)
    r.add(std::string("simcore.ns_per_unit.") + policy, "ns",
          1e9 * tr.total_s("simcore.run", policy, t0) /
              tr.total_units("simcore.run", policy, t0));
  r.add("simcore.reset_us", "us",
        1e6 * tr.total_s("simcore.reset", "", t0) /
            tr.total_units("simcore.reset", "", t0));
  r.add("simcore.units", "count", units);
  r.add("pmh.miss_overhead_x", "x", median(miss_x));
  r.add("pmh.ns_per_missed_word", "ns", median(miss_ns));
  return makespans;
}

/// exp dispatch: the simulated grid of these DAGs at jobs = 1 and 2.
void probe_sweep(const DagSet& d, const ProbeInputs& in, Tracer& tr,
                 Result& r) {
  exp::Scenario s = sim_scenario(d.specs, in.machines, in.sigma, in.seed);
  s.repeats = in.repeats;
  double serial = 0.0;
  {
    exp::Sweep sw(s, 1);
    Scoped span(tr, "exp.Sweep::run", "jobs=1");
    serial = time_s([&] { sw.run(); });
  }
  std::vector<double> wall, build, cond, cells, busy;
  for (std::size_t i = 0; i < kBuildReps; ++i) {
    exp::Sweep sw(s, 2);
    Scoped span(tr, "exp.Sweep::run", "jobs=2");
    wall.push_back(time_s([&] { sw.run(); }));
    build.push_back(sw.phase_times().workload_build);
    cond.push_back(sw.phase_times().condensation);
    cells.push_back(sw.phase_times().cell_execution);
    double b = 0.0;
    for (const ThreadPool::WorkerStats& w : sw.worker_stats()) b += w.busy_s;
    busy.push_back(b / (double(sw.worker_stats().size()) * wall.back()));
  }
  r.add("sweep.workload_build_s", "s", median(build));
  r.add("sweep.condensation_s", "s", median(cond));
  r.add("sweep.cell_execution_s", "s", median(cells));
  r.add("sweep.parallel_eff", "x", serial / (2.0 * median(wall)));
  r.add("sweep.worker_busy_frac", "x", median(busy));
}

/// serve engine: a ServeSweep (jobs = 1, sb) against direct SimCore runs
/// of the same jobs on the same condensations.
void probe_serve(const DagSet& d, const std::vector<double>& sb_makespans,
                 const ProbeInputs& in, Tracer& tr, Result& r) {
  std::string arrivals = in.arrivals;
  double rate = in.rate;
  if (arrivals.empty()) {
    // One job per DAG of the machine-0 runs; E[service] is their mean.
    double mean = 0.0;
    for (std::size_t i = 0; i < d.specs.size(); ++i)
      mean += sb_makespans[i * in.machines.size()] / double(d.specs.size());
    rate = kProbeRho / mean;
    std::ostringstream a;
    a.precision(17);
    a << "poisson:rate=" << rate << ",jobs=" << 16 * d.specs.size()
      << ",tenants=4,seed=" << in.seed;
    arrivals = a.str();
  }
  serve::ServeScenario s;
  s.name = "perfbench-probe";
  s.jobs =
      serve::expand_open_arrivals(serve::parse_arrivals(arrivals), d.specs);
  s.machines = {in.machines.front()};
  s.policies = {"sb"};
  s.sigmas = {in.sigma};
  s.base_seed = in.seed;

  // Engine and direct runs alternate; the overhead is the median of the
  // per-pair shares, which cancels the host's slower drifts.
  const std::vector<SimRun> runs = job_runs(d, s.jobs);
  ProbeInputs direct = in;
  direct.seed = s.base_seed;  // job k runs with seed base_seed + k
  Tracer untraced(false);
  std::vector<double> wall, overhead;
  double service = 0.0;
  for (std::size_t i = 0; i < kServePairs; ++i) {
    serve::ServeSweep sw(s, 1);
    {
      Scoped span(tr, "serve.ServeSweep::run", "jobs=1");
      span.set_units(double(s.jobs.size()));
      wall.push_back(time_s([&] { sw.run(); }));
    }
    service = 0.0;
    for (const serve::JobRecord& j : sw.results().front().jobs)
      service += j.service / double(s.jobs.size());
    // One span around the whole batch: per-job spans would charge the
    // direct side for recording the engine side does not pay.
    Scoped span(tr, "serve.direct_simcore", "sb");
    const double direct_s =
        time_s([&] { simulate(runs, "sb", false, direct, untraced); });
    overhead.push_back(1.0 - direct_s / wall.back());
  }
  r.add("serve.us_per_job", "us", 1e6 * median(wall) / double(s.jobs.size()));
  r.add("serve.engine_overhead_frac", "x", median(overhead));
  r.add("serve.rho", "x", rate * service);
}

/// runtime executor: structure-only copies of the DAGs (strand bodies are
/// no-ops) at 1 and 2 threads under ws and sb; steal, handoff and busy
/// figures from the workload's own executions when it made any.
void probe_executor(const DagSet& d, const ProbeInputs& in, Tracer& tr,
                    Result& r) {
  const Pmh deep = make_pmh("deep2x4");
  std::vector<ExecReport> t2_ws, t2_sb;
  for (ExecMode mode : {ExecMode::Ws, ExecMode::Sb}) {
    const std::string m = mode == ExecMode::Sb ? "sb" : "ws";
    for (std::size_t threads : {1, 2}) {
      const std::string tag = "nobody/" + m + "/t" + std::to_string(threads);
      double secs = 0.0, strands = 0.0;
      for (std::size_t i = 0; i < d.specs.size(); ++i) {
        const double n = double(d.trees[i]->strand_count(d.trees[i]->root()));
        const std::size_t reps = std::size_t(std::ceil(kExecStrands / n));
        for (std::size_t k = 0; k < reps; ++k) {
          ExecOptions e;
          e.threads = threads;
          e.mode = mode;
          e.seed = in.seed + k;
          e.machine = &deep;
          e.sigma = in.sigma;
          Scoped span(tr, "runtime.execute", tag);
          span.set_units(n);
          ExecReport rep = execute(*d.graphs[i], e);
          secs += rep.seconds;
          strands += double(rep.strands);
          if (threads == 2)
            (mode == ExecMode::Sb ? t2_sb : t2_ws).push_back(rep);
        }
      }
      r.add("executor.ns_per_strand." + m + ".t" + std::to_string(threads),
            "ns", 1e9 * secs / strands);
    }
  }
  const std::vector<ExecReport>& ws = in.exec ? in.exec->ws : t2_ws;
  const std::vector<ExecReport>& sb = in.exec ? in.exec->sb : t2_sb;
  for (const auto& [m, reps] : {std::pair{"ws", &ws}, std::pair{"sb", &sb}}) {
    double steals = 0, attempts = 0, handoffs = 0, strands = 0, busy = 0,
           capacity = 0;
    for (const ExecReport& e : *reps) {
      steals += double(e.steals);
      attempts += double(e.steal_attempts);
      handoffs += double(e.handoffs);
      strands += double(e.strands);
      for (const WorkerReport& w : e.workers) busy += w.busy_s;
      capacity += e.seconds * double(e.workers.size());
    }
    const std::string p = std::string("executor.");
    r.add(p + "steal_hit_ratio." + m, "x",
          attempts > 0 ? steals / attempts : 0.0);
    r.add(p + "steal_attempts_per_kstrand." + m, "count",
          1e3 * attempts / strands);
    if (std::string(m) == "sb")
      r.add(p + "handoffs_per_kstrand.sb", "count", 1e3 * handoffs / strands);
    r.add(p + "busy_frac." + m, "x", busy / capacity);
  }
  double serial_ms = 0.0;
  if (in.exec) {
    serial_ms = in.exec->serial_kernel_ms;
  } else {
    for (std::size_t i = 0; i < d.specs.size(); ++i) {
      Scoped span(tr, "runtime.execute_serial", d.specs[i].label());
      serial_ms += ms(execute_serial(*d.graphs[i]).seconds);
    }
  }
  r.add("executor.serial_kernel_ms", "ms", serial_ms);
}

/// obs: grid cell 0 (first DAG, first machine, sb, misses on) simulated
/// with an EventRecorder sink against without, alternating.
void probe_obs(const std::vector<SimRun>& runs, const ProbeInputs& in,
               Tracer& tr, Result& r) {
  SchedOptions opts;
  opts.sigma = in.sigma;
  opts.measure_misses = true;
  opts.seed = in.seed;
  obs::EventRecorder rec;
  std::vector<double> with, without;
  SimCore core(*runs[0].dag, *runs[0].machine, opts);
  for (std::size_t i = 0; i < 2 * kBuildReps + 2; ++i) {
    const bool traced = i % 2 == 1;
    opts.sink = traced ? &rec : nullptr;
    rec.clear();
    core.reset(*runs[0].dag, *runs[0].machine, opts);
    const auto sched = make_scheduler("sb", opts);
    Scoped span(tr, "simcore.run", traced ? "cell0+recorder" : "cell0");
    (traced ? with : without).push_back(time_s([&] { core.run(*sched); }));
  }
  r.add("obs.trace_overhead_x", "x", median(with) / median(without));
}

}  // namespace

void probe_layers(const ProbeInputs& in, Tracer& tr, Result& r) {
  Scoped probe(tr, "probe");
  const DagSet d = probe_build(in, tr, r);

  // The simulator runs: every DAG on every machine, or for the serve
  // workload every job of its stream on its machine.
  std::vector<SimRun> runs;
  if (in.arrivals.empty()) {
    for (std::size_t i = 0; i < d.specs.size(); ++i)
      for (std::size_t m = 0; m < d.machines.size(); ++m)
        runs.push_back({d.dags[i][d.profile_of[m]].get(), &d.machines[m]});
  } else {
    runs = job_runs(d, serve::expand_open_arrivals(
                           serve::parse_arrivals(in.arrivals), d.specs));
  }
  const std::vector<double> sb_makespans = probe_simcore(runs, in, tr, r);
  probe_sweep(d, in, tr, r);
  probe_serve(d, sb_makespans, in, tr, r);
  probe_executor(d, in, tr, r);
  probe_obs(runs, in, tr, r);
  r.add("condense.builds", "count", double(CondensedDag::total_builds()));
}

}  // namespace pb
