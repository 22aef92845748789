// Workload `serve`: the open-arrivals service engine. A seeded poisson
// stream of a few thousand small jobs (kernels and small generated DAGs)
// from four tenants, with deadlines, served on one machine under sb
// (FIFO admission) and edf, at jobs = 2 with misses off. The arrival rate
// is a constant chosen so the offered load ρ = λ·E[service] is about 0.8:
// latencies then measure the scheduler, not an ever-growing queue. Rounds
// are dominated by per-job SimCore reset, admission and engine
// bookkeeping; occupancy and big-DAG condensation do not run.
#include "serve/engine.hpp"

#include <algorithm>
#include <sstream>

#include "exp/sweep.hpp"
#include "layers.hpp"
#include "support/rng.hpp"

namespace pb {

using namespace ndf;

namespace {

constexpr double kSigma = 1.0 / 3.0;
/// Round-time tail percentile: a run has ~55-80 rounds of ~0.3 s.
constexpr double kTailPct = 75.0;
constexpr std::size_t kSetupReps = 75;
constexpr std::size_t kJobs = 2;
const std::string kMachine = "deep2x4";

/// The job mix, dealt round-robin over the stream. Fixed: the seed drives
/// the arrivals and the steal seeds, not the DAGs, so every seed serves
/// the same service-time distribution. Simulated services on deep2x4 under
/// sb span 7.8k–20.2k time units (mean 15.3k), so no job class is tiny
/// next to another and the slowdown tail measures queueing, not the mix.
const std::vector<std::string> kMix = {
    "mm:n=16",  "trs:n=16", "cholesky:n=16",
    "lcs:n=64", "fw2d:n=16", "gen:family=sp,depth=4,fan=3,cross=60,seed=13",
    "gen:family=wavefront,n=4"};
/// Mean arrival rate (jobs per simulated time unit): 0.8 / E[service].
constexpr double kRate = 0.8 / 15330.0;
constexpr std::size_t kStreamJobs = 12000;
/// Relative deadline of tenant t0..t3, in time units (2, 4, 8 and 16 mean
/// services): tenants differ in urgency, so EDF admission reorders jobs
/// where FIFO serves them in arrival order.
constexpr double kDeadline[] = {2 * 15330.0, 4 * 15330.0, 8 * 15330.0,
                                16 * 15330.0};

std::string arrivals_spec(std::uint64_t seed) {
  std::ostringstream a;
  a.precision(17);
  a << "poisson:rate=" << kRate << ",jobs=" << kStreamJobs
    << ",tenants=4,seed=" << seed;
  return a.str();
}

serve::ServeScenario make_scenario(const DagSet& d, std::uint64_t seed) {
  serve::ServeScenario s;
  s.name = "perfbench-serve";
  s.jobs = serve::expand_open_arrivals(
      serve::parse_arrivals(arrivals_spec(seed)), d.specs);
  for (serve::JobSpec& j : s.jobs)
    j.deadline = j.arrival + kDeadline[j.index % 4];
  s.machines = {kMachine};
  s.policies = {"sb", "edf"};
  s.sigmas = {kSigma};
  s.base_seed = seed;
  return s;
}

/// Jobs whose service trajectory differs between two runs of a grid.
std::size_t jobs_differing(const std::vector<serve::ServeCell>& a,
                           const std::vector<serve::ServeCell>& b) {
  std::size_t bad = 0;
  for (std::size_t c = 0; c < std::max(a.size(), b.size()); ++c) {
    const std::size_t na = c < a.size() ? a[c].jobs.size() : 0;
    const std::size_t nb = c < b.size() ? b[c].jobs.size() : 0;
    for (std::size_t j = 0; j < std::min(na, nb); ++j) {
      const serve::JobRecord &x = a[c].jobs[j], &y = b[c].jobs[j];
      const bool same = x.job.index == y.job.index && x.start == y.start &&
                        x.completion == y.completion &&
                        x.service == y.service &&
                        x.utilization == y.utilization &&
                        x.deadline_met == y.deadline_met;
      bad += same ? 0 : 1;
    }
    bad += std::max(na, nb) - std::min(na, nb);
  }
  return bad;
}

}  // namespace

Result run_serve(const Options& o, Tracer& tr) {
  Result r;
  const std::vector<std::string>& mix = kMix;
  const std::vector<std::string> machines = {kMachine};

  std::vector<double> setup_s;
  DagSet d;
  serve::ServeScenario scenario;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    Scoped span(tr, "setup");
    setup_s.push_back(time_s([&] {
      d = build_dags(mix, machines, kSigma, tr);
      scenario = make_scenario(d, o.seed);
    }));
  }
  const BoundsTable bounds = compute_bounds(d, machines);

  std::vector<serve::ServeCell> first, last;
  {
    serve::ServeSweep warm(scenario, kJobs);
    first = warm.run();
  }
  std::size_t jobs_per_round = 0;
  for (const serve::ServeCell& c : first) jobs_per_round += c.jobs.size();

  const Rounds rounds = timed_rounds(
      o.seconds, 8, tr,
      [&](Tracer& t) {
        serve::ServeSweep sw(scenario, kJobs);
        Scoped span(t, "serve.ServeSweep::run", "jobs=2");
        last = sw.run();
      },
      [&] {
        r.attempted += jobs_per_round;
        r.fail(jobs_differing(first, last),
               "a serve round differs from the first round");
      });

  {  // a rerun from the seed alone (fresh inputs) must serve identically
    const DagSet d2 = build_dags(mix, machines, kSigma, tr);
    serve::ServeSweep again(make_scenario(d2, o.seed), 1);
    r.attempted += jobs_per_round;
    r.fail(jobs_differing(first, again.run()),
           "a same-seed rerun differs");
  }

  // Simulated metrics. Slowdown and makespan ratio come from the served
  // jobs; Q_i / Q* from one measured-miss sweep of the mix's kernels.
  SimMetrics sim;
  std::vector<double> slowdowns, ratios, service;
  const double p = double(d.machines[0].num_processors());
  for (const serve::ServeCell& c : first) {
    for (const serve::JobRecord& j : c.jobs) {
      slowdowns.push_back(j.latency / j.service);
      if (c.policy != "sb") continue;
      const Bounds& b = bounds.at({j.job.workload.label(), kMachine});
      const double lower = std::max(b.work / p, b.span);
      if (!(j.service >= lower * (1.0 - 1e-12)))
        r.fail(1, j.job.workload.label() + ": service below max(W/p, span)");
      ratios.push_back(j.service / lower);
      service.push_back(j.service);
    }
  }
  r.attempted += service.size();
  sim.slowdown_p99 = percentile(slowdowns, 0.99);
  sim.makespan_ratio = geomean(ratios);
  double mean_service = 0.0;
  for (double s : service) mean_service += s / double(service.size());
  const double rho = kRate * mean_service;
  {
    exp::Sweep q(sim_scenario(d.specs, machines, kSigma, o.seed), 1);
    const std::vector<exp::RunPoint>& cells = q.run();
    r.attempted += cells.size();
    sim.q_ratio_max = check_cells(cells, bounds, r).q_ratio_max;
  }
  std::ostringstream ctx;
  ctx << "serve: " << jobs_per_round << " jobs per round, mean service "
      << mean_service << ", rho " << rho << ", deadline misses";
  for (const serve::ServeCell& c : first)
    ctx << " " << c.policy << "=" << c.summary.deadline_misses << "/"
        << c.summary.with_deadline;
  r.context.push_back(ctx.str());

  if (!tr.enabled()) {
    add_end_to_end(r, setup_s, rounds.plain, double(jobs_per_round),
                   kTailPct, sim);
    return r;
  }
  ProbeInputs in;
  in.specs = mix;
  in.machines = machines;
  in.sigma = kSigma;
  in.seed = o.seed;
  in.arrivals = arrivals_spec(o.seed);
  in.rate = kRate;
  probe_layers(in, tr, r);
  r.add("trace.overhead_x", "x", median(rounds.traced) / median(rounds.plain));
  return r;
}

}  // namespace pb
