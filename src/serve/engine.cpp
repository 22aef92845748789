#include "serve/engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <unordered_map>
#include <utility>

#include "exp/grid.hpp"
#include "pmh/presets.hpp"
#include "sched/condensed_dag.hpp"
#include "sched/registry.hpp"
#include "sched/sim_core.hpp"

namespace ndf::serve {

namespace {

/// The resolved, deterministic inputs every cell shares: job streams with
/// workload/tenant ids resolved, and the occupancy namespace geometry.
/// Immutable during the fan-out.
struct StreamPlan {
  /// Distinct workloads across the stream + mix, by first use.
  std::vector<exp::WorkloadRef> refs;
  std::vector<std::size_t> job_widx;  ///< open jobs: workload index
  std::vector<std::size_t> mix_widx;  ///< closed mix: workload index
  /// Open jobs: tenant id by first appearance in the (sorted) input
  /// stream — execution-order-independent, so every policy agrees.
  std::vector<std::size_t> job_tenant;
  std::size_t num_tenants = 0;
};

StreamPlan plan_stream(const ServeScenario& s) {
  StreamPlan plan;
  // Equal specs share a handle, so a handle seen before is found by its
  // address. A new handle whose label an earlier one already printed (a
  // spec built past the parser, differing only in fields the label
  // omits) joins that earlier workload.
  std::unordered_map<const exp::WorkloadSpec*, std::size_t> by_ref;
  std::unordered_map<std::string, std::size_t> by_label;
  const auto widx = [&](exp::WorkloadRef w) {
    const auto [it, fresh] = by_ref.try_emplace(&*w, plan.refs.size());
    if (!fresh) return it->second;
    const auto [lit, new_label] = by_label.emplace(w.label(), it->second);
    if (new_label) plan.refs.push_back(w);
    return it->second = lit->second;
  };
  std::unordered_map<std::string, std::size_t> tenants;
  plan.job_widx.reserve(s.jobs.size());
  plan.job_tenant.reserve(s.jobs.size());
  for (const JobSpec& j : s.jobs) {
    plan.job_widx.push_back(widx(j.workload));
    // find() first: emplace() would build a node for every job.
    auto t = tenants.find(j.tenant);
    if (t == tenants.end()) t = tenants.emplace(j.tenant, tenants.size()).first;
    plan.job_tenant.push_back(t->second);
  }
  plan.mix_widx.reserve(s.mix.size());
  for (const exp::WorkloadSpec& w : s.mix)
    plan.mix_widx.push_back(widx(exp::intern(w)));
  plan.num_tenants =
      s.closed ? s.closed->clients : std::max<std::size_t>(tenants.size(), 1);
  return plan;
}

/// Admission order: under EDF-over-jobs the earliest absolute deadline
/// first (+inf — no deadline — sorts last), then arrival, then submission
/// index; FIFO is the same tuple without the deadline.
bool admits_before(bool edf, const JobSpec& a, const JobSpec& b) {
  if (edf && a.deadline != b.deadline) return a.deadline < b.deadline;
  if (a.arrival != b.arrival) return a.arrival < b.arrival;
  return a.index < b.index;
}

/// Runs one cell's full service simulation. Everything it reads is shared
/// and immutable; everything it writes is local or the caller's slot.
class CellRunner {
 public:
  /// `sink` is the scenario's trace sink for grid cell 0, null elsewhere.
  CellRunner(const ServeScenario& s, const StreamPlan& plan, const Pmh& m,
             double sigma, const std::string& policy,
             const std::vector<const CondensedDag*>& dags,
             obs::TraceSink* sink)
      : s_(s),
        plan_(plan),
        m_(m),
        sigma_(sigma),
        policy_(policy),
        dags_(dags),
        sink_(sink),
        edf_(scheduler_deadline_aware(policy)),
        tenants_(plan.num_tenants) {
    // A job's stats depend on its seed only under a seeded policy, on the
    // jobs before it only through persistent occupancy, and a traced cell
    // must record every job's events; otherwise every job of a workload
    // runs the same simulation, so the first one's stats serve them all.
    if (!scheduler_seeded(policy) && !s.measure_misses && sink == nullptr)
      memo_.resize(plan.refs.size());
  }

  /// Runs the cell; returns the number of simulations it took.
  std::size_t run(ServeCell& cell) {
    cell.machine_desc = m_.to_string();
    cell.policy = policy_;
    if (!s_.cache_model.is_default()) cell.cache = s_.cache_model.label();
    cell.sigma = sigma_;
    if (s_.closed)
      run_closed(cell);
    else
      run_open(cell);
    summarize(cell);
    return simulations_;
  }

 private:
  /// Admits and runs `job` (workload `widx`, tenant `tenant_id`) on the
  /// machine free at `now`; returns the completion time.
  double execute(double now, const JobSpec& job, std::size_t widx,
                 std::size_t tenant_id, ServeCell& cell) {
    // Tracing: the job's lifecycle in global service time, and its
    // simulation events shifted from the job-local clock (which restarts
    // at 0) onto the same axis — offset by the admission time.
    obs::OffsetSink offset(sink_, now);
    if (sink_ != nullptr) {
      const std::int64_t jid = std::int64_t(job.index);
      sink_->on_job(obs::JobEvent::kArrival, job.arrival, jid,
                    std::uint32_t(tenant_id), job.tenant.c_str());
      sink_->on_job(obs::JobEvent::kAdmit, now, jid,
                    std::uint32_t(tenant_id), job.workload.label().c_str());
    }
    // A memoizing cell simulates only a workload's first job; the stats
    // are read in place, as a copy would allocate per job.
    obs::TraceSink* job_sink = sink_ != nullptr ? &offset : nullptr;
    SchedStats fresh;
    if (memo_.empty())
      fresh = simulate(job, widx, tenant_id, job_sink);
    else if (memo_[widx] == nullptr)
      memo_[widx] = std::make_unique<SchedStats>(
          simulate(job, widx, tenant_id, job_sink));
    const SchedStats& stats = memo_.empty() ? fresh : *memo_[widx];

    JobRecord& rec = cell.jobs.emplace_back();
    rec.job = job;
    rec.start = now;
    rec.service = stats.makespan;
    rec.completion = now + stats.makespan;
    rec.latency = rec.completion - job.arrival;
    rec.utilization = stats.utilization;
    rec.deadline_met = !job.has_deadline() || rec.completion <= job.deadline;
    if (!stats.measured_misses.empty()) {
      // The persistent occupancy reports cumulative counters; this job's
      // Q_i is the delta since the previous admission.
      rec.measured_misses.resize(stats.measured_misses.size());
      for (std::size_t l = 0; l < stats.measured_misses.size(); ++l)
        rec.measured_misses[l] =
            stats.measured_misses[l] -
            (l < cum_misses_.size() ? cum_misses_[l] : 0.0);
      rec.comm_cost = stats.comm_cost - cum_comm_;
      cum_misses_ = stats.measured_misses;
      cum_comm_ = stats.comm_cost;
    }
    if (sink_ != nullptr) {
      const std::int64_t jid = std::int64_t(job.index);
      sink_->on_job(obs::JobEvent::kComplete, rec.completion, jid,
                    std::uint32_t(tenant_id), "");
      if (!rec.deadline_met)
        sink_->on_job(obs::JobEvent::kDeadlineMiss, rec.completion, jid,
                      std::uint32_t(tenant_id), "");
    }
    Tenant& t = tenants_[tenant_id];
    t.served = true;
    t.service += rec.service;
    return rec.completion;
  }

  /// Simulates `job` alone on the machine, tracing into `sink` if set.
  SchedStats simulate(const JobSpec& job, std::size_t widx,
                      std::size_t tenant_id, obs::TraceSink* sink) {
    SchedOptions opts;
    opts.sigma = sigma_;
    opts.alpha_prime = s_.alpha_prime;
    opts.charge_misses = s_.charge_misses;
    opts.measure_misses = s_.measure_misses;
    opts.cache_model = s_.cache_model;
    // The simulated caches persist across jobs; footprint keys are
    // namespaced per (tenant, workload) so only a tenant's own repeat
    // jobs can hit warm lines (engine.hpp, "Measured occupancy").
    opts.keep_occupancy = s_.measure_misses;
    opts.occ_task_base =
        std::int64_t(tenant_id * plan_.refs.size() + widx) << 32;
    opts.seed = s_.base_seed + job.index;
    opts.sink = sink;

    const CondensedDag& dag = *dags_[widx];
    if (!sched_) sched_ = make_scheduler(policy_, opts);
    if (core_)
      core_->reset(dag, m_, opts);
    else
      core_ = std::make_unique<SimCore>(dag, m_, opts);
    ++simulations_;
    return core_->run(*sched_);
  }

  void run_open(ServeCell& cell) {
    const std::vector<JobSpec>& jobs = s_.jobs;
    // Jobs arrive in stream order; `queue` holds the stream positions of
    // the arrived, not-yet-admitted ones as a heap on the admission order.
    // Its last tie-break, the stream position, admits equal keys in
    // arrival order. Non-preemptive: the machine runs one job to
    // completion, then admits the next.
    const auto after = [&](std::size_t i, std::size_t j) {
      if (admits_before(edf_, jobs[j], jobs[i])) return true;
      return !admits_before(edf_, jobs[i], jobs[j]) && j < i;
    };
    std::vector<std::size_t> queue;
    std::size_t next = 0;
    double now = 0.0;
    while (next < jobs.size() || !queue.empty()) {
      for (; next < jobs.size() && jobs[next].arrival <= now; ++next) {
        queue.push_back(next);
        std::push_heap(queue.begin(), queue.end(), after);
      }
      if (queue.empty()) {  // idle until the next arrival
        now = jobs[next].arrival;
        continue;
      }
      std::pop_heap(queue.begin(), queue.end(), after);
      const std::size_t i = queue.back();
      queue.pop_back();
      now = execute(now, jobs[i], plan_.job_widx[i], plan_.job_tenant[i],
                    cell);
    }
  }

  void run_closed(ServeCell& cell) {
    const ArrivalSpec& spec = *s_.closed;
    const std::size_t clients = spec.clients;
    // Each client submits its next job `think` after its previous one
    // completed; client c's k-th job has global submission index
    // k·clients + c, the deterministic tie-break for the time-0 burst.
    std::vector<double> ready(clients, 0.0);
    std::vector<std::size_t> done(clients, 0);
    std::vector<std::string> tenant(clients, "t");
    for (std::size_t c = 0; c < clients; ++c) tenant[c] += std::to_string(c);
    double now = 0.0;
    for (std::size_t served = 0; served < clients * spec.jobs; ++served) {
      bool any = false;
      double soonest = 0.0;
      for (std::size_t c = 0; c < clients; ++c) {
        if (done[c] == spec.jobs) continue;
        if (!any || ready[c] < soonest) soonest = ready[c];
        any = true;
      }
      if (soonest > now) now = soonest;  // idle until a client is ready
      // Admission scans the waiting clients' keys; with <= a few thousand
      // clients the O(clients) pass per job is noise next to the DAG
      // simulation it admits. Only the admitted job gets its tenant and
      // workload (the plan's handle) filled in.
      std::size_t c = clients;
      JobSpec best, next;
      for (std::size_t k = 0; k < clients; ++k) {
        if (done[k] == spec.jobs || ready[k] > now) continue;
        next.index = done[k] * clients + k;
        next.arrival = ready[k];
        if (spec.deadline > 0.0) next.deadline = ready[k] + spec.deadline;
        if (c == clients || admits_before(edf_, next, best)) {
          best = next;
          c = k;
        }
      }
      const std::size_t widx =
          plan_.mix_widx[best.index % plan_.mix_widx.size()];
      best.tenant = tenant[c];
      best.workload = plan_.refs[widx];
      now = execute(now, best, widx, c, cell);
      ready[c] = now + spec.think;
      ++done[c];
    }
  }

  void summarize(ServeCell& cell) {
    ServeSummary& sum = cell.summary;
    sum.completed = cell.jobs.size();
    // Created before the idle early-out so the report's `metrics` key has
    // both (empty) histograms even for a jobless cell.
    obs::Log2Histogram& lat_hist = sum.metrics.histogram("latency");
    obs::Log2Histogram& wait_hist = sum.metrics.histogram("queue_wait");
    if (cell.jobs.empty()) return;  // idle service: zeros, fairness 1
    std::vector<double> latencies;
    latencies.reserve(cell.jobs.size());
    double busy_weighted = 0.0, lat_total = 0.0;
    for (const JobRecord& r : cell.jobs) {
      sum.horizon = std::max(sum.horizon, r.completion);
      latencies.push_back(r.latency);
      lat_total += r.latency;
      lat_hist.record(r.latency);
      wait_hist.record(r.start - r.job.arrival);
      busy_weighted += r.utilization * r.service;
      if (r.job.has_deadline()) {
        ++sum.with_deadline;
        if (!r.deadline_met) ++sum.deadline_misses;
      }
      if (!r.measured_misses.empty()) {
        if (sum.measured_misses.size() < r.measured_misses.size())
          sum.measured_misses.resize(r.measured_misses.size(), 0.0);
        for (std::size_t l = 0; l < r.measured_misses.size(); ++l)
          sum.measured_misses[l] += r.measured_misses[l];
        sum.comm_cost += r.comm_cost;
      }
    }
    if (sum.horizon > 0.0) {
      sum.throughput = double(sum.completed) / sum.horizon;
      sum.utilization = busy_weighted / sum.horizon;
    }
    sum.latency_mean = lat_total / double(latencies.size());
    sum.latency_max = *std::max_element(latencies.begin(), latencies.end());
    const std::array<double, 3> p =
        obs::nearest_ranks(latencies, std::array{0.50, 0.99, 0.999});
    sum.latency_p50 = p[0];
    sum.latency_p99 = p[1];
    sum.latency_p999 = p[2];
    // Fairness is a min/max over the tenants that completed a job, so the
    // order they are visited in does not matter.
    double lo = std::numeric_limits<double>::infinity(), hi = 0.0;
    for (const Tenant& t : tenants_) {
      if (!t.served) continue;
      ++sum.tenants;
      lo = std::min(lo, t.service);
      hi = std::max(hi, t.service);
    }
    // A zero-service tenant makes the share ratio infinite; the JSON
    // emitter maps that to null (no finite skew exists).
    if (sum.tenants > 1)
      sum.fairness =
          lo > 0.0 ? hi / lo : std::numeric_limits<double>::infinity();
  }

  const ServeScenario& s_;
  const StreamPlan& plan_;
  const Pmh& m_;
  double sigma_;
  const std::string& policy_;
  const std::vector<const CondensedDag*>& dags_;
  obs::TraceSink* sink_;
  bool edf_;
  // One simulator core and one policy instance serve the whole stream:
  // reset()-rebound per job (the policy's init() restores its state),
  // occupancy carried across jobs when measuring.
  std::unique_ptr<SimCore> core_;
  std::unique_ptr<Scheduler> sched_;
  std::vector<double> cum_misses_;  // occupancy counters are cumulative
  double cum_comm_ = 0.0;
  /// Service share of each tenant id (StreamPlan::job_tenant, or the
  /// closed-loop client), accumulated as jobs complete.
  struct Tenant {
    double service = 0.0;
    bool served = false;  ///< completed at least one job
  };
  std::vector<Tenant> tenants_;
  /// Per workload index, the stats of its first job when the cell
  /// memoizes (see the constructor); empty when every job simulates.
  std::vector<std::unique_ptr<SchedStats>> memo_;
  std::size_t simulations_ = 0;
};

}  // namespace

std::size_t serve_grid_size(const ServeScenario& s) {
  return s.machines.size() * s.sigmas.size() * s.policies.size();
}

void validate(const ServeScenario& s) {
  NDF_CHECK_MSG(!s.machines.empty(), "serve scenario '" << s.name
                                                        << "' has no machines");
  NDF_CHECK_MSG(!s.policies.empty(), "serve scenario '" << s.name
                                                        << "' has no policies");
  NDF_CHECK_MSG(!s.sigmas.empty(), "serve scenario '"
                                       << s.name << "' has no sigma values");
  for (const std::string& p : s.policies)
    NDF_CHECK_MSG(scheduler_registered(p),
                  "serve scenario '" << s.name << "' names unknown policy '"
                                     << p << "'");
  for (const std::string& spec : s.machines) (void)parse_pmh(spec);
  NDF_CHECK_MSG(cache_repl_registered(s.cache_model.repl),
                "serve scenario '"
                    << s.name << "' names unknown cache replacement policy '"
                    << s.cache_model.repl << "' (in '"
                    << s.cache_model.label() << "')");
  for (double sigma : s.sigmas)
    NDF_CHECK_MSG(sigma > 0.0 && sigma < 1.0,
                  "serve scenario '" << s.name << "' has sigma " << sigma
                                     << " outside (0, 1)");
  NDF_CHECK_MSG(s.alpha_prime > 0.0 && s.alpha_prime <= 1.0,
                "serve scenario '" << s.name << "' has alpha' "
                                   << s.alpha_prime << " outside (0, 1]");
  if (s.closed) {
    NDF_CHECK_MSG(s.closed->kind == "closed",
                  "serve scenario '" << s.name
                                     << "': the generated stream must be a "
                                        "closed: spec, got '"
                                     << s.closed->label() << "'");
    NDF_CHECK_MSG(s.jobs.empty(),
                  "serve scenario '" << s.name
                                     << "' has both an explicit job stream "
                                        "and a closed-loop generator");
    NDF_CHECK_MSG(!s.mix.empty(), "serve scenario '"
                                      << s.name
                                      << "': a closed-loop stream needs a "
                                         "non-empty workload mix");
  }
  for (const JobSpec& j : s.jobs) {
    NDF_CHECK_MSG(std::isfinite(j.arrival) && j.arrival >= 0.0,
                  "serve scenario '" << s.name << "': job " << j.index
                                     << " ('" << j.workload.label()
                                     << "') has arrival " << j.arrival);
    NDF_CHECK_MSG(j.deadline >= j.arrival,
                  "serve scenario '" << s.name << "': job " << j.index
                                     << " ('" << j.workload.label()
                                     << "') has deadline " << j.deadline
                                     << " before its arrival " << j.arrival);
  }
}

const std::vector<ServeCell>& ServeSweep::run() {
  if (ran_) return results_;
  validate(scenario_);

  std::vector<Pmh> machines;
  machines.reserve(scenario_.machines.size());
  for (const std::string& spec : scenario_.machines)
    machines.push_back(make_pmh(spec));
  const exp::CacheProfiles profiles = exp::cache_profiles(machines);
  const StreamPlan plan = plan_stream(scenario_);

  // Every cell serves the same stream, so every (σ, profile) pair needs
  // every workload's condensation: the key table is dense, profile-major.
  const std::size_t W = plan.refs.size();
  const std::size_t S = scenario_.sigmas.size();
  const std::size_t P = scenario_.policies.size();
  exp::GridPlan gp;
  gp.name = scenario_.name;
  gp.progress = scenario_.progress;
  gp.jobs = jobs_;
  gp.workloads.reserve(W);
  for (const exp::WorkloadRef& w : plan.refs) gp.workloads.push_back(*w);
  gp.sigmas = scenario_.sigmas;
  for (const std::vector<double>& sizes : profiles.sizes)
    for (std::size_t g = 0; g < S; ++g)
      for (std::size_t w = 0; w < W; ++w) gp.keys.push_back({w, g, sizes});
  gp.cells = serve_grid_size(scenario_);

  // Every cell's record array is reserved here, on the calling thread,
  // which also frees it: its memory then comes from this thread's malloc
  // arena rather than from whichever worker ran the cell. Reserved in the
  // workers, a grid of short cells run again and again stranded record
  // arrays in every worker arena it ever used (perfbench serve's peak RSS
  // read 38–47 MB that way, 32.6–32.9 MB this way, over 10 s runs).
  std::vector<ServeCell> cells(gp.cells);
  const std::size_t stream_jobs =
      scenario_.closed ? scenario_.closed->clients * scenario_.closed->jobs
                       : scenario_.jobs.size();
  for (ServeCell& c : cells) c.jobs.reserve(stream_jobs);
  std::vector<std::size_t> simulations(gp.cells, 0);
  exp::GridResult<ServeCell> r = exp::run_grid<ServeCell>(
      gp, [&](const exp::GridDags& dags, std::size_t b, std::size_t e,
              exp::CellSlots<ServeCell>& out) {
        std::vector<const CondensedDag*> cell_dags(W);
        for (std::size_t i = b; i < e; ++i) {
          // Grid order: machine-major, then σ, then policy.
          const std::size_t m = i / (S * P);
          const std::size_t g = (i / P) % S;
          const std::size_t base = (profiles.of_machine[m] * S + g) * W;
          for (std::size_t w = 0; w < W; ++w)
            cell_dags[w] = dags[base + w].get();
          ServeCell& cell = cells[i];
          cell.machine = scenario_.machines[m];
          // Cell 0 (one cell, one worker) carries the trace sink.
          simulations[i] =
              CellRunner(scenario_, plan, machines[m], scenario_.sigmas[g],
                         scenario_.policies[i % P], cell_dags,
                         i == 0 ? scenario_.trace_sink : nullptr)
                  .run(cell);
          out.put(i, std::move(cell));
        }
      });

  // Stored only now: a failed run leaves the object as if run() was never
  // called (exp/grid.hpp's failure contract).
  results_ = std::move(r.cells);
  condensations_ = gp.keys.size();
  simulations_ = 0;
  for (const std::size_t n : simulations) simulations_ += n;
  ran_ = true;
  return results_;
}

}  // namespace ndf::serve
