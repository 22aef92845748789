#include "sched/sim_core.hpp"

#include <algorithm>
#include <string>

namespace ndf {

void SimCore::reset(const CondensedDag& dag, const Pmh& machine,
                    const SchedOptions& opts) {
  NDF_CHECK_MSG(dag.compatible_with(machine, opts.sigma),
                "CondensedDag(sigma=" << dag.sigma() << ", "
                                      << dag.num_levels()
                                      << " levels) does not match machine "
                                      << machine.to_string() << " at sigma "
                                      << opts.sigma);
  dag_ = &dag;
  m_ = &machine;
  opts_ = opts;
  policy_ = nullptr;
  ready_hooks_enabled_ = false;
  init_run_state();
}

void SimCore::init_run_state() {
  const std::vector<int>& ext0 = dag_->initial_ext_flat();
  ext_.assign(ext0.begin(), ext0.end());
  const std::vector<std::uint32_t>& deg0 = dag_->initial_in_degree();
  in_deg_.assign(deg0.begin(), deg0.end());
  fired_.assign(dag_->graph().num_vertices(), 0);
  cascade_.clear();
  events_.clear();
  idle_.clear();
  busy_time_ = 0.0;
  now_ = 0.0;
  // Ready-time tracking exists only for the queue-wait trace events; the
  // vector stays empty (and the per-fire branch dead) without a sink.
  if (opts_.sink != nullptr)
    ready_at_.assign(num_units(), 0.0);
  else
    ready_at_.clear();

  stats_ = SchedStats{};
  stats_.total_work = dag_->total_work();
  stats_.atomic_units = num_units();
  stats_.misses.assign(num_levels(), 0.0);

  // A trace sink wants cache events, so it too turns the occupancy
  // simulation on; the measured stats are filled only under
  // measure_misses (run()), keeping sink-only output byte-identical.
  if (opts_.measure_misses || opts_.sink != nullptr) {
    // The occupancy layer's shape depends only on the machine and the
    // cache-model spec: reuse the existing instance (cleared, capacity
    // kept) while both bindings hold. Service mode additionally keeps the
    // *contents* across runs (keep_occupancy): consecutive jobs on one
    // machine then contend for the same simulated lines, and the reported
    // counters are cumulative — that persistence also hinges on the model
    // binding, so a cache-model change always starts a cold instance.
    if (occ_ && occ_machine_ == m_ && occ_->model() == opts_.cache_model) {
      if (!opts_.keep_occupancy) occ_->reset();
    } else {
      occ_ = std::make_unique<CacheOccupancy>(*m_, opts_.cache_model);
      occ_machine_ = m_;
    }
    occ_->set_trace(opts_.sink, &now_);
  } else {
    occ_.reset();
    occ_machine_ = nullptr;
  }
}

void SimCore::pin_footprint(std::size_t level, std::size_t cache, int task) {
  if (!occ_) return;
  occ_->pin(level, cache, opts_.occ_task_base + task,
            dag_->task_size(level, task));
}

void SimCore::unpin_footprint(std::size_t level, std::size_t cache,
                              int task) {
  if (occ_) occ_->unpin(level, cache, opts_.occ_task_base + task);
}

std::size_t SimCore::busy_sharers(std::size_t proc, std::size_t level) const {
  // events_ holds exactly the in-flight assignments; this unit's own event
  // is pushed after touch_unit, so every entry is a concurrent *other*.
  const std::size_t cache = m_->cache_above(proc, level);
  std::size_t n = 0;
  for (const Ev& e : events_)
    if (m_->cache_above(e.proc, level) == cache) ++n;
  return n;
}

void SimCore::touch_unit(std::size_t proc, int u) {
  const CacheModelSpec& model = occ_->model();
  for (std::size_t l = 1; l <= num_levels(); ++l) {
    const int t = dag_->unit_task(l, u);
    const std::size_t sharers =
        model.bw > 0.0 ? busy_sharers(proc, l) : 0;
    const double miss =
        occ_->touch(l, m_->cache_above(proc, l), opts_.occ_task_base + t,
                    dag_->task_size(l, t), sharers);
    // Exclusive levels: a hit means the unit is served from this (or an
    // inner) cache, so the outer levels see no traffic and no recency
    // update — resident data is not duplicated outward.
    if (model.exclusive && miss == 0.0) break;
  }
}

const std::vector<double>& SimCore::distributed_unit_durations() const {
  if (dur_dag_ == dag_ && dur_machine_ == m_ &&
      dur_charge_ == opts_.charge_misses)
    return dur_;
  dur_.assign(num_units(), 0.0);
  for (std::size_t u = 0; u < num_units(); ++u) {
    double charge = 0.0;
    if (opts_.charge_misses)
      for (std::size_t l = 1; l <= num_levels(); ++l) {
        const int t = dag_->unit_task(l, u);
        charge += dag_->task_size(l, t) * m_->miss_cost(l) /
                  double(dag_->task_units(l, t));
      }
    dur_[u] = dag_->unit_work(u) + charge;
  }
  dur_dag_ = dag_;
  dur_machine_ = m_;
  dur_charge_ = opts_.charge_misses;
  return dur_;
}

std::vector<int> SimCore::initially_ready_units() const {
  std::vector<int> out;
  const std::size_t off = dag_->ext_off(1);
  for (std::size_t u = 0; u < num_units(); ++u)
    if (ext_[off + u] == 0) out.push_back(static_cast<int>(u));
  return out;
}

void SimCore::charge_condensed_footprints() {
  for (std::size_t l = 1; l <= num_levels(); ++l)
    stats_.misses[l - 1] += dag_->level_footprint(l);
}

void SimCore::push_event(const Ev& e) {
  events_.push_back(e);
  std::push_heap(events_.begin(), events_.end(), std::greater<Ev>{});
}

SimCore::Ev SimCore::pop_event() {
  std::pop_heap(events_.begin(), events_.end(), std::greater<Ev>{});
  const Ev e = events_.back();
  events_.pop_back();
  return e;
}

void SimCore::fire_vertex(VertexId v, bool report_exit) {
  if (fired_[v]) return;
  fired_[v] = 1;
  const StrandGraph& g = dag_->graph();
  const std::span<const VertexId> succ = g.successors(v);
  std::size_t e = dag_->edge_base(v);
  for (std::size_t i = 0; i < succ.size(); ++i, ++e) {
    const VertexId w = succ[i];
    // Precomputed external-arrow decrements of edge (v, w): the same
    // boundary-crossing walk the +1 template was built from, frozen into
    // the dag's arrow CSR at condensation time.
    for (const CondensedDag::ArrowRef* a = dag_->arrows_begin(e);
         a != dag_->arrows_end(e); ++a) {
      int& cnt = ext_[a->flat];
      if (--cnt == 0) {
        // Tracing: a unit's queue wait starts when its last external
        // dependence is satisfied (units ready at t=0 keep the default 0).
        if (!ready_at_.empty() && a->level == 1)
          ready_at_[a->flat - dag_->ext_off(1)] = now_;
        if (ready_hooks_enabled_)
          policy_->on_task_ready(a->level,
                                 int(a->flat - dag_->ext_off(a->level)));
      }
    }
    if (--in_deg_[w] == 0 && !fired_[w] && is_control(w))
      cascade_.push_back(w);
  }
  if (report_exit && g.is_exit(v)) policy_->on_exit_fired(g.owner(v));
}

void SimCore::cascade_all() {
  while (!cascade_.empty()) {
    VertexId v = cascade_.back();
    cascade_.pop_back();
    fire_vertex(v);
  }
}

void SimCore::complete_unit(int u) {
  const NodeId root = dag_->unit_root(u);
  walk_stack_.clear();
  walk_order_.clear();
  walk_stack_.push_back(root);
  while (!walk_stack_.empty()) {
    NodeId n = walk_stack_.back();
    walk_stack_.pop_back();
    walk_order_.push_back(n);
    for (NodeId c : tree().node(n).children) walk_stack_.push_back(c);
  }
  const StrandGraph& g = dag_->graph();
  // Children before parents so the unit root's exit fires last. Only the
  // root's exit is reported: no maximal task is rooted strictly inside a
  // unit.
  for (auto it = walk_order_.rbegin(); it != walk_order_.rend(); ++it) {
    fire_vertex(g.enter(*it));
    fire_vertex(g.exit(*it), *it == root);
  }
  cascade_all();
}

void SimCore::dispatch(double now) {
  now_ = now;
  still_idle_.clear();
  for (std::size_t p : idle_) {
    const Assignment a = policy_->pick(p, now);
    if (a.unit < 0) {
      still_idle_.push_back(p);
      continue;
    }
    busy_time_ += a.duration;
    // Measured occupancy: the unit's footprint runs through every cache
    // above its processor at unit start. Observational only — duration was
    // already fixed by the policy's charge model above.
    if (occ_) touch_unit(p, a.unit);
    if (opts_.sink != nullptr) {
      opts_.sink->on_queue_wait(ready_at_[std::size_t(a.unit)], now,
                                static_cast<std::uint32_t>(p), a.unit);
      opts_.sink->on_unit(now, now + a.duration,
                          static_cast<std::uint32_t>(p), a.unit,
                          std::int64_t(dag_->unit_root(a.unit)));
    }
    push_event(Ev{now + a.duration, p, a.unit});
  }
  idle_.swap(still_idle_);
}

SchedStats SimCore::run(Scheduler& policy) {
  policy_ = &policy;
  policy.init(*this);

  // Dependence counters start from the dag's precomputed template (one
  // external arrow per edge crossing a maximal task boundary, at every
  // level it crosses) — already copied by init_run_state().

  for (std::size_t p = 0; p < m_->num_processors(); ++p) idle_.push_back(p);

  // Initial cascade: fire every dependency-free control vertex. Readiness
  // hooks stay off — the on_start scans cover everything ready at time 0.
  const StrandGraph& g = dag_->graph();
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (in_deg_[v] == 0 && !fired_[v] && is_control(v)) cascade_.push_back(v);
  cascade_all();

  ready_hooks_enabled_ = true;
  policy.on_start();
  dispatch(0.0);

  double now = 0.0;
  std::size_t done = 0;
  while (!events_.empty()) {
    const Ev ev = pop_event();
    now = ev.time;
    now_ = now;  // completion-driven unpins emit cache events at this time
    idle_.push_back(ev.proc);
    ++done;
    complete_unit(ev.unit);
    policy.on_unit_complete(ev.proc, ev.unit);
    dispatch(now);
  }
  NDF_CHECK_MSG(done == num_units(),
                policy.name() << " simulation stalled: " << done << " of "
                              << num_units() << " units completed");
  stats_.makespan = now;
  for (std::size_t l = 1; l <= num_levels(); ++l)
    stats_.miss_cost += stats_.misses[l - 1] * m_->miss_cost(l);
  // A sink-only run (tracing without measure_misses) keeps occ_ alive for
  // cache events but must not report measured stats — emitter output stays
  // byte-identical to a run with no sink at all.
  if (occ_ && opts_.measure_misses) {
    stats_.measured_misses = occ_->level_misses();
    for (std::size_t l = 1; l <= num_levels(); ++l)
      stats_.comm_cost += stats_.measured_misses[l - 1] * m_->miss_cost(l);
    // Write-back and contention traffic are extra *cost*, not extra Q_i:
    // Theorem 1 bounds reload words, these bill eviction and bandwidth
    // interference on top. Both are identically zero (and the stats stay
    // in their legacy shape) under the default model.
    if (occ_->model().wb > 0.0) {
      stats_.measured_writebacks = occ_->level_writebacks();
      for (std::size_t l = 1; l <= num_levels(); ++l)
        stats_.comm_cost +=
            stats_.measured_writebacks[l - 1] * m_->miss_cost(l);
    }
    if (occ_->model().bw > 0.0) {
      const std::vector<double>& ct = occ_->level_contention();
      for (std::size_t l = 1; l <= num_levels(); ++l)
        stats_.contention_cost += ct[l - 1] * m_->miss_cost(l);
      stats_.comm_cost += stats_.contention_cost;
    }
  }
  stats_.utilization =
      now > 0 ? busy_time_ / (double(m_->num_processors()) * now) : 1.0;
  return stats_;
}

}  // namespace ndf
