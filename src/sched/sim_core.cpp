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
  const std::vector<std::uint32_t>& deg0 = dag_->initial_control_in_degree();
  ctrl_in_deg_.assign(deg0.begin(), deg0.end());
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
  const std::size_t L = num_levels();
  const bool charge = opts_.charge_misses;
  const auto bound_to = [&](const DurTable& t) {
    if (t.dag_id != dag_->build_id() || t.charge != charge) return false;
    for (std::size_t l = 1; l <= t.miss_costs.size(); ++l)
      if (t.miss_costs[l - 1] != m_->miss_cost(l)) return false;
    return true;
  };
  for (auto it = dur_.begin(); it != dur_.end(); ++it)
    if (bound_to(**it)) {
      std::rotate(dur_.begin(), it, it + 1);  // most recently used first
      return dur_.front()->dur;
    }

  // A new binding: reuse the least recently used table once all are taken.
  std::unique_ptr<DurTable> t;
  if (dur_.size() == kDurTables) {
    t = std::move(dur_.back());
    dur_.pop_back();
  } else {
    t = std::make_unique<DurTable>();
  }
  t->dag_id = dag_->build_id();
  t->charge = charge;
  t->miss_costs.clear();
  if (charge)
    for (std::size_t l = 1; l <= L; ++l)
      t->miss_costs.push_back(m_->miss_cost(l));
  t->dur.assign(num_units(), 0.0);
  for (std::size_t u = 0; u < num_units(); ++u) {
    double c = 0.0;
    if (charge)
      for (std::size_t l = 1; l <= L; ++l) {
        const int task = dag_->unit_task(l, u);
        c += dag_->task_size(l, task) * m_->miss_cost(l) /
             double(dag_->task_units(l, task));
      }
    t->dur[u] = dag_->unit_work(u) + c;
  }
  dur_.insert(dur_.begin(), std::move(t));
  return dur_.front()->dur;
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

void SimCore::apply(std::span<const CondensedDag::Effect> effects) {
  for (const CondensedDag::Effect& e : effects) {
    if (e.level == 0) {
      if (--ctrl_in_deg_[e.index] == 0) cascade_.push_back(e.index);
      continue;
    }
    if (e.level >= CondensedDag::kDone) {
      policy_->on_task_done(e.level & ~CondensedDag::kDone, int(e.index));
      continue;
    }
    if (--ext_[e.index] == 0) {
      // Tracing: a unit's queue wait starts when its last external
      // dependence is satisfied (units ready at t=0 keep the default 0).
      if (!ready_at_.empty() && e.level == 1)
        ready_at_[e.index - dag_->ext_off(1)] = now_;
      if (ready_hooks_enabled_)
        policy_->on_task_ready(e.level,
                               int(e.index - dag_->ext_off(e.level)));
    }
  }
}

void SimCore::fire_control(std::uint32_t c) {
  apply(dag_->control_firing(c));
}

void SimCore::cascade_all() {
  while (!cascade_.empty()) {
    const std::uint32_t c = cascade_.back();
    cascade_.pop_back();
    fire_control(c);
  }
}

void SimCore::complete_unit(int u) {
  // Only the root's tasks complete here: no maximal task is rooted strictly
  // inside a unit, and the root's exit is the unit's last vertex to fire.
  apply(dag_->unit_firing(u));
  cascade_all();
}

void SimCore::dispatch(double now) {
  now_ = now;
  // Picks run in idle order and the processors left idle keep it, so the
  // idle list is compacted in place; a processor the policy cannot reach
  // stays idle unasked, and so does the rest once none is reachable.
  std::size_t i = 0, kept = 0;
  for (; i < idle_.size() && policy_->any_reachable(); ++i) {
    const std::size_t p = idle_[i];
    const Assignment a =
        policy_->reachable(p) ? policy_->pick(p, now) : Assignment{};
    if (a.unit < 0) {
      idle_[kept++] = p;
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
  const auto rest = std::copy(idle_.begin() + std::ptrdiff_t(i), idle_.end(),
                              idle_.begin() + std::ptrdiff_t(kept));
  idle_.erase(rest, idle_.end());
}

SchedStats SimCore::run(Scheduler& policy) {
  policy_ = &policy;
  policy.init(*this);

  // Dependence counters start from the dag's precomputed template (one
  // external arrow per edge crossing a maximal task boundary, at every
  // level it crosses) — already copied by init_run_state().

  for (std::size_t p = 0; p < m_->num_processors(); ++p) idle_.push_back(p);

  // Initial cascade: fire every dependency-free control vertex (the dag
  // keeps them in vertex order). Readiness hooks stay off — the on_start
  // scans cover everything ready at time 0.
  const std::vector<std::uint32_t>& seeds = dag_->initially_ready_controls();
  cascade_.assign(seeds.begin(), seeds.end());
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
