// Shared discrete-event simulation core for scheduler policies on a PMH.
//
// Every scheduler the paper compares (space-bounded, work-stealing, and the
// baselines) simulates the same machinery: condense the elaborated strand
// DAG into σM1-maximal atomic units, fire vertices as units complete,
// propagate readiness through per-level M-maximal task condensations, run a
// time-ordered event loop over the processors, charge misses against the
// PMH, and account work/utilization into one stats record. SimCore owns all
// of that; a Scheduler policy only decides *which* ready unit runs *where*
// and what latency it is charged (see DESIGN.md, "Simulator architecture").
//
// The static half of the machinery — decompositions, unit work, dependence
// templates and every unit's completion frozen into a flat effect list —
// lives in an immutable CondensedDag. SimCore is the cheap per-run half:
// mutable counters, the event queue, and stats. Completing a unit is one
// contiguous scan of its effect list; the event loop never walks the spawn
// tree or the strand graph. A SimCore runs on a borrowed CondensedDag, so
// a sweep reuses one condensation across policies and machines; one-shot
// callers build a local dag (as run_scheduler does). One instance is
// reusable across runs: reset(dag, machine, opts) rebinds it and restores
// every counter arena from the dag's templates while keeping all buffer
// capacity — the sweep engine runs thousands of grid cells through one
// worker-local core with zero per-cell allocation churn (mutable state
// lives in flat arenas, the event queue is a plain vector-heap, and the
// core keeps one distributed duration table per (dag, miss costs, charge)
// binding it has seen, so a serve stream alternating workloads reuses
// them). After each completion the core offers work only to the idle
// processors the policy reports it can reach (Reach below).
//
// The split keeps policies small: SB is anchoring/boundedness/allocation,
// WS is victim selection plus the footprint-reload cache model, greedy and
// serial are a queue discipline each. New policies implement Scheduler and
// register themselves in sched/registry.hpp. A policy instance, like a
// core, is reusable: init() restores its per-run state at every run.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "obs/events.hpp"
#include "pmh/machine.hpp"
#include "pmh/occupancy.hpp"
#include "sched/condensed_dag.hpp"

namespace ndf {

/// Options shared by every scheduler policy. Policy-specific knobs are
/// grouped but live here so the string-keyed registry can construct any
/// policy from one record.
struct SchedOptions {
  double sigma = 1.0 / 3.0;   ///< dilation parameter: units are σM1-maximal
  bool charge_misses = true;  ///< include miss latency in unit durations
  /// Simulate per-cache occupancy (pmh/occupancy.hpp) and report the
  /// *measured* per-level misses Q_i and communication cost alongside the
  /// policy's charged model. Purely observational: it never changes unit
  /// durations, so makespan and the legacy stats are bit-identical with
  /// the flag on or off.
  bool measure_misses = false;
  /// Cache model the measured occupancy simulates (pmh/cache_model.hpp):
  /// replacement policy, associativity/line granularity, inclusive vs
  /// exclusive levels, write-back and contention costs. The default spec
  /// is the ideal whole-capacity LRU whose counters are byte-identical to
  /// the pre-registry layer. Irrelevant unless measure_misses.
  CacheModelSpec cache_model;
  /// Service mode (src/serve/): carry the simulated occupancy *contents*
  /// over from the previous run on this core instead of starting cold, so
  /// consecutive jobs multiplexed onto one machine see each other's cache
  /// residue. Only meaningful with measure_misses on a reset()-reused core
  /// whose machine binding is unchanged; the reported measured_misses /
  /// comm_cost are then *cumulative* since the occupancy last started cold
  /// (callers take per-run deltas). Purely observational either way: unit
  /// durations and makespan never depend on the occupancy layer.
  bool keep_occupancy = false;
  /// Added to every decomposition index before it is used as an occupancy
  /// footprint key. The service engine gives each (tenant, condensation)
  /// pair a disjoint 2^32-aligned range: different tenants' jobs can never
  /// false-hit each other's data, while a tenant's repeat jobs over the
  /// same workload share keys and can hit lines left warm by earlier jobs.
  /// Irrelevant (and zero) outside service mode.
  std::int64_t occ_task_base = 0;
  /// Structured event sink (obs/events.hpp): unit executions, dispatch-
  /// queue waits, and — because attaching a sink turns the occupancy
  /// simulation on even without measure_misses — cache hit/miss/evict/
  /// pin/unpin events. Strictly observational: stats and emitter outputs
  /// are byte-identical with or without a sink (measured_misses stays
  /// empty unless measure_misses is also set); when null the hot paths pay
  /// one pointer test. The sweep engines attach one to grid cell 0 only.
  obs::TraceSink* sink = nullptr;

  // Space-bounded family.
  double alpha_prime = 1.0;  ///< allocation exponent α' = min{αmax, 1}

  // Work-stealing family.
  std::uint64_t seed = 42;  ///< victim-selection seed
  double steal_cost = 0.0;  ///< fixed latency added to stolen units
};

/// Unified per-run statistics (one struct for every policy; fields that a
/// policy does not produce stay zero).
struct SchedStats {
  double makespan = 0.0;
  double total_work = 0.0;
  /// misses[i] = total misses in all level-(i+1) caches (i in 0..h-2).
  std::vector<double> misses;
  /// Total miss latency charged (Σ_level misses·C).
  double miss_cost = 0.0;
  std::size_t atomic_units = 0;
  std::size_t anchors = 0;  ///< space-bounded: tasks anchored
  std::size_t steals = 0;   ///< work-stealing: successful steals
  /// Average processor utilization: total busy time / (p · makespan).
  double utilization = 0.0;
  /// Measured per-level misses Q_i from the simulated occupancy layer
  /// (empty unless SchedOptions::measure_misses): measured_misses[i] is the
  /// total words loaded into level-(i+1) caches, the quantity Theorem 1
  /// bounds by Q*(t; σM_{i+1}).
  std::vector<double> measured_misses;
  /// Measured communication cost — Σ_level (Q_i + WB_i)·C_i plus the
  /// contention cost below (0 unless measuring). With the default cache
  /// model the write-back and contention terms are zero, so this stays the
  /// legacy Σ Q_i·C_i byte for byte.
  double comm_cost = 0.0;
  /// Per-level write-back traffic WB_i of the measured cache model (empty
  /// unless measuring with a wb > 0 model): words of dirty-eviction
  /// traffic, costed into comm_cost but *not* part of Q_i.
  std::vector<double> measured_writebacks;
  /// Shared-bandwidth contention cost Σ_level contention_i·C_i (0 unless
  /// measuring with a bw > 0 model); already included in comm_cost.
  double contention_cost = 0.0;
};

class SimCore;

/// A unit chosen to run on a processor, with its full charged duration
/// (work plus whatever latency the policy's cache model adds). unit < 0
/// leaves the processor idle until more work appears.
struct Assignment {
  int unit = -1;
  double duration = 0.0;
};

/// Which processors a policy's pick() can give a unit to, kept by the
/// policy as counts the core reads without a virtual call. A run queue
/// that processors [first, last) scan counts once for each of them while
/// it holds a unit, a queue every processor scans counts once in a shared
/// total, and a processor with both counts at zero is not asked to pick.
/// Counts change only when a queue turns empty or non-empty. A default-
/// constructed Reach is never reset and stays "every processor, always".
class Reach {
 public:
  /// Tracks `procs` processors, with nothing queued anywhere.
  void reset(std::size_t procs) {
    queues_ = shared_ = 0;
    proc_.assign(procs, 0);
  }
  /// A queue scanned by processors [first, last) turned non-empty
  /// (delta = +1) or empty (delta = -1).
  void add(std::size_t first, std::size_t last, int delta) {
    queues_ += delta;
    for (std::size_t p = first; p < last; ++p) proc_[p] += delta;
  }
  /// A queue scanned by every processor turned non-empty or empty.
  void add_shared(int delta) {
    queues_ += delta;
    shared_ += delta;
  }
  /// Some queue holds a unit.
  bool any() const { return queues_ != 0; }
  bool reachable(std::size_t proc) const {
    return shared_ != 0 || proc_[proc] != 0;
  }

 private:
  int queues_ = 1, shared_ = 1;  // non-empty queues: all, shared ones
  std::vector<int> proc_;
};

/// Scheduler policy interface. The core drives the event loop and firing;
/// the policy reacts to readiness/completion hooks and assigns units to
/// idle processors. Hooks are invoked in deterministic simulation order.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual const char* name() const = 0;

  /// Called at the start of every run, after the core has restored its
  /// counters from the dag's templates and before anything fires. One
  /// instance may serve many runs (the sweep and serve engines reuse one
  /// per policy name across reset()s), so init() must restore every piece
  /// of per-run state and take its options from core.options(), never
  /// from the factory's argument: a reused instance's run must equal a
  /// fresh instance's bit for bit.
  virtual void init(SimCore& core) = 0;

  /// Called after the initial control-vertex cascade; seed ready work from
  /// the tasks/units whose external dependence count is already zero.
  virtual void on_start() = 0;

  /// Assign a unit to idle processor `proc` at time `now`, or return a
  /// negative unit to leave it idle. Only called when reachable(proc).
  virtual Assignment pick(std::size_t proc, double now) = 0;

  /// False when pick(proc) would return no unit and change no state: the
  /// core then leaves `proc` idle without asking. Read before every pick()
  /// of a dispatch round, so it must follow the picks made earlier in the
  /// round; nothing becomes ready inside one. A policy that never resets
  /// reach_ has every idle processor asked every time — as it must be when
  /// an empty pick has effects (ws draws its steal victims from a seeded
  /// stream either way).
  bool reachable(std::size_t proc) const { return reach_.reachable(proc); }
  /// False when no processor is reachable: the core ends the round.
  bool any_reachable() const { return reach_.any(); }

  /// A level-`level` maximal task's last external dependence was satisfied
  /// (level 1 = atomic units). Fired for every level, innermost first.
  /// Not delivered during the initial control cascade — everything ready at
  /// time zero is covered by the on_start scan (e.g. via
  /// SimCore::initially_ready_units), so policies cannot double-queue.
  virtual void on_task_ready(std::size_t level, int task) {
    (void)level;
    (void)task;
  }

  /// Level-`level` maximal task `task` completed: the exit vertex of the
  /// node it is rooted at fired (the SB policy releases capacity here).
  /// The tasks one exit completes are reported in level order, right after
  /// that vertex's own effects; an exit that roots no task reports nothing.
  /// Frozen per unit and per control vertex in the CondensedDag.
  virtual void on_task_done(std::size_t level, int task) {
    (void)level;
    (void)task;
  }

  /// Atomic unit `unit` finished on `proc` (vertices already fired).
  virtual void on_unit_complete(std::size_t proc, int unit) {
    (void)proc;
    (void)unit;
  }

 protected:
  /// The counts behind reachable(); a policy that tracks them resets them
  /// in init().
  Reach reach_;
};

/// The shared simulator. Construct once, reset() per further run, and
/// call run(policy) — with a fresh policy or one reused across runs.
class SimCore {
 public:
  /// Runs on a shared, externally owned condensation. `dag` must outlive
  /// the core and be compatible with (machine, opts.sigma) — checked.
  SimCore(const CondensedDag& dag, const Pmh& machine,
          const SchedOptions& opts) {
    reset(dag, machine, opts);
  }

  /// Rebinds this core to (dag, machine, opts) and restores all per-run
  /// state from the dag's templates, as if freshly constructed — but every
  /// buffer keeps its capacity, so a core cycled through a sweep chunk
  /// allocates only when a bigger dag than any before arrives. Stats from
  /// a reset-reused core are bit-identical to a fresh core's (tested).
  /// `dag` and `machine` must outlive the core until the next reset.
  void reset(const CondensedDag& dag, const Pmh& machine,
             const SchedOptions& opts);

  SchedStats run(Scheduler& policy);

  // --- static structure available from Scheduler::init on -----------------
  const CondensedDag& dag() const { return *dag_; }
  const Pmh& machine() const { return *m_; }
  /// The options this run was bound with (reset()). Policies read theirs
  /// here in init(), so one instance can serve runs with different σ, α'
  /// or seeds.
  const SchedOptions& options() const { return opts_; }

  std::size_t num_levels() const { return dag_->num_levels(); }
  /// σM_level-maximal decomposition (level in 1..num_levels()).
  const Decomposition& decomposition(std::size_t level) const {
    return dag_->decomposition(level);
  }

  /// Atomic units are the σM1-maximal tasks, indexed in spawn-tree
  /// (depth-first, left-to-right) order.
  std::size_t num_units() const { return dag_->num_units(); }
  NodeId unit_root(int u) const { return dag_->unit_root(u); }
  double unit_work(int u) const { return dag_->unit_work(u); }

  /// Unsatisfied external incoming dataflow arrows of a maximal task.
  int task_ext(std::size_t level, int t) const {
    return ext_[dag_->ext_off(level) + t];
  }

  /// Units with no unsatisfied external dependences, in unit order. The
  /// canonical on_start seed for unit-queue policies.
  std::vector<int> initially_ready_units() const;

  /// Per-unit durations under the distributed optimal-replacement charge:
  /// each level-l maximal task's footprint is loaded exactly once (s(t)
  /// misses at level l) and the latency s(t)·Cl is spread uniformly over
  /// the task's units, the way the Eq. (22) bound assumes. This is the SB
  /// accounting; greedy and serial reuse it as their cache model.
  ///
  /// The table depends only on the dag, the machine's per-level miss
  /// costs and opts.charge_misses, so the core computes it once per such
  /// binding and keeps the most recently used tables (keyed by the dag's
  /// build id, never its address) across reset()s: a sweep chunk or a
  /// serve stream cycling through a few workloads builds each table once.
  /// The reference stays valid until the next reset().
  const std::vector<double>& distributed_unit_durations() const;

  /// Charges every maximal task's footprint once into stats().misses —
  /// the schedule-independent miss total matching
  /// distributed_unit_durations().
  void charge_condensed_footprints();

  /// Mutable during a run: policies account misses/anchors/steals here.
  SchedStats& stats() { return stats_; }

  // --- simulated occupancy (opts.measure_misses or opts.sink) -------------
  /// True when this run simulates cache occupancy — because it measures
  /// Q_i (opts.measure_misses) and/or traces cache events (opts.sink).
  /// Measured Q_i / comm_cost are reported in stats only under
  /// measure_misses.
  bool measuring() const { return occ_ != nullptr; }
  /// Space-bounded reservation hooks: pin the footprint of level-`level`
  /// maximal task `task` in cache `cache` (anchoring) so occupancy
  /// eviction honors the boundedness invariant, and release it when the
  /// task completes. No-ops when not measuring.
  void pin_footprint(std::size_t level, std::size_t cache, int task);
  void unpin_footprint(std::size_t level, std::size_t cache, int task);

 private:
  struct Ev {
    double time;
    std::size_t proc;
    int unit;
    bool operator>(const Ev& o) const { return time > o.time; }
  };

  void init_run_state();

  /// Applies one frozen list: counter decrements with their readiness
  /// hooks, control in-degree decrements queued for the cascade, and the
  /// completed tasks reported to on_task_done, in list order.
  void apply(std::span<const CondensedDag::Effect> effects);
  /// Fires control vertex c: its effects, then the tasks it completes.
  void fire_control(std::uint32_t c);
  void cascade_all();
  /// Runs unit `u`'s footprint through every cache above `proc` (level 1
  /// up) in the occupancy layer; called once per assignment, at unit start.
  /// Under an exclusive cache model, a level that hits stops the walk —
  /// the unit is served from the innermost resident copy and outer levels
  /// see no traffic.
  void touch_unit(std::size_t proc, int u);
  /// Other processors currently running a unit under the same level-`level`
  /// cache as `proc` — the contention sharer count for a bw > 0 model.
  std::size_t busy_sharers(std::size_t proc, std::size_t level) const;
  /// Fires all vertices of completed unit `u` (its frozen effect list),
  /// reports the tasks rooted at its root, then runs the control cascade.
  void complete_unit(int u);
  /// Offers work to the idle processors the policy can reach, in idle
  /// order.
  void dispatch(double now);

  // The event queue as an explicit vector-heap (std::push_heap/pop_heap
  // with the same comparator std::priority_queue would use, so completion
  // order is unchanged) — unlike priority_queue it can be cleared without
  // giving its capacity back.
  void push_event(const Ev& e);
  Ev pop_event();

  const CondensedDag* dag_ = nullptr;
  const Pmh* m_ = nullptr;
  SchedOptions opts_;  // by value: a temporary argument must not dangle
  Scheduler* policy_ = nullptr;
  bool ready_hooks_enabled_ = false;

  // Per-run counter arenas, restored from the dag's flat templates on
  // every reset (vector assigns — capacity survives).
  std::vector<int> ext_;  // flat (level, task) arena, dag_->ext_off layout
  std::vector<std::uint32_t> ctrl_in_deg_;  // per control vertex

  // Reused scratch: the control cascade (control vertex numbers) and the
  // idle processors keep their high-water capacity.
  std::vector<std::uint32_t> cascade_;
  std::vector<std::size_t> idle_;

  std::vector<Ev> events_;  // min-heap on time

  // Distributed-charge duration tables, one per binding, most recently used
  // first; at most kDurTables are kept.
  struct DurTable {
    std::size_t dag_id;
    bool charge;
    std::vector<double> miss_costs;  // per level; empty when !charge
    std::vector<double> dur;
  };
  static constexpr std::size_t kDurTables = 16;
  mutable std::vector<std::unique_ptr<DurTable>> dur_;

  std::unique_ptr<CacheOccupancy> occ_;  // when measuring and/or tracing
  const Pmh* occ_machine_ = nullptr;     // machine occ_ was shaped for
                                         // (its model spec lives in occ_)

  SchedStats stats_;
  double busy_time_ = 0.0;
  // Tracing state (only touched when opts_.sink is set, except now_ which
  // tracks the event-loop clock unconditionally — occupancy trace events
  // read it by pointer).
  double now_ = 0.0;
  std::vector<double> ready_at_;  // per unit: last ext dependence satisfied
};

}  // namespace ndf
