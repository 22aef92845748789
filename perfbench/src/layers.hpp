// Library-facing helpers shared by the three workloads: building a set of
// DAGs with a span around every layer call, the simulated-output checks
// and metrics, and the per-layer probes of the traced run.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "exp/scenario.hpp"
#include "pmh/machine.hpp"
#include "runtime/executor.hpp"
#include "sched/condensed_dag.hpp"

namespace pb {

/// Built inputs of one workload: spawn trees, elaborated graphs, and one
/// condensation per (DAG, distinct cache-size profile of `machines`).
struct DagSet {
  std::vector<ndf::exp::WorkloadSpec> specs;
  std::vector<std::unique_ptr<ndf::SpawnTree>> trees;
  std::vector<std::unique_ptr<ndf::StrandGraph>> graphs;
  std::vector<ndf::Pmh> machines;
  std::vector<std::size_t> profile_of;  ///< machine index -> profile index
  /// dags[d][profile]
  std::vector<std::vector<std::unique_ptr<ndf::CondensedDag>>> dags;
};

/// Parses `specs`, builds each spawn tree (span "gen.generate" for gen:
/// specs, "nd.build_tree" otherwise), elaborates it ("nd.elaborate") and
/// condenses it once per cache-size profile ("sched.condense").
DagSet build_dags(const std::vector<std::string>& specs,
                  const std::vector<std::string>& machines, double sigma,
                  Tracer& tr);

/// Work, span and Q*(σM_l) of one DAG on one machine: the bounds the
/// simulated results are checked against.
struct Bounds {
  double work = 0.0;
  double span = 0.0;
  std::vector<double> qstar;  ///< [l-1] = Q*(σ·M_l) of the machine
};
/// Keyed by (workload label, machine spec).
using BoundsTable = std::map<std::pair<std::string, std::string>, Bounds>;
BoundsTable compute_bounds(const DagSet& d,
                           const std::vector<std::string>& machine_specs);

/// The three simulated metrics, each a pure function of the seed.
struct SimMetrics {
  double makespan_ratio = 0.0;  ///< geomean, sb cells: makespan/max(W/p,T∞)
  double q_ratio_max = 0.0;     ///< max, sb kernel cells: Q_i / Q*(σM_i)
  double slowdown_p99 = 0.0;    ///< p99 over cells: makespan/best policy's
};

/// Checks every cell of a sweep (makespan >= max(W/p, span); Theorem 1
/// for sb cells of transcribed kernels under the default cache model),
/// books failures in `r`, and returns the simulated metrics.
SimMetrics check_cells(const std::vector<ndf::exp::RunPoint>& cells,
                       const BoundsTable& bounds, Result& r);

/// The grid every workload's simulated metrics come from: `specs` ×
/// `machines` × {sb, ws, greedy} at `sigma` with measured misses on; ws
/// victim selection is seeded by `seed`.
ndf::exp::Scenario sim_scenario(
    const std::vector<ndf::exp::WorkloadSpec>& specs,
    const std::vector<std::string>& machines, double sigma,
    std::uint64_t seed);

/// Appends the end-to-end metrics of a plain run: set-up median, peak RSS,
/// round statistics (`ops_per_round` ops per round, tail at
/// `tail_pct` when the round count supports it) and the simulated metrics.
void add_end_to_end(Result& r, const std::vector<double>& setup_s,
                    const std::vector<double>& round_ms,
                    double ops_per_round, double tail_pct,
                    const SimMetrics& sim);

/// Number of cells whose coordinates or stats differ between two runs.
std::size_t count_differing(const std::vector<ndf::exp::RunPoint>& a,
                            const std::vector<ndf::exp::RunPoint>& b);

/// Real-thread executions the workload itself made (native only); the
/// executor probe takes its steal/handoff/busy figures from these when
/// given, and from its own no-body runs otherwise.
struct ExecSample {
  std::vector<ndf::ExecReport> ws, sb;
  double serial_kernel_ms = 0.0;
};

/// Inputs of the per-layer probes of a traced run: the workload's DAGs
/// (structure only), its machines, and — for the serve workload — the
/// job stream the engine served.
struct ProbeInputs {
  std::vector<std::string> specs;
  std::vector<std::string> machines;
  double sigma = 1.0 / 3.0;
  std::uint64_t seed = 1;
  /// Seed repeats of the simulated grid (the sweep workload's own).
  std::size_t repeats = 1;
  /// Serve workload: the served stream's arrival spec and rate. Other
  /// workloads leave it empty; the serve probe then streams their own DAGs
  /// at a rate it calibrates to the same offered load.
  std::string arrivals;
  double rate = 0.0;
  const ExecSample* exec = nullptr;
};

/// Runs every layer probe on the workload's own inputs and appends every
/// per-layer metric to `r` (docs in perfbench/README.md). The spans land
/// in `tr`.
void probe_layers(const ProbeInputs& in, Tracer& tr, Result& r);

}  // namespace pb
