// Workload `sweep`: the simulator's main use. An exp::Sweep grid of
// transcribed kernels plus generated DAGs under sb/ws/greedy on a flat and
// a two-level machine at σ = 1/3, two seed repeats, with measured misses
// on, at jobs = 2. Each round's Sweep elaborates and condenses its DAGs
// again (about a third of the round); the rest is the cells: the SimCore
// event loop, the pmh occupancy layer and the sweep's chunked dispatch.
// Set-up is elaboration plus condensation. Neither the serve engine nor
// the native runtime runs.
#include <sstream>

#include "exp/sweep.hpp"

#include "layers.hpp"
#include "support/rng.hpp"

namespace pb {

using namespace ndf;

namespace {

constexpr double kSigma = 1.0 / 3.0;
/// Round-time tail percentile: a run has ~45-60 rounds of ~0.45 s.
constexpr double kTailPct = 75.0;
constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kJobs = 2;
/// Seed repeats of every cell (steal seeds for ws): with one, a round's
/// elaboration and condensation took about as long as its cells.
constexpr std::size_t kRepeats = 2;

/// The DAGs of one seed: fixed-size kernels (elaboration plus condensation
/// of the set takes a few hundred ms) and two generated DAGs whose shape
/// the seed picks.
std::vector<std::string> sweep_specs(std::uint64_t seed) {
  Rng rng(seed);
  const std::uint64_t sp_seed = 1 + rng.below(1u << 30);
  return {"mm:n=128",
          "trs:n=128",
          "cholesky:n=128",
          "lcs:n=512",
          "fw2d:n=64",
          "gen:family=sp,depth=7,fan=3,cross=60,seed=" +
              std::to_string(sp_seed),
          "gen:family=wavefront,n=64"};
}

const std::vector<std::string> kMachines = {"flat16", "deep2x4"};

}  // namespace

Result run_sweep(const Options& o, Tracer& tr) {
  Result r;
  const std::vector<std::string> specs = sweep_specs(o.seed);

  std::vector<double> setup_s;
  DagSet d;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    Scoped span(tr, "setup");
    setup_s.push_back(
        time_s([&] { d = build_dags(specs, kMachines, kSigma, tr); }));
  }
  exp::Scenario scenario = sim_scenario(d.specs, kMachines, kSigma, o.seed);
  scenario.repeats = kRepeats;
  const BoundsTable bounds = compute_bounds(d, kMachines);

  std::vector<exp::RunPoint> first;
  std::vector<exp::RunPoint> last;
  std::vector<double> build_s, condense_s, cells_s;
  {  // warm-up round, untimed: its results are the reference of every round
    exp::Sweep warm(scenario, kJobs);
    first = warm.run();
  }
  const Rounds rounds = timed_rounds(
      o.seconds, 8, tr,
      [&](Tracer& t) {
        exp::Sweep sw(scenario, kJobs);
        Scoped span(t, "exp.Sweep::run", "jobs=2");
        last = sw.run();
        build_s.push_back(sw.phase_times().workload_build);
        condense_s.push_back(sw.phase_times().condensation);
        cells_s.push_back(sw.phase_times().cell_execution);
      },
      [&] {
        r.attempted += last.size();
        r.fail(count_differing(first, last),
               "a sweep round differs from the first round");
      });
  const std::size_t cells = first.size();

  // jobs = 1 takes the serial path; its results must match jobs = 2's.
  std::vector<exp::RunPoint> serial;
  {
    exp::Sweep sw(scenario, 1);
    serial = sw.run();
  }
  r.attempted += cells;
  r.fail(count_differing(first, serial), "jobs=1 differs from jobs=2");
  const SimMetrics sim = check_cells(first, bounds, r);
  r.attempted += cells;  // the bound checks of the reference cells

  r.context.push_back("sweep: " + std::to_string(cells) + " cells per round, " +
                      std::to_string(rounds.plain.size()) + " plain rounds");
  std::ostringstream phases;
  phases << "sweep round phases, median s: build " << median(build_s)
         << ", condense " << median(condense_s) << ", cells "
         << median(cells_s);
  r.context.push_back(phases.str());
  if (!tr.enabled()) {
    add_end_to_end(r, setup_s, rounds.plain, double(cells), kTailPct, sim);
    return r;
  }
  ProbeInputs in;
  in.specs = specs;
  in.machines = kMachines;
  in.sigma = kSigma;
  in.seed = o.seed;
  in.repeats = kRepeats;
  probe_layers(in, tr, r);
  r.add("trace.overhead_x", "x", median(rounds.traced) / median(rounds.plain));
  return r;
}

}  // namespace pb
