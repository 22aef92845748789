// Workload `native`: the real-thread executor on real data. Each round
// runs ND matrix multiply (fine 16-wide base case) and ND LCS (a block
// wavefront) under both ws and sb (anchored on deep2x4's cache tree) at 2
// threads, four times over: 16 execute() calls, so a round is long
// enough (~0.1 s) that one stalled strand does not set its time. Almost
// all time is in the executor hot path (per-strand cost, steals, sb
// handoffs); the simulator runs only once, outside the rounds, to give the
// simulated prediction for the same DAGs.
#include <cstring>

#include "algos/lcs.hpp"
#include "algos/linalg_types.hpp"
#include "algos/matmul.hpp"
#include "exp/sweep.hpp"
#include "layers.hpp"
#include "nd/drs.hpp"
#include "pmh/presets.hpp"
#include "runtime/oracle.hpp"
#include "support/rng.hpp"

namespace pb {

using namespace ndf;

namespace {

constexpr double kSigma = 1.0 / 3.0;
/// Round-time tail percentile: a run has ~150-200 rounds of ~0.1 s.
constexpr double kTailPct = 90.0;
constexpr std::size_t kSetupReps = 15;
constexpr std::size_t kThreads = 2;
/// Executions of each (DAG, mode) per round.
constexpr std::size_t kCopies = 4;
constexpr std::size_t kMmN = 256, kMmBase = 16;
constexpr std::size_t kLcsN = 1024, kLcsBase = 32;
const std::string kMachine = "deep2x4";

/// Seeded inputs shared by every execution: the operands and sequences.
struct Data {
  Matrix<double> A, B;
  std::vector<int> S, T;
};

/// Heap-allocated: strand bodies keep pointers into it.
std::unique_ptr<Data> make_data(std::uint64_t seed) {
  auto d = std::make_unique<Data>(Data{Matrix<double>(kMmN, kMmN),
                                       Matrix<double>(kMmN, kMmN), {}, {}});
  Rng rng(seed);
  for (Matrix<double>* m : {&d->A, &d->B})
    for (std::size_t i = 0; i < kMmN; ++i)
      for (std::size_t j = 0; j < kMmN; ++j) (*m)(i, j) = rng.uniform(-1, 1);
  d->S.resize(kLcsN);
  d->T.resize(kLcsN);
  for (int& x : d->S) x = int(rng.below(4));
  for (int& x : d->T) x = int(rng.below(4));
  return d;
}

/// One executable program with its own output buffer.
struct Program {
  std::string name;
  std::unique_ptr<Matrix<double>> C;  ///< mm output
  std::unique_ptr<Matrix<int>> X;     ///< lcs table
  std::unique_ptr<SpawnTree> tree;
  std::unique_ptr<StrandGraph> graph;

  void clear() {
    if (C) std::memset(C->data(), 0, kMmN * kMmN * sizeof(double));
    if (X) std::memset(X->data(), 0, (kLcsN + 1) * (kLcsN + 1) * sizeof(int));
  }
  bool same_output(const Program& o) const {
    if (C) return std::memcmp(C->data(), o.C->data(),
                              kMmN * kMmN * sizeof(double)) == 0;
    return std::memcmp(X->data(), o.X->data(),
                       (kLcsN + 1) * (kLcsN + 1) * sizeof(int)) == 0;
  }
};

Program make_mm(Data& d, Tracer& tr) {
  Program p{"mm", std::make_unique<Matrix<double>>(kMmN, kMmN, 0.0), nullptr,
            std::make_unique<SpawnTree>(), nullptr};
  {
    Scoped span(tr, "nd.build_tree", "mm");
    const LinalgTypes ty = LinalgTypes::install(*p.tree);
    p.tree->set_root(build_mm(*p.tree, ty, kMmN, kMmN, kMmN, kMmBase, +1.0,
                              MmViews{d.A.view(), d.B.view(), p.C->view(),
                                      false}));
  }
  Scoped span(tr, "nd.elaborate", "mm");
  p.graph = std::make_unique<StrandGraph>(elaborate(*p.tree));
  span.set_units(double(p.tree->strand_count(p.tree->root())));
  return p;
}

Program make_lcs(Data& d, Tracer& tr) {
  Program p{"lcs", nullptr,
            std::make_unique<Matrix<int>>(kLcsN + 1, kLcsN + 1, 0),
            std::make_unique<SpawnTree>(), nullptr};
  {
    Scoped span(tr, "nd.build_tree", "lcs");
    const LcsTypes ty = LcsTypes::install(*p.tree);
    p.tree->set_root(build_lcs(*p.tree, ty, kLcsN, kLcsBase,
                               LcsViews{&d.S, &d.T, p.X.get()}));
  }
  Scoped span(tr, "nd.elaborate", "lcs");
  p.graph = std::make_unique<StrandGraph>(elaborate(*p.tree));
  span.set_units(double(p.tree->strand_count(p.tree->root())));
  return p;
}

/// Everything a round executes: per (program, mode) its own copy, so
/// outputs can be checked after the round instead of inside it.
struct Inputs {
  std::unique_ptr<Data> data;
  /// kCopies × (mm/ws, mm/sb, lcs/ws, lcs/sb): run i is mm when
  /// (i / 2) % 2 == 0, and sb when i is odd.
  std::vector<Program> runs;
  std::vector<Program> refs;  ///< mm, lcs: serial-elision references
};

Inputs make_inputs(std::uint64_t seed, Tracer& tr) {
  Inputs in{make_data(seed), {}, {}};
  for (std::size_t copy = 0; copy < kCopies; ++copy) {
    for (int mode = 0; mode < 2; ++mode)
      in.runs.push_back(make_mm(*in.data, tr));
    for (int mode = 0; mode < 2; ++mode)
      in.runs.push_back(make_lcs(*in.data, tr));
  }
  return in;
}

ExecOptions exec_options(ExecMode mode, std::uint64_t seed, const Pmh& m) {
  ExecOptions e;
  e.threads = kThreads;
  e.mode = mode;
  e.seed = seed;
  e.machine = &m;
  e.sigma = kSigma;
  return e;
}

}  // namespace

Result run_native(const Options& o, Tracer& tr) {
  Result r;
  const Pmh machine = make_pmh(kMachine);

  std::vector<double> setup_s;
  Inputs in;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    Scoped span(tr, "setup");
    in = Inputs{};  // the previous repetition's buffers go first
    setup_s.push_back(time_s([&] { in = make_inputs(o.seed, tr); }));
  }
  // The serial elision's outputs: the bit-exact reference of every run.
  ExecSample sample;
  in.refs.push_back(make_mm(*in.data, tr));
  in.refs.push_back(make_lcs(*in.data, tr));
  sample.serial_kernel_ms = 1e3 * time_s([&] {
    for (Program& p : in.refs) {
      Scoped span(tr, "runtime.execute_serial", p.name);
      execute_serial(*p.graph);
    }
  });

  const std::uint64_t steal_seed = Rng(o.seed ^ 0x57ea1).below(1u << 30);
  const auto round = [&](Tracer& t) {
    for (std::size_t i = 0; i < in.runs.size(); ++i) {
      const bool sb = i % 2 == 1;
      Scoped span(t, "runtime.execute", in.runs[i].name + (sb ? "/sb" : "/ws"));
      const ExecReport rep =
          execute(*in.runs[i].graph,
                  exec_options(sb ? ExecMode::Sb : ExecMode::Ws, steal_seed,
                               machine));
      if (t.enabled()) (sb ? sample.sb : sample.ws).push_back(rep);
    }
  };
  const auto check = [&] {
    for (std::size_t i = 0; i < in.runs.size(); ++i) {
      r.attempted += 1;
      if (!in.runs[i].same_output(in.refs[(i / 2) % 2]))
        r.fail(1, in.runs[i].name + " output differs from execute_serial");
      in.runs[i].clear();
    }
  };
  for (Program& p : in.runs) p.clear();
  Tracer off(false);
  round(off);  // warm-up
  check();
  const Rounds rounds = timed_rounds(o.seconds, 8, tr, round, check);

  // One round under the execution oracle: every strand exactly once and
  // every dependence arrow in order, for both modes.
  for (int which = 0; which < 2; ++which) {
    for (ExecMode mode : {ExecMode::Ws, ExecMode::Sb}) {
      Program p = which == 0 ? make_mm(*in.data, off) : make_lcs(*in.data, off);
      ExecutionOracle oracle(*p.tree);
      execute(*p.graph, exec_options(mode, steal_seed, machine));
      const std::vector<std::string> bad = oracle.verify(*p.graph);
      r.attempted += 1;
      r.fail(bad.empty() ? 0 : 1,
             p.name + " oracle: " + (bad.empty() ? "" : bad.front()));
      r.fail(p.same_output(in.refs[which]) ? 0 : 1,
             p.name + " oracle run output differs from execute_serial");
    }
  }

  // The simulator's prediction for the same DAGs, structure only.
  const std::vector<std::string> specs = {
      "mm:n=" + std::to_string(kMmN) + ",base=" + std::to_string(kMmBase),
      "lcs:n=" + std::to_string(kLcsN) + ",base=" + std::to_string(kLcsBase)};
  const std::vector<std::string> machines = {kMachine};
  const DagSet d = build_dags(specs, machines, kSigma, off);
  exp::Sweep sim_sweep(sim_scenario(d.specs, machines, kSigma, o.seed), 1);
  const std::vector<exp::RunPoint>& cells = sim_sweep.run();
  r.attempted += cells.size();
  const SimMetrics sim =
      check_cells(cells, compute_bounds(d, machines), r);

  if (!tr.enabled()) {
    add_end_to_end(r, setup_s, rounds.plain, double(in.runs.size()),
                   kTailPct, sim);
    return r;
  }
  ProbeInputs probe;
  probe.specs = specs;
  probe.machines = machines;
  probe.sigma = kSigma;
  probe.seed = o.seed;
  probe.exec = &sample;
  probe_layers(probe, tr, r);
  r.add("trace.overhead_x", "x", median(rounds.traced) / median(rounds.plain));
  return r;
}

}  // namespace pb
