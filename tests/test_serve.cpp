// Tests of the open-arrivals service mode (src/serve/):
//   V1  arrival-spec parsing: round-trip labels, loud failures that name
//       the full offending spec verbatim (unknown kind/key, duplicates,
//       missing required keys, out-of-range values)
//   V2  trace parsing: comments/blanks, (arrival, input-order) sorting,
//       deadlines; malformed lines fail loudly with file:line and the
//       offending text verbatim
//   V3  poisson expansion is a pure function of (spec, mix); closed specs
//       and empty mixes are rejected
//   V4  the edf policy: registered, flagged deadline-aware, and its batch
//       (single-DAG) stats are bit-identical to greedy's — the unit-level
//       discipline is the same; only service-mode admission differs
//   V5  service semantics: a single-job stream equals the batch makespan
//       (latency = service when it arrives at time 0), simultaneous
//       arrivals tie-break by submission index under FIFO and by deadline
//       under EDF, and an empty stream is an idle service (zeros,
//       fairness 1), not an error
//   V6  determinism: the full grid at --jobs=1 and --jobs=4 produces
//       byte-identical table/JSON/CSV output (measured and unmeasured),
//       and a rerun with the same seed reproduces it
//   V7  per-job measured Q_i (--misses): tenant namespacing means another
//       tenant's identical job measures exactly the same cold misses,
//       per-job deltas sum to the cell totals, and a tenant's repeat job
//       benefits from its own warm lines
//   V8  scenario validation: unknown policies, stream conflicts and
//       out-of-range parameters fail loudly; a workload that fails to
//       build leaves no results and no build count at --jobs=1 and 2, and
//       a second run() throws again
//   V9  per-workload memo: a seed-free, unmeasured, untraced cell simulates
//       each distinct workload once, and every JobRecord still equals its
//       job run alone (fresh SimCore, fresh policy, its own seed); ws jobs
//       keep their own seeds, and the traced cell records every unit of
//       every job
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <tuple>

#include "exp/workload.hpp"
#include "obs/recorder.hpp"
#include "pmh/presets.hpp"
#include "sched/condensed_dag.hpp"
#include "sched/registry.hpp"
#include "sched/sim_core.hpp"
#include "serve/engine.hpp"
#include "serve/report.hpp"
#include "support/check.hpp"

namespace ndf {
namespace {

using serve::ArrivalSpec;
using serve::JobSpec;
using serve::ServeCell;
using serve::ServeScenario;
using serve::ServeSweep;

/// The error message a callable throws (empty = it did not throw): every
/// loud-failure test asserts on the message content, not just the throw.
template <typename Fn>
std::string check_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const CheckError& e) {
    return e.what();
  }
  return std::string();
}

TEST(Arrivals, SpecRoundTripAndDefaults) {  // V1
  ArrivalSpec a = serve::parse_arrivals("poisson:rate=0.5,jobs=10");
  EXPECT_EQ(a.kind, "poisson");
  EXPECT_DOUBLE_EQ(a.rate, 0.5);
  EXPECT_EQ(a.jobs, 10u);
  EXPECT_EQ(a.tenants, 1u);
  EXPECT_EQ(a.seed, 42u);
  EXPECT_EQ(a.label(), "poisson:rate=0.5,jobs=10");

  a = serve::parse_arrivals(
      "poisson:rate=2,jobs=8,tenants=3,deadline=50,seed=7");
  EXPECT_EQ(a.tenants, 3u);
  EXPECT_DOUBLE_EQ(a.deadline, 50.0);
  EXPECT_EQ(a.seed, 7u);
  EXPECT_EQ(serve::parse_arrivals(a.label()).label(), a.label());

  a = serve::parse_arrivals("closed:clients=4,jobs=6,think=100");
  EXPECT_EQ(a.kind, "closed");
  EXPECT_EQ(a.clients, 4u);
  EXPECT_DOUBLE_EQ(a.think, 100.0);
  EXPECT_EQ(serve::parse_arrivals(a.label()).label(), a.label());
}

TEST(Arrivals, LoudFailuresNameTheFullSpec) {  // V1
  // Every rejection must quote the complete offending spec verbatim, so a
  // failure in a sweep over many streams is attributable at a glance.
  const char* bad[] = {
      "uniform:rate=1,jobs=4",          // unknown kind
      "poisson:rate=1,jobs=4,foo=1",    // unknown key
      "poisson:rate=1,rate=2,jobs=4",   // duplicate key
      "poisson:rate=1",                 // missing jobs
      "poisson:jobs=4",                 // missing rate
      "closed:jobs=4",                  // missing clients
      "poisson:rate=-1,jobs=4",         // out of range
      "poisson:rate=abc,jobs=4",        // not a number
      "closed:clients=4,jobs=4,rate=1"  // poisson-only key on closed
  };
  for (const char* spec : bad) {
    const std::string msg =
        check_error_of([&] { serve::parse_arrivals(spec); });
    ASSERT_FALSE(msg.empty()) << spec;
    EXPECT_NE(msg.find(std::string("'") + spec + "'"), std::string::npos)
        << "message for '" << spec << "' does not name it: " << msg;
  }
}

TEST(Arrivals, TraceParsingSortsAndKeepsInputOrderOnTies) {  // V2
  std::istringstream in(
      "# a comment line\n"
      "100 bob lcs:n=96\n"
      "\n"
      "0 alice mm:n=32 deadline=500\n"
      "100 carol mm:n=32\n");
  const std::vector<JobSpec> jobs = serve::parse_trace(in, "test");
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].tenant, "alice");
  EXPECT_DOUBLE_EQ(jobs[0].arrival, 0.0);
  EXPECT_TRUE(jobs[0].has_deadline());
  EXPECT_DOUBLE_EQ(jobs[0].deadline, 500.0);
  // Equal arrivals keep input order: bob (submitted first) before carol.
  EXPECT_EQ(jobs[1].tenant, "bob");
  EXPECT_EQ(jobs[2].tenant, "carol");
  EXPECT_FALSE(jobs[1].has_deadline());
  // `index` is the submission (input) order, not the sorted position.
  EXPECT_EQ(jobs[0].index, 1u);
  EXPECT_EQ(jobs[1].index, 0u);
}

TEST(Arrivals, TraceRejectionsNameLineAndText) {  // V2
  struct Case {
    const char* line;
    const char* expect;  // must appear in the message
  };
  const Case cases[] = {
      {"abc alice mm:n=32", "'abc'"},
      {"5 alice", "want '<arrival> <tenant> <workload-spec>"},
      {"5 alice nope:n=4", "unknown workload 'nope'"},
      {"5 alice mm:n=32 deadline=2", "deadline"},  // before arrival
      {"5 alice mm:n=32 extra", "unexpected token 'extra'"},
  };
  for (const Case& c : cases) {
    std::istringstream in(c.line);
    const std::string msg =
        check_error_of([&] { serve::parse_trace(in, "t.trace"); });
    ASSERT_FALSE(msg.empty()) << c.line;
    EXPECT_NE(msg.find("t.trace:1"), std::string::npos)
        << "no file:line for '" << c.line << "': " << msg;
    EXPECT_NE(msg.find(c.expect), std::string::npos)
        << "message for '" << c.line << "': " << msg;
  }
}

TEST(Arrivals, PoissonExpansionIsDeterministic) {  // V3
  const ArrivalSpec spec =
      serve::parse_arrivals("poisson:rate=0.01,jobs=16,tenants=3,deadline=99");
  const auto mix = exp::parse_workload_list("mm:n=32;lcs:n=96");
  const auto a = serve::expand_open_arrivals(spec, mix);
  const auto b = serve::expand_open_arrivals(spec, mix);
  ASSERT_EQ(a.size(), 16u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].arrival, b[i].arrival) << i;
    EXPECT_EQ(a[i].tenant, b[i].tenant) << i;
    EXPECT_EQ(a[i].workload.label(), b[i].workload.label()) << i;
    EXPECT_DOUBLE_EQ(a[i].deadline, a[i].arrival + 99.0) << i;
    if (i) {
      EXPECT_GT(a[i].arrival, a[i - 1].arrival) << i;
    }
  }
  // Round-robin dealing over tenants and the mix.
  EXPECT_EQ(a[0].tenant, "t0");
  EXPECT_EQ(a[4].tenant, "t1");
  EXPECT_EQ(a[1].workload.label(), "lcs:n=96");

  EXPECT_FALSE(check_error_of([&] {
                 serve::expand_open_arrivals(
                     serve::parse_arrivals("closed:clients=2,jobs=4"), mix);
               }).empty());
  EXPECT_FALSE(
      check_error_of([&] { serve::expand_open_arrivals(spec, {}); }).empty());
}

TEST(EdfPolicy, RegisteredAndDeadlineAware) {  // V4
  EXPECT_TRUE(scheduler_registered("edf"));
  EXPECT_TRUE(scheduler_deadline_aware("edf"));
  EXPECT_FALSE(scheduler_deadline_aware("sb"));
  EXPECT_FALSE(scheduler_deadline_aware("greedy"));
  const std::string msg =
      check_error_of([] { scheduler_deadline_aware("nope"); });
  EXPECT_NE(msg.find("nope"), std::string::npos) << msg;
  bool listed = false;
  for (const auto& info : registered_schedulers())
    if (info.name == "edf") listed = info.deadline_aware;
  EXPECT_TRUE(listed);
}

TEST(EdfPolicy, BatchStatsBitIdenticalToGreedy) {  // V4
  // In batch mode edf has nothing to order by deadline; its unit-level
  // discipline is greedy's, by construction — verified bit for bit so the
  // policy is safe to include in ordinary sweeps.
  const exp::Workload w(exp::parse_workload("gen:family=sp,depth=6,fan=3,"
                                            "seed=7"));
  for (const char* machine : {"flat16", "deep2x4"}) {
    const Pmh m = make_pmh(machine);
    SchedOptions opts;
    opts.measure_misses = true;
    const CondensedDag dag(w.graph(), level_cache_sizes(m), opts.sigma);
    SimCore core(dag, m, opts);
    const auto edf = make_scheduler("edf", opts);
    const SchedStats a = core.run(*edf);
    SimCore fresh(dag, m, opts);
    const auto greedy = make_scheduler("greedy", opts);
    const SchedStats b = fresh.run(*greedy);
    EXPECT_DOUBLE_EQ(a.makespan, b.makespan) << machine;
    EXPECT_DOUBLE_EQ(a.utilization, b.utilization) << machine;
    EXPECT_DOUBLE_EQ(a.miss_cost, b.miss_cost) << machine;
    ASSERT_EQ(a.measured_misses.size(), b.measured_misses.size()) << machine;
    for (std::size_t l = 0; l < a.measured_misses.size(); ++l)
      EXPECT_DOUBLE_EQ(a.measured_misses[l], b.measured_misses[l])
          << machine << " L" << (l + 1);
  }
}

ServeScenario trace_scenario(const std::string& trace,
                             const std::string& policy) {
  std::istringstream in(trace);
  ServeScenario s;
  s.jobs = serve::parse_trace(in, "test");
  s.machines = {"flat16"};
  s.policies = {policy};
  return s;
}

TEST(ServeEngine, SingleJobEqualsBatchMakespan) {  // V5
  ServeScenario s = trace_scenario("0 solo mm:n=32\n", "sb");
  ServeSweep sweep(s, 1);
  const std::vector<ServeCell>& cells = sweep.run();
  ASSERT_EQ(cells.size(), 1u);
  ASSERT_EQ(cells[0].jobs.size(), 1u);
  const serve::JobRecord& rec = cells[0].jobs[0];

  // The same (workload, machine, σ, policy) as a batch run.
  const exp::Workload w(exp::parse_workload("mm:n=32"));
  const Pmh m = make_pmh("flat16");
  const SchedOptions opts;
  const CondensedDag dag(w.graph(), level_cache_sizes(m), opts.sigma);
  SimCore core(dag, m, opts);
  const auto sb = make_scheduler("sb", opts);
  const SchedStats batch = core.run(*sb);

  EXPECT_DOUBLE_EQ(rec.service, batch.makespan);
  EXPECT_DOUBLE_EQ(rec.start, 0.0);
  // Arrived at 0 into an idle machine: latency is pure service time.
  EXPECT_DOUBLE_EQ(rec.latency, batch.makespan);
  EXPECT_DOUBLE_EQ(rec.utilization, batch.utilization);
  EXPECT_DOUBLE_EQ(cells[0].summary.horizon, batch.makespan);
  EXPECT_DOUBLE_EQ(cells[0].summary.throughput, 1.0 / batch.makespan);
  EXPECT_EQ(cells[0].summary.tenants, 1u);
  EXPECT_DOUBLE_EQ(cells[0].summary.fairness, 1.0);
}

TEST(ServeEngine, EmptyStreamIsAnIdleService) {  // V5
  ServeScenario s;
  s.machines = {"flat16"};
  s.policies = {"sb", "edf"};
  ServeSweep sweep(s, 1);
  const auto& cells = sweep.run();
  ASSERT_EQ(cells.size(), 2u);
  for (const ServeCell& c : cells) {
    EXPECT_TRUE(c.jobs.empty());
    EXPECT_EQ(c.summary.completed, 0u);
    EXPECT_DOUBLE_EQ(c.summary.throughput, 0.0);
    EXPECT_DOUBLE_EQ(c.summary.fairness, 1.0);
  }
  // The emitters accept the empty stream too.
  std::ostringstream json, csv;
  serve::write_serve_json(json, "empty", cells);
  serve::write_serve_csv(csv, cells);
  EXPECT_NE(json.str().find("\"completed\": 0"), std::string::npos);
}

TEST(ServeEngine, SimultaneousArrivalsTieBreak) {  // V5
  // Three jobs all arrive at time 0. FIFO admission must follow the
  // submission index; EDF admission must follow the absolute deadline,
  // with the index breaking the remaining tie.
  const std::string trace =
      "0 a mm:n=32 deadline=900000\n"
      "0 b lcs:n=96 deadline=500000\n"
      "0 c mm:n=32 deadline=900000\n";
  {
    ServeSweep sweep(trace_scenario(trace, "sb"), 1);
    const auto& cells = sweep.run();
    ASSERT_EQ(cells[0].jobs.size(), 3u);
    EXPECT_EQ(cells[0].jobs[0].job.tenant, "a");
    EXPECT_EQ(cells[0].jobs[1].job.tenant, "b");
    EXPECT_EQ(cells[0].jobs[2].job.tenant, "c");
  }
  {
    ServeSweep sweep(trace_scenario(trace, "edf"), 1);
    const auto& cells = sweep.run();
    ASSERT_EQ(cells[0].jobs.size(), 3u);
    EXPECT_EQ(cells[0].jobs[0].job.tenant, "b");  // earliest deadline
    EXPECT_EQ(cells[0].jobs[1].job.tenant, "a");  // tie: index order
    EXPECT_EQ(cells[0].jobs[2].job.tenant, "c");
  }
  // Without deadlines EDF degenerates to FIFO (+inf sorts last, index
  // breaks the tie) — the admission orders must agree exactly.
  const std::string plain = "0 a mm:n=32\n0 b lcs:n=96\n0 c mm:n=32\n";
  ServeSweep fifo_sweep(trace_scenario(plain, "greedy"), 1);
  ServeSweep edf_sweep(trace_scenario(plain, "edf"), 1);
  const auto& fifo = fifo_sweep.run();
  const auto& edf = edf_sweep.run();
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(fifo[0].jobs[j].job.tenant, edf[0].jobs[j].job.tenant) << j;
    EXPECT_DOUBLE_EQ(fifo[0].jobs[j].completion, edf[0].jobs[j].completion)
        << j;
  }
}

/// Everything ndf_serve emits for a scenario, as one string — the byte-
/// identity oracle (mirrors test_exp's emit_everything).
std::string emit_everything(ServeSweep& sweep) {
  const auto& cells = sweep.run();
  std::ostringstream os;
  serve::summary_table("t", cells).print(os);
  serve::write_serve_json(os, sweep.scenario().name, cells);
  serve::write_serve_csv(os, cells);
  return os.str();
}

TEST(ServeEngine, ByteIdenticalAcrossJobsAndReruns) {  // V6
  for (const bool misses : {false, true}) {
    ServeScenario s;
    s.name = "det";
    const ArrivalSpec spec = serve::parse_arrivals(
        "poisson:rate=0.0005,jobs=12,tenants=3,deadline=50000");
    s.mix = exp::parse_workload_list(
        "mm:n=32;gen:family=sp,depth=5,fan=3,seed=3");
    s.jobs = serve::expand_open_arrivals(spec, s.mix);
    s.machines = {"flat16", "deep2x4"};
    s.policies = {"sb", "ws", "edf"};
    s.sigmas = {1.0 / 3.0, 0.5};
    s.measure_misses = misses;

    ServeSweep serial(s, 1), parallel(s, 4), rerun(s, 4);
    const std::string a = emit_everything(serial);
    EXPECT_EQ(a, emit_everything(parallel)) << "misses=" << misses;
    EXPECT_EQ(a, emit_everything(rerun)) << "misses=" << misses;
    EXPECT_EQ(serial.condensations_built(), parallel.condensations_built());
    // 2 workloads × 2 σ × 2 distinct cache profiles.
    EXPECT_EQ(serial.condensations_built(), 8u);
  }
}

TEST(ServeEngine, ClosedLoopIsDeterministic) {  // V6
  ServeScenario s;
  s.closed = serve::parse_arrivals("closed:clients=3,jobs=3,think=500");
  s.mix = exp::parse_workload_list("mm:n=32;lcs:n=96");
  s.machines = {"flat16"};
  s.policies = {"sb", "edf"};
  ServeSweep serial(s, 1), parallel(s, 4);
  const std::string a = emit_everything(serial);
  EXPECT_EQ(a, emit_everything(parallel));
  ASSERT_EQ(serial.results()[0].jobs.size(), 9u);
  // Symmetric clients over the same rotation: perfectly fair service.
  EXPECT_EQ(serial.results()[0].summary.tenants, 3u);
}

/// FNV-1a over 64-bit words and strings; doubles enter by bit pattern.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void mix(double d) {
    std::uint64_t x;
    std::memcpy(&x, &d, sizeof x);
    mix(x);
  }
  void mix(const std::string& s) {
    mix(std::uint64_t(s.size()));
    for (char ch : s) mix(std::uint64_t(static_cast<unsigned char>(ch)));
  }
  void mix(const serve::JobRecord& r) {
    mix(std::uint64_t(r.job.index));
    mix(r.job.tenant);
    mix(r.job.workload.label());
    mix(r.job.arrival);
    mix(r.job.deadline);
    mix(r.start);
    mix(r.completion);
    mix(r.latency);
    mix(r.service);
    mix(r.utilization);
    mix(std::uint64_t(r.deadline_met));
    mix(std::uint64_t(r.measured_misses.size()));
    for (double q : r.measured_misses) mix(q);
    mix(r.comm_cost);
  }
};

TEST(Serve, OpenStreamOutputIsPinned) {  // V6
  // Every JobRecord field of a 2,000-job poisson stream over the serve
  // benchmark's small-job mix on deep2x4, arriving faster than it can be
  // served so the admission queue grows long, with per-tenant deadlines
  // that make EDF reorder it; then a closed loop over the same mix. Taken
  // from the engine that copied every job into a linear admission queue.
  const std::vector<exp::WorkloadSpec> mix = exp::parse_workload_list(
      "mm:n=16;lcs:n=64;gen:family=wavefront,n=4;"
      "gen:family=sp,depth=4,fan=3,cross=60,seed=13");
  ServeScenario open;
  open.name = "pin";
  open.jobs = serve::expand_open_arrivals(
      serve::parse_arrivals("poisson:rate=0.0001,jobs=2000,tenants=4,seed=5"),
      mix);
  for (JobSpec& j : open.jobs)
    j.deadline = j.arrival + 20000.0 * double(1 + j.index % 4);
  open.machines = {"deep2x4"};
  open.policies = {"sb", "edf", "ws"};
  ServeScenario closed = open;
  closed.jobs.clear();
  closed.closed =
      serve::parse_arrivals("closed:clients=6,jobs=40,think=300,deadline=60000");
  closed.mix = mix;

  const std::pair<const ServeScenario*, std::vector<std::uint64_t>> cases[] =
      {{&open,
        {0x7453d465e3606a2cull, 0xe5cf391c65562cc1ull, 0x3fda57ccfce7660cull}},
       {&closed,
        {0xb194566bee623444ull, 0x4f1fea6a442844b5ull, 0x7f793a5bea6b0246ull}}};
  for (const auto& [scenario, hashes] : cases) {
    ServeSweep sweep(*scenario, 2);
    const std::vector<ServeCell>& cells = sweep.run();
    ASSERT_EQ(cells.size(), hashes.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
      Fnv h;
      h.mix(std::uint64_t(cells[c].jobs.size()));
      for (const serve::JobRecord& r : cells[c].jobs) h.mix(r);
      EXPECT_EQ(h.h, hashes[c]) << cells[c].policy
                                << (scenario->closed ? " closed" : " open")
                                << " 0x" << std::hex << h.h;
    }
  }
}

TEST(ServeEngine, PerJobMeasuredMissAttribution) {  // V7
  // t0 runs the workload cold, repeats it over its own warm lines, then t1
  // runs the identical workload — cold again, because its footprint keys
  // live in a different namespace no matter what is resident.
  ServeScenario s = trace_scenario(
      "0 t0 mm:n=32\n"
      "1 t0 mm:n=32\n"
      "2 t1 mm:n=32\n",
      "sb");
  s.measure_misses = true;
  ServeSweep sweep(s, 1);
  const auto& cells = sweep.run();
  ASSERT_EQ(cells[0].jobs.size(), 3u);
  const auto& j0 = cells[0].jobs[0];
  const auto& j1 = cells[0].jobs[1];
  const auto& j2 = cells[0].jobs[2];
  ASSERT_FALSE(j0.measured_misses.empty());
  ASSERT_EQ(j1.measured_misses.size(), j0.measured_misses.size());

  double q0 = 0.0, q1 = 0.0, q2 = 0.0;
  for (std::size_t l = 0; l < j0.measured_misses.size(); ++l) {
    // Tenant namespacing: t1 can never hit t0's lines, so its first job
    // measures exactly the cold-start misses j0 did — even though it runs
    // against caches full of t0's data (those lines are all older than any
    // of t1's, so LRU evicts them first and t1's own reuse is unchanged).
    EXPECT_DOUBLE_EQ(j2.measured_misses[l], j0.measured_misses[l]) << l;
    q0 += j0.measured_misses[l];
    q1 += j1.measured_misses[l];
    q2 += j2.measured_misses[l];
  }
  // t0's immediate repeat reuses whatever of its own footprint is still
  // resident — strictly fewer misses than its cold start (on flat16 the
  // mm:n=32 footprint is fully resident, so the repeat can be miss-free).
  EXPECT_LT(q1, q0);
  EXPECT_GT(q0, 0.0);

  // Per-job deltas partition the cell totals exactly.
  const auto& total = cells[0].summary.measured_misses;
  ASSERT_EQ(total.size(), j0.measured_misses.size());
  for (std::size_t l = 0; l < total.size(); ++l)
    EXPECT_DOUBLE_EQ(total[l], j0.measured_misses[l] +
                                   j1.measured_misses[l] +
                                   j2.measured_misses[l])
        << l;
  EXPECT_DOUBLE_EQ(cells[0].summary.comm_cost,
                   j0.comm_cost + j1.comm_cost + j2.comm_cost);
}

/// Each job of a served cell run alone, as the engine would have run it
/// without a memo: a fresh SimCore and a fresh policy per job, seeded with
/// the job's own seed. Workloads and condensations are built once.
class SoloRuns {
 public:
  explicit SoloRuns(const ServeScenario& s) : s_(s) {}

  SchedStats run(const ServeCell& cell, const JobSpec& job) {
    const Pmh m = make_pmh(cell.machine);
    const std::string label = job.workload.label();
    std::unique_ptr<exp::Workload>& w = workloads_[label];
    if (!w) w = std::make_unique<exp::Workload>(job.workload);
    std::unique_ptr<CondensedDag>& dag =
        dags_[{label, cell.machine, cell.sigma}];
    if (!dag)
      dag = std::make_unique<CondensedDag>(w->graph(), level_cache_sizes(m),
                                           cell.sigma);
    SchedOptions opts;
    opts.sigma = cell.sigma;
    opts.alpha_prime = s_.alpha_prime;
    opts.seed = s_.base_seed + job.index;
    SimCore core(*dag, m, opts);
    return core.run(*make_scheduler(cell.policy, opts));
  }

  /// Expects every record of `cells` to equal its solo run bit for bit.
  void expect_equal(const std::vector<ServeCell>& cells,
                    const std::string& where) {
    for (const ServeCell& c : cells)
      for (const serve::JobRecord& r : c.jobs) {
        const SchedStats solo = run(c, r.job);
        const std::string at = where + " " + c.policy + " sigma=" +
                               std::to_string(c.sigma) + " job " +
                               std::to_string(r.job.index) + " (" +
                               r.job.workload.label() + ")";
        EXPECT_EQ(r.service, solo.makespan) << at;
        EXPECT_EQ(r.utilization, solo.utilization) << at;
        EXPECT_EQ(r.completion, r.start + solo.makespan) << at;
        EXPECT_EQ(r.latency, r.completion - r.job.arrival) << at;
        EXPECT_TRUE(r.measured_misses.empty()) << at;
      }
  }

 private:
  const ServeScenario& s_;
  std::map<std::string, std::unique_ptr<exp::Workload>> workloads_;
  std::map<std::tuple<std::string, std::string, double>,
           std::unique_ptr<CondensedDag>>
      dags_;
};

/// Simulations a memoizing run should take: every ws job, plus one per
/// distinct workload of each seed-free cell.
std::size_t expected_simulations(const std::vector<ServeCell>& cells) {
  std::size_t n = 0;
  for (const ServeCell& c : cells) {
    std::set<std::string> workloads;
    for (const serve::JobRecord& r : c.jobs)
      workloads.insert(r.job.workload.label());
    n += c.policy == "ws" ? c.jobs.size() : workloads.size();
  }
  return n;
}

TEST(ServeEngine, MemoizedJobsEqualSoloRuns) {  // V9
  // Open and closed streams over a three-workload mix with deadlines (so
  // edf reorders admission), under every builtin policy, σ and α′.
  const std::vector<exp::WorkloadSpec> mix = exp::parse_workload_list(
      "mm:n=16;lcs:n=64;gen:family=sp,depth=4,fan=3,cross=60,seed=13");
  ServeScenario open;
  open.jobs = serve::expand_open_arrivals(
      serve::parse_arrivals(
          "poisson:rate=0.0002,jobs=18,tenants=3,deadline=30000,seed=3"),
      mix);
  open.machines = {"deep2x4"};
  open.policies = {"sb", "edf", "greedy", "serial", "ws"};
  open.sigmas = {1.0 / 3.0, 0.5};
  ServeScenario closed = open;
  closed.jobs.clear();
  closed.closed = serve::parse_arrivals(
      "closed:clients=3,jobs=4,think=300,deadline=40000");
  closed.mix = mix;

  for (ServeScenario* s : {&open, &closed})
    for (const double alpha : {1.0, 0.5}) {
      s->alpha_prime = alpha;
      SoloRuns solo(*s);
      for (const std::size_t jobs : {1u, 3u}) {
        const std::string where = std::string(s->closed ? "closed" : "open") +
                                  " alpha'=" + std::to_string(alpha) +
                                  " jobs=" + std::to_string(jobs);
        ServeSweep sweep(*s, jobs);
        const std::vector<ServeCell>& cells = sweep.run();
        ASSERT_EQ(cells.size(), 10u) << where;
        solo.expect_equal(cells, where);
        EXPECT_EQ(sweep.simulations(), expected_simulations(cells)) << where;
      }
    }
}

TEST(ServeEngine, WsJobsTakeTheirOwnSeeds) {  // V9
  // The soak mix on flat16: here a ws job's service depends on its steal
  // seed, so a cell that reused one job's run for the next job of the
  // same workload would serve a different stream.
  ServeScenario s;
  s.mix = exp::parse_workload_list(
      "mm:n=48;trs:n=48,np;gen:family=sp,depth=9,fan=4,work=32,cross=60,"
      "seed=11;gen:family=wavefront,n=48;gen:family=forkjoin,depth=48,"
      "fan=24");
  s.jobs = serve::expand_open_arrivals(
      serve::parse_arrivals("poisson:rate=0.002,jobs=15,tenants=3,seed=17"),
      s.mix);
  s.machines = {"flat16"};
  s.policies = {"ws", "sb"};
  ServeSweep sweep(s, 2);
  const std::vector<ServeCell>& cells = sweep.run();
  SoloRuns(s).expect_equal(cells, "soak mix");
  EXPECT_EQ(sweep.simulations(), 15u + 5u);

  // The case has teeth: some workload's ws jobs differ in service.
  std::map<std::string, std::set<double>> services;
  for (const serve::JobRecord& r : cells[0].jobs)
    services[r.job.workload.label()].insert(r.service);
  std::size_t seed_sensitive = 0;
  for (const auto& [label, values] : services)
    seed_sensitive += values.size() > 1;
  EXPECT_GT(seed_sensitive, 0u);
}

TEST(ServeEngine, TracedCellRecordsEveryJobsUnits) {  // V9
  // Cell 0 carries the trace sink and is seed-free (sb), so only the sink
  // keeps it from memoizing: each admitted job must emit one kUnit event
  // per atomic unit of its own simulation, between its admit and its
  // completion. The untraced edf cell still memoizes.
  const std::vector<exp::WorkloadSpec> mix =
      exp::parse_workload_list("mm:n=16;lcs:n=64");
  ServeScenario s;
  s.jobs = serve::expand_open_arrivals(
      serve::parse_arrivals("poisson:rate=0.0002,jobs=8,tenants=2,seed=4"),
      mix);
  s.machines = {"deep2x4"};
  s.policies = {"sb", "edf"};
  obs::EventRecorder rec;
  s.trace_sink = &rec;
  ServeSweep sweep(s, 2);
  const std::vector<ServeCell>& cells = sweep.run();
  EXPECT_EQ(sweep.simulations(), cells[0].jobs.size() + mix.size());

  SoloRuns solo(s);
  std::size_t admitted = 0, units = 0;
  for (const obs::Event& e : rec.events()) {
    if (e.kind == obs::Event::Kind::kUnit) ++units;
    if (e.kind != obs::Event::Kind::kJob) continue;
    if (obs::JobEvent(e.sub) == obs::JobEvent::kAdmit) {
      units = 0;
    } else if (obs::JobEvent(e.sub) == obs::JobEvent::kComplete) {
      ASSERT_LT(admitted, cells[0].jobs.size());
      const serve::JobRecord& r = cells[0].jobs[admitted++];
      EXPECT_EQ(e.b, std::int64_t(r.job.index));
      EXPECT_EQ(units, solo.run(cells[0], r.job).atomic_units)
          << "job " << r.job.index << " (" << r.job.workload.label() << ")";
    }
  }
  EXPECT_EQ(admitted, cells[0].jobs.size());
}

TEST(ServeEngine, BuildFailureLeavesNothingBehindAtEveryJobs) {  // V8
  // The spec parses; only elaborating it fails (wavefront n is capped at
  // 256), so the throw comes from the grid runner's build phase.
  ServeScenario s = trace_scenario(
      "0 a mm:n=8\n0 b gen:family=wavefront,n=257\n", "sb");
  s.policies = {"sb", "edf"};
  for (const std::size_t jobs : {1u, 2u}) {
    ServeSweep sweep(s, jobs);
    for (int attempt = 0; attempt < 2; ++attempt) {
      EXPECT_NE(check_error_of([&] { sweep.run(); }).find("[1, 256]"),
                std::string::npos)
          << jobs << " jobs";
      EXPECT_TRUE(sweep.results().empty()) << jobs << " jobs";
      EXPECT_EQ(sweep.condensations_built(), 0u) << jobs << " jobs";
    }
  }
}

TEST(ServeEngine, ValidationIsLoud) {  // V8
  ServeScenario s = trace_scenario("0 a mm:n=32\n", "sb");
  s.policies = {"nope"};
  EXPECT_NE(check_error_of([&] { ServeSweep(s, 1).run(); }).find("nope"),
            std::string::npos);

  s = trace_scenario("0 a mm:n=32\n", "sb");
  s.closed = serve::parse_arrivals("closed:clients=2,jobs=2");
  s.mix = exp::parse_workload_list("mm:n=32");
  EXPECT_NE(check_error_of([&] { ServeSweep(s, 1).run(); })
                .find("both an explicit job stream"),
            std::string::npos);

  ServeScenario closed_no_mix;
  closed_no_mix.machines = {"flat16"};
  closed_no_mix.policies = {"sb"};
  closed_no_mix.closed = serve::parse_arrivals("closed:clients=2,jobs=2");
  EXPECT_NE(check_error_of([&] { ServeSweep(closed_no_mix, 1).run(); })
                .find("non-empty workload mix"),
            std::string::npos);

  s = trace_scenario("0 a mm:n=32\n", "sb");
  s.sigmas = {1.5};
  EXPECT_NE(check_error_of([&] { ServeSweep(s, 1).run(); })
                .find("outside (0, 1)"),
            std::string::npos);
}

}  // namespace
}  // namespace ndf
