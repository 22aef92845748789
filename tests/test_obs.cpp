// Tests for the observability subsystem (src/obs/):
//   O1  metrics: nearest_rank matches the legacy inline percentile formula;
//       Log2Histogram bucket edges, zero bucket, the exact ≤ p < 2·exact
//       percentile bound, merge, and JSON emission; registry determinism
//   O2  recorder: the event stream's unit trace covers every unit and is
//       a valid schedule; event counts match the run's stats; queue waits
//       are causally ordered
//   O3  tracing is observational: sweep and serve emitter output is
//       byte-identical with a sink attached and without, at --jobs=1 and 4,
//       and the recorded stream itself is identical at every worker count
//   O4  cache events: per-level kMiss words sum to the run's measured Q_i
//   O5  exporters: a golden Chrome-trace fixture from a synthetic recorder;
//       structural checks on a real run's export; CSV row count; the
//       number format equals the precision-search printf loop it replaced
//       over a seeded sample and the edge values
//   O6  serve reports carry the `metrics` histograms
//   O7  progress meter: heartbeat lines on an explicit stream, silent when
//       disabled
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

#include "algos/lcs.hpp"
#include "algos/trs.hpp"
#include "exp/report.hpp"
#include "exp/sweep.hpp"
#include "nd/drs.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/recorder.hpp"
#include "sched/registry.hpp"
#include "serve/engine.hpp"
#include "serve/report.hpp"

namespace ndf {
namespace {

// ---------------------------------------------------------------- O1 ----

/// The formula that lived inline in src/serve/engine.cpp before the shared
/// implementation existed — the equivalence oracle.
double legacy_percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = double(sorted.size());
  const std::size_t rank = std::size_t(std::max(1.0, std::ceil(q * n)));
  return sorted[std::min(rank, sorted.size()) - 1];
}

TEST(Metrics, NearestRankMatchesLegacyFormula) {  // O1
  std::vector<double> xs;
  for (int i = 1; i <= 137; ++i) xs.push_back(double(i * i % 97) + 0.5);
  std::sort(xs.begin(), xs.end());
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0})
    EXPECT_DOUBLE_EQ(obs::nearest_rank(xs, q), legacy_percentile(xs, q)) << q;
  EXPECT_DOUBLE_EQ(obs::nearest_rank({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(obs::nearest_rank({7.0}, 0.5), 7.0);
}

TEST(Metrics, Log2HistogramBucketEdgesAreInclusive) {  // O1
  obs::Log2Histogram h;
  // 8 = 2^3 sits exactly on a bucket edge: it belongs to bucket e=3
  // ((4, 8]), so the quantized percentile is exact for powers of two.
  h.record(8.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 8.0);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.bucket_count(4), 0u);
  // 8 + ε crosses into (8, 16].
  obs::Log2Histogram h2;
  h2.record(8.0001);
  EXPECT_DOUBLE_EQ(h2.percentile(1.0), 16.0);
}

TEST(Metrics, Log2HistogramZeroBucketAndStats) {  // O1
  obs::Log2Histogram h;
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);  // empty
  h.record(0.0);
  h.record(-3.0);
  h.record(4.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.zero_count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), -3.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
  EXPECT_DOUBLE_EQ(h.mean(), 1.0 / 3.0);
  // Ranks 1 and 2 fall in the zero bucket, rank 3 in (2, 4].
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 4.0);
}

TEST(Metrics, HistogramPercentileWithinTwoOfExact) {  // O1
  // Deterministic pseudo-random positive samples across many magnitudes.
  std::vector<double> xs;
  std::uint64_t state = 12345;
  for (int i = 0; i < 2000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double u = double(state >> 11) / double(1ULL << 53);
    xs.push_back(std::ldexp(0.5 + u, int(state % 40) - 20));
  }
  obs::Log2Histogram h;
  for (double x : xs) h.record(x);
  std::sort(xs.begin(), xs.end());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = obs::nearest_rank(xs, q);
    const double approx = h.percentile(q);
    EXPECT_GE(approx, exact) << q;
    EXPECT_LT(approx, 2.0 * exact) << q;
  }
}

TEST(Metrics, HistogramMerge) {  // O1
  obs::Log2Histogram a, b;
  a.record(1.0);
  a.record(100.0);
  b.record(0.0);
  b.record(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.zero_count(), 1u);
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), 100.0);
  EXPECT_DOUBLE_EQ(a.sum(), 104.0);
}

TEST(Metrics, RegistryJsonIsDeterministic) {  // O1
  obs::MetricsRegistry r;
  r.add("zeta", 2.0);
  r.add("alpha");
  r.histogram("lat").record(2.0);
  std::ostringstream os;
  r.write_json(os);
  // Counters first, then histograms, each sorted by name.
  EXPECT_EQ(os.str(),
            "{\"alpha\": 1, \"zeta\": 2, \"lat\": "
            "{\"count\": 1, \"zero\": 0, \"min\": 2, \"max\": 2, "
            "\"mean\": 2, \"buckets\": [{\"le\": 2, \"n\": 1}]}}");
  EXPECT_FALSE(r.empty());
  EXPECT_TRUE(obs::MetricsRegistry().empty());
}

// ---------------------------------------------------------------- O2 ----

TEST(Recorder, UnitTraceCoversEveryUnitAndIsValid) {  // O2
  SpawnTree t = make_lcs_tree(128, 4);
  StrandGraph g = elaborate(t);
  Pmh m(PmhConfig::flat(4, 256, 5));
  obs::EventRecorder rec;
  SchedOptions opts;
  opts.sink = &rec;
  const SchedStats s = run_scheduler("sb", g, m, opts);

  EXPECT_EQ(rec.count(obs::Event::Kind::kUnit), s.atomic_units);
  EXPECT_EQ(rec.count(obs::Event::Kind::kWait), s.atomic_units);
  std::string msg;
  EXPECT_TRUE(obs::validate_trace(rec, m.num_processors(), &msg)) << msg;
}

TEST(Recorder, QueueWaitsAreCausal) {  // O2
  SpawnTree t = make_trs_tree(32, 4);
  StrandGraph g = elaborate(t);
  Pmh m(PmhConfig::flat(4, 512, 5));
  obs::EventRecorder rec;
  SchedOptions opts;
  opts.sink = &rec;
  run_scheduler("ws", g, m, opts);
  for (const obs::Event& e : rec.events()) {
    if (e.kind != obs::Event::Kind::kWait) continue;
    EXPECT_LE(e.t0, e.t1);  // ready at or before dispatch
    EXPECT_GE(e.t0, 0.0);
  }
}

TEST(Recorder, OffsetSinkShiftsAllTimestamps) {  // O2
  obs::EventRecorder rec;
  obs::OffsetSink off(&rec, 100.0);
  off.on_unit(1.0, 2.0, 0, 5, 9);
  off.on_queue_wait(0.5, 1.0, 0, 5);
  off.on_cache(obs::CacheEvent::kMiss, 1.5, 1, 0, 7, 64.0, 64.0);
  off.on_job(obs::JobEvent::kComplete, 2.0, 3, 0, "");
  ASSERT_EQ(rec.events().size(), 4u);
  EXPECT_DOUBLE_EQ(rec.events()[0].t0, 101.0);
  EXPECT_DOUBLE_EQ(rec.events()[0].t1, 102.0);
  EXPECT_DOUBLE_EQ(rec.events()[1].t0, 100.5);
  EXPECT_DOUBLE_EQ(rec.events()[2].t0, 101.5);
  EXPECT_DOUBLE_EQ(rec.events()[3].t0, 102.0);
  rec.clear();
  EXPECT_TRUE(rec.events().empty());
  EXPECT_EQ(rec.count(obs::Event::Kind::kUnit), 0u);
}

// ---------------------------------------------------------------- O4 ----

TEST(Recorder, MissWordsSumToMeasuredMisses) {  // O4
  SpawnTree t = make_lcs_tree(128, 4);
  StrandGraph g = elaborate(t);
  Pmh m(PmhConfig::flat(4, 96, 5));
  obs::EventRecorder rec;
  SchedOptions opts;
  opts.measure_misses = true;
  opts.sink = &rec;
  const SchedStats s = run_scheduler("ws", g, m, opts);
  ASSERT_FALSE(s.measured_misses.empty());
  EXPECT_GT(rec.count(obs::Event::Kind::kCache), 0u);
  // Events carry 1-based levels; stats.measured_misses[l] is level l+1.
  std::vector<double> by_level(s.measured_misses.size(), 0.0);
  for (const obs::Event& e : rec.events()) {
    if (e.kind != obs::Event::Kind::kCache) continue;
    if (obs::CacheEvent(e.sub) != obs::CacheEvent::kMiss) continue;
    ASSERT_GE(e.c, 1);
    ASSERT_LE(std::size_t(e.c), by_level.size());
    by_level[std::size_t(e.c) - 1] += e.words;
  }
  for (std::size_t l = 0; l < by_level.size(); ++l)
    EXPECT_DOUBLE_EQ(by_level[l], s.measured_misses[l]) << "L" << (l + 1);
}

TEST(Recorder, SinkAloneDoesNotChangeStatsOrReportMisses) {  // O3
  SpawnTree t = make_lcs_tree(128, 4);
  StrandGraph g = elaborate(t);
  Pmh m(PmhConfig::flat(4, 96, 5));
  SchedOptions plain;
  const SchedStats base = run_scheduler("ws", g, m, plain);
  obs::EventRecorder rec;
  SchedOptions traced;
  traced.sink = &rec;
  const SchedStats s = run_scheduler("ws", g, m, traced);
  // The sink turns the occupancy simulation on (cache events flow) but the
  // measured-Q stats stay suppressed, so outputs are unchanged.
  EXPECT_GT(rec.count(obs::Event::Kind::kCache), 0u);
  EXPECT_TRUE(s.measured_misses.empty());
  EXPECT_DOUBLE_EQ(s.makespan, base.makespan);
  EXPECT_DOUBLE_EQ(s.utilization, base.utilization);
  EXPECT_DOUBLE_EQ(s.miss_cost, base.miss_cost);
}

// ---------------------------------------------------------------- O3 ----

std::string emit_sweep(const std::vector<exp::RunPoint>& runs) {
  std::ostringstream os;
  exp::results_table("t", runs).print(os);
  exp::write_sweep_json(os, "t", runs);
  exp::write_sweep_csv(os, runs);
  return os.str();
}

exp::Scenario obs_sweep_scenario() {
  exp::Scenario s;
  s.name = "obs";
  s.workloads = exp::parse_workload_list("mm:n=32;lcs:n=96");
  s.machines = {"flat8", "deep2x4"};
  s.policies = {"sb", "ws", "greedy"};
  s.sigmas = {1.0 / 3.0, 0.5};
  s.repeats = 2;
  return s;
}

TEST(Sweep, OutputByteIdenticalWithTracingOn) {  // O3
  const exp::Scenario plain = obs_sweep_scenario();
  exp::Sweep base(plain, 1);
  const std::string golden = emit_sweep(base.run());

  std::string first_csv;
  for (const std::size_t jobs : {1u, 4u}) {
    obs::EventRecorder rec;
    exp::Scenario s = obs_sweep_scenario();
    s.trace_sink = &rec;
    exp::Sweep sweep(s, jobs);
    EXPECT_EQ(emit_sweep(sweep.run()), golden) << jobs << " jobs";
    // Cell 0 really was traced: its full unit timeline is in the stream.
    EXPECT_EQ(rec.count(obs::Event::Kind::kUnit),
              sweep.results()[0].stats.atomic_units)
        << jobs << " jobs";
    EXPECT_GT(rec.count(obs::Event::Kind::kCache), 0u) << jobs << " jobs";
    // The recorded stream itself is identical at every worker count
    // (compare the full CSV rendering — every field of every event).
    std::ostringstream csv;
    obs::write_events_csv(csv, rec);
    if (first_csv.empty())
      first_csv = csv.str();
    else
      EXPECT_EQ(csv.str(), first_csv);
  }
}

serve::ServeScenario obs_serve_scenario() {
  serve::ServeScenario s;
  s.name = "obs-serve";
  const serve::ArrivalSpec spec = serve::parse_arrivals(
      "poisson:rate=0.0005,jobs=10,tenants=3,deadline=40000");
  s.mix = exp::parse_workload_list("mm:n=32;gen:family=sp,depth=5,fan=3,seed=3");
  s.jobs = serve::expand_open_arrivals(spec, s.mix);
  s.machines = {"flat16"};
  s.policies = {"sb", "edf"};
  return s;
}

std::string emit_serve(const std::vector<serve::ServeCell>& cells) {
  std::ostringstream os;
  serve::summary_table("t", cells).print(os);
  serve::write_serve_json(os, "t", cells);
  serve::write_serve_csv(os, cells);
  return os.str();
}

TEST(Serve, OutputByteIdenticalWithTracingOn) {  // O3, O6
  serve::ServeSweep base(obs_serve_scenario(), 1);
  const std::string golden = emit_serve(base.run());

  for (const std::size_t jobs : {1u, 2u}) {
    obs::EventRecorder rec;
    serve::ServeScenario s = obs_serve_scenario();
    s.trace_sink = &rec;
    serve::ServeSweep sweep(s, jobs);
    const auto& cells = sweep.run();
    EXPECT_EQ(emit_serve(cells), golden) << jobs << " jobs";
    // Cell 0's stream: every job contributes at least arrival + admit +
    // complete, and its simulation events ride along.
    EXPECT_GE(rec.count(obs::Event::Kind::kJob), 3 * cells[0].jobs.size())
        << jobs << " jobs";
    EXPECT_GT(rec.count(obs::Event::Kind::kUnit), 0u) << jobs << " jobs";
    EXPECT_GT(rec.count(obs::Event::Kind::kCache), 0u) << jobs << " jobs";
    // Job events are on the global service axis: the last completion's
    // timestamp equals the cell horizon.
    double last_complete = -1.0;
    for (const obs::Event& e : rec.events())
      if (e.kind == obs::Event::Kind::kJob &&
          obs::JobEvent(e.sub) == obs::JobEvent::kComplete)
        last_complete = std::max(last_complete, e.t0);
    EXPECT_DOUBLE_EQ(last_complete, cells[0].summary.horizon)
        << jobs << " jobs";
  }
}

TEST(Serve, JsonCarriesMetricsHistograms) {  // O6
  serve::ServeSweep sweep(obs_serve_scenario(), 1);
  const auto& cells = sweep.run();
  std::ostringstream os;
  serve::write_serve_json(os, "m", cells);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"metrics\": {"), std::string::npos);
  EXPECT_NE(json.find("\"latency\": {\"count\": "), std::string::npos);
  EXPECT_NE(json.find("\"queue_wait\": {\"count\": "), std::string::npos);

  // The histogram agrees with the exact summary stats it rides next to.
  const serve::ServeSummary& sum = cells[0].summary;
  const auto& lat = sum.metrics.histograms().at("latency");
  EXPECT_EQ(lat.count(), sum.completed);
  EXPECT_DOUBLE_EQ(lat.max(), sum.latency_max);
  const double p99 = lat.percentile(0.99);
  EXPECT_GE(p99, sum.latency_p99);
  EXPECT_LT(p99, 2.0 * sum.latency_p99);
}

TEST(Serve, EmptyStreamStillReportsMetricsKey) {  // O6
  serve::ServeScenario s;
  s.machines = {"flat16"};
  s.policies = {"sb"};
  serve::ServeSweep sweep(s, 1);
  const auto& cells = sweep.run();
  std::ostringstream os;
  serve::write_serve_json(os, "empty", cells);
  EXPECT_NE(os.str().find("\"latency\": {\"count\": 0"), std::string::npos);
}

// ---------------------------------------------------------------- O5 ----

TEST(ChromeTrace, GoldenFixture) {  // O5
  obs::EventRecorder rec;
  rec.on_unit(0.0, 2.0, 0, 0, 5);
  rec.on_queue_wait(0.0, 2.0, 1, 1);
  rec.on_cache(obs::CacheEvent::kMiss, 1.0, 1, 0, 42, 64.0, 64.0);
  rec.on_cache(obs::CacheEvent::kHit, 1.25, 1, 0, 42, 64.0, 64.0);  // elided
  rec.on_job(obs::JobEvent::kArrival, 0.0, 7, 3, "acme");
  rec.on_job(obs::JobEvent::kAdmit, 1.5, 7, 3, "mm:n=32");
  rec.on_job(obs::JobEvent::kComplete, 4.0, 7, 3, "");
  std::ostringstream os;
  obs::write_chrome_trace(os, rec, "golden");
  const std::string expected =
      "{\"otherData\": {\"name\": \"golden\", "
      "\"generator\": \"ndf --trace-out\"},\n"
      "\"traceEvents\": [\n"
      "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
      "\"args\": {\"name\": \"processors\"}},\n"
      "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, "
      "\"args\": {\"name\": \"proc 0\"}},\n"
      "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 1, "
      "\"args\": {\"name\": \"proc 1\"}},\n"
      "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
      "\"args\": {\"name\": \"caches\"}},\n"
      "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
      "\"args\": {\"name\": \"L1 cache 0\"}},\n"
      "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, "
      "\"args\": {\"name\": \"service\"}},\n"
      "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 2, \"tid\": 3, "
      "\"args\": {\"name\": \"acme\"}},\n"
      "  {\"name\": \"u0\", \"cat\": \"unit\", \"ph\": \"X\", \"ts\": 0, "
      "\"dur\": 2, \"pid\": 0, \"tid\": 0, "
      "\"args\": {\"unit\": 0, \"root\": 5}},\n"
      "  {\"name\": \"wait u1\", \"cat\": \"queue\", \"ph\": \"X\", "
      "\"ts\": 0, \"dur\": 2, \"pid\": 0, \"tid\": 1, "
      "\"args\": {\"unit\": 1}},\n"
      "  {\"name\": \"miss t42\", \"cat\": \"cache\", \"ph\": \"i\", "
      "\"s\": \"t\", \"ts\": 1, \"pid\": 1, \"tid\": 0, "
      "\"args\": {\"task\": 42, \"words\": 64}},\n"
      "  {\"name\": \"used L1 c0\", \"ph\": \"C\", \"ts\": 1, \"pid\": 1, "
      "\"args\": {\"words\": 64}},\n"
      "  {\"name\": \"arrive j7\", \"cat\": \"job\", \"ph\": \"i\", "
      "\"s\": \"t\", \"ts\": 0, \"pid\": 2, \"tid\": 3, "
      "\"args\": {\"job\": 7}},\n"
      "  {\"name\": \"wait j7\", \"cat\": \"job\", \"ph\": \"X\", \"ts\": 0, "
      "\"dur\": 1.5, \"pid\": 2, \"tid\": 3, \"args\": {\"job\": 7}},\n"
      "  {\"name\": \"j7 mm:n=32\", \"cat\": \"job\", \"ph\": \"X\", "
      "\"ts\": 1.5, \"dur\": 2.5, \"pid\": 2, \"tid\": 3, "
      "\"args\": {\"job\": 7}},\n"
      "  {\"name\": \"ready-queue\", \"ph\": \"C\", \"ts\": 0, \"pid\": 0, "
      "\"args\": {\"units\": 1}},\n"
      "  {\"name\": \"ready-queue\", \"ph\": \"C\", \"ts\": 2, \"pid\": 0, "
      "\"args\": {\"units\": 0}}\n"
      "]}\n";
  EXPECT_EQ(os.str(), expected);
}

/// The exporters' original number format, kept as the reference: the
/// first `%.<p>g`, p = 1..17, that strtod reads back as `v`.
std::string printf_shortest(double v) {
  char buf[40];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

TEST(ChromeTrace, NumberFormatMatchesPrintfSearch) {  // O5
  std::vector<double> xs = {0.0, -0.0, 1.0, -1.0, 0.1, 1e21, 1e-7,
                            136407036.0, 0.30000000000000004,
                            std::numeric_limits<double>::max(),
                            std::numeric_limits<double>::lowest(),
                            std::numeric_limits<double>::min(),
                            std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()};
  // Every ±2^e, normal and subnormal, and the double just below it.
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    for (const double x : {p, std::nextafter(p, 0.0)}) {
      xs.push_back(x);
      xs.push_back(-x);
    }
  }
  std::mt19937_64 rng(20261019);
  for (int i = 0; i < 20000; ++i) {
    // Integers and cents, as simulated times and work counts print.
    const std::uint64_t k = rng() % 2000000000000ull;
    xs.push_back(double(k));
    xs.push_back(double(k % 100000000) / 100.0);
    // Random magnitudes, and random bit patterns (subnormals included).
    xs.push_back(std::ldexp(double(rng() >> 11), int(rng() % 200) - 150));
    const std::uint64_t bits = rng();
    double d;
    std::memcpy(&d, &bits, sizeof d);
    if (std::isfinite(d)) xs.push_back(d);
    const std::uint64_t sub = rng() >> 12;  // exponent field zero
    std::memcpy(&d, &sub, sizeof d);
    xs.push_back(d);
  }
  std::size_t mismatches = 0;
  for (const double x : xs) {
    std::ostringstream os;
    obs::write_num(os, x);
    const std::string want = printf_shortest(x);
    if (os.str() != want && ++mismatches <= 10)
      ADD_FAILURE() << "write_num gives " << os.str() << ", the printf "
                    << "search " << want;
  }
  EXPECT_EQ(mismatches, 0u) << "of " << xs.size();
}

TEST(ChromeTrace, RealRunExportIsStructurallySound) {  // O5
  SpawnTree t = make_trs_tree(32, 4);
  StrandGraph g = elaborate(t);
  Pmh m(PmhConfig::flat(4, 512, 5));
  obs::EventRecorder rec;
  SchedOptions opts;
  opts.sink = &rec;
  run_scheduler("sb", g, m, opts);
  std::ostringstream os;
  obs::write_chrome_trace(os, rec, "real");
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"processors\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"queue\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"cache\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"ready-queue\""), std::string::npos);
}

TEST(ChromeTrace, CsvExportHasOneRowPerEvent) {  // O5
  obs::EventRecorder rec;
  rec.on_unit(0.0, 1.0, 0, 0, 1);
  rec.on_queue_wait(0.0, 0.0, 0, 0);
  rec.on_cache(obs::CacheEvent::kHit, 0.5, 1, 0, 9, 8.0, 8.0);  // CSV keeps hits
  rec.on_job(obs::JobEvent::kArrival, 0.0, 1, 0, "ten");
  std::ostringstream os;
  obs::write_events_csv(os, rec);
  const std::string csv = os.str();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 5);  // header + 4 rows
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "kind,sub,t0,t1,a,b,c,words,value,label");
  EXPECT_NE(csv.find("cache,hit,"), std::string::npos);
  EXPECT_NE(csv.find(",ten\n"), std::string::npos);
}

TEST(ChromeTrace, CsvExportQuotesLabelsWithCommas) {  // O5
  obs::EventRecorder rec;
  rec.on_job(obs::JobEvent::kAdmit, 0.0, 1, 0, "gen:family=sp,depth=4");
  std::ostringstream os;
  obs::write_events_csv(os, rec);
  EXPECT_NE(os.str().find(",\"gen:family=sp,depth=4\"\n"), std::string::npos)
      << os.str();
}

// ---------------------------------------------------------------- O7 ----

TEST(Progress, MeterWritesHeartbeats) {  // O7
  std::ostringstream os;
  obs::ProgressMeter meter(true, "run", &os, 0.0);
  meter.begin_phase("cells", 4);
  meter.tick();
  meter.tick(3);
  meter.finish();
  const std::string out = os.str();
  EXPECT_NE(out.find("progress[run]: cells 0/4"), std::string::npos);
  EXPECT_NE(out.find("progress[run]: cells 4/4"), std::string::npos);
  EXPECT_NE(out.find("done in"), std::string::npos);
}

TEST(Progress, DisabledMeterIsSilent) {  // O7
  std::ostringstream os;
  obs::ProgressMeter meter(false, "run", &os, 0.0);
  meter.begin_phase("cells", 2);
  meter.tick(2);
  meter.finish();
  EXPECT_TRUE(os.str().empty());
  obs::ProgressMeter dflt;  // default-constructed: every call a no-op
  dflt.begin_phase("x", 1);
  dflt.tick();
  dflt.finish();
}

}  // namespace
}  // namespace ndf
