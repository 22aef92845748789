// Tests of the result renderers (src/exp/report, src/serve/report):
//   R1  the sweep table, JSON and CSV of a hand-built fixture are pinned
//       by hash: default and non-default cache models, measured and
//       unmeasured rows, 1- and 2-level machines, a 2^64 − 1 seed, and an
//       empty run list
//   R2  the serve table, JSON and CSV are pinned the same way: measured
//       cells under a non-default cache model, jobs with and without
//       deadlines, a zero-share tenant (fairness ∞), and an empty stream
//   R3  the shared renderer (support/report): one JSON escaper, the column
//       rules (presence, list padding, absent values, shaping by name) and
//       JSON groups
//   R4  the paper presets' stdout (exp/presets) is pinned by hash at one
//       and four workers, and a preset takes only the policies it fits
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>

#include "exp/presets.hpp"
#include "exp/report.hpp"
#include "pmh/cache_model.hpp"
#include "sched/registry.hpp"
#include "serve/report.hpp"
#include "support/report.hpp"

namespace ndf {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

exp::RunPoint run_point(const std::string& algo, std::size_t n,
                        const std::string& machine, std::size_t levels) {
  exp::RunPoint r;
  r.workload.algo = algo;
  r.workload.n = n;
  r.machine = machine;
  r.machine_desc = "PMH[" + machine + "]";
  r.policy = "sb";
  r.sigma = 1.0 / 3.0;
  r.alpha_prime = 1.0;
  r.stats.makespan = 1234.5;
  r.stats.total_work = 1000;
  r.stats.miss_cost = 234.5;
  r.stats.utilization = 0.8125;
  r.stats.atomic_units = 17;
  r.stats.anchors = 5;
  r.stats.steals = 3;
  for (std::size_t l = 0; l < levels; ++l)
    r.stats.misses.push_back(10.0 * double(l + 1) + 0.25);
  return r;
}

/// Four runs covering every presence rule of the sweep emitters.
std::vector<exp::RunPoint> sweep_fixture() {
  std::vector<exp::RunPoint> runs;
  // Measured, default model, 1-level machine.
  runs.push_back(run_point("mm", 8, "flat:p=2,m1=768,c1=10", 1));
  runs.back().stats.measured_misses = {3};
  runs.back().stats.comm_cost = 30;
  // Measured, clock with write-back and contention, 2-level, max seed.
  runs.push_back(run_point("lcs", 96, "deep2x4", 2));
  runs.back().cache = parse_cache_model("cache:repl=clock,wb=1,bw=0.5");
  runs.back().policy = "ws";
  runs.back().repeat = 1;
  runs.back().seed = std::numeric_limits<std::uint64_t>::max();
  runs.back().stats.measured_misses = {7.5, 2};
  runs.back().stats.measured_writebacks = {4, 0.125};
  runs.back().stats.comm_cost = 75;
  runs.back().stats.contention_cost = 5.5;
  // Unmeasured, default model, 2-level, NP elaboration.
  runs.push_back(run_point("trs", 32, "deep2x4", 2));
  runs.back().workload.np = true;
  runs.back().policy = "greedy";
  runs.back().sigma = 0.5;
  // Measured under a non-default model without write-back or contention.
  runs.push_back(run_point("mm", 16, "flat8", 1));
  runs.back().cache = parse_cache_model("fifo");
  runs.back().stats.measured_misses = {1};
  runs.back().stats.comm_cost = 10;
  return runs;
}

std::string render_sweep(const std::vector<exp::RunPoint>& runs) {
  std::ostringstream os;
  exp::results_table("pin", runs).print(os);
  exp::write_sweep_json(os, "pin", runs);
  exp::write_sweep_csv(os, runs);
  return os.str();
}

TEST(ReportPin, SweepOutputIsPinned) {  // R1
  const std::vector<exp::RunPoint> all = sweep_fixture();
  // Taken from the hand-written emitters each result kind had before the
  // shared renderer (src/support/report) replaced them.
  const struct {
    const char* name;
    std::vector<exp::RunPoint> runs;
    std::uint64_t hash;
  } cases[] = {
      {"all", all, 0xf3647306e9f91229ull},
      {"legacy", {all[2]}, 0x9efb10db69beedc2ull},
      {"measured default", {all[0], all[2]}, 0xc742c1fd71c71eafull},
      {"empty", {}, 0x2a7892dbf26bb963ull},
  };
  for (const auto& c : cases) {
    const std::string out = render_sweep(c.runs);
    EXPECT_EQ(fnv1a(out), c.hash)
        << c.name << " 0x" << std::hex << fnv1a(out) << "\n" << out;
  }
}

serve::JobRecord job(std::size_t index, const std::string& tenant,
                     double arrival, double deadline) {
  serve::JobRecord r;
  r.job.index = index;
  r.job.tenant = tenant;
  r.job.workload = exp::intern(exp::parse_workload("mm:n=16"));
  r.job.arrival = arrival;
  r.job.deadline = deadline;
  r.start = arrival + 0.5;
  r.service = 100.0 / 3.0;
  r.completion = r.start + r.service;
  r.latency = r.completion - arrival;
  r.utilization = 0.75;
  r.deadline_met = r.completion <= deadline;
  return r;
}

/// Three cells covering every presence rule of the serve emitters.
std::vector<serve::ServeCell> serve_fixture() {
  const double none = std::numeric_limits<double>::infinity();
  std::vector<serve::ServeCell> cells(3);
  // Measured, default model, a job with and one without a deadline.
  serve::ServeCell& a = cells[0];
  a.machine = "flat:p=2,m1=768,c1=10";
  a.machine_desc = "PMH[p=2]";
  a.policy = "sb";
  a.jobs = {job(0, "t0", 0, 20), job(1, "t1", 1.25, none)};
  a.jobs[0].measured_misses = {4, 1};
  a.jobs[0].comm_cost = 14;
  a.jobs[1].measured_misses = {2, 0.5};
  a.jobs[1].comm_cost = 7;
  a.summary.completed = 2;
  a.summary.horizon = 35.125;
  a.summary.throughput = 2 / 35.125;
  a.summary.utilization = 0.6;
  a.summary.latency_mean = 34;
  a.summary.latency_p50 = 33.5;
  a.summary.latency_p99 = 34.5;
  a.summary.latency_p999 = 34.5;
  a.summary.latency_max = 34.5;
  a.summary.tenants = 2;
  a.summary.fairness = 1.5;
  a.summary.with_deadline = 1;
  a.summary.deadline_misses = 1;
  a.summary.measured_misses = {6, 1.5};
  a.summary.comm_cost = 21;
  a.summary.metrics.histogram("latency").record(34);
  // Non-default model, a zero-share tenant, a job measuring deeper than
  // its cell's summary.
  serve::ServeCell& b = cells[1];
  b.machine = "deep2x4";
  b.machine_desc = "PMH[deep]";
  b.policy = "edf";
  b.cache = "cache:repl=clock,wb=1,bw=0.5";
  b.sigma = 0.5;
  b.jobs = {job(0, "a,\"b\"", 0, 50)};
  b.jobs[0].measured_misses = {1, 2, 3};
  b.jobs[0].comm_cost = 9;
  b.summary.completed = 1;
  b.summary.tenants = 2;
  b.summary.fairness = std::numeric_limits<double>::infinity();
  b.summary.with_deadline = 1;
  b.summary.measured_misses = {1};
  b.summary.comm_cost = 9;
  // An empty stream.
  serve::ServeCell& c = cells[2];
  c.machine = "flat8";
  c.machine_desc = "PMH[flat8]";
  c.policy = "greedy";
  return cells;
}

std::string render_serve(const std::vector<serve::ServeCell>& cells) {
  std::ostringstream os;
  serve::summary_table("pin", cells).print(os);
  serve::write_serve_json(os, "pin", cells);
  serve::write_serve_csv(os, cells);
  return os.str();
}

TEST(ReportPin, ServeOutputIsPinned) {  // R2
  const std::vector<serve::ServeCell> all = serve_fixture();
  serve::ServeCell unmeasured = all[0];
  unmeasured.summary.measured_misses.clear();
  for (serve::JobRecord& r : unmeasured.jobs) r.measured_misses.clear();
  // A jobless cell still widens the per-job CSV: its cache model and its
  // summary's measured levels add columns that every job row fills.
  serve::ServeCell jobless = all[2];
  jobless.cache = "fifo";
  jobless.summary.measured_misses = {1, 2};
  jobless.summary.comm_cost = 3;
  // Taken from the hand-written emitters, like SweepOutputIsPinned's.
  const struct {
    const char* name;
    std::vector<serve::ServeCell> cells;
    std::uint64_t hash;
  } cases[] = {
      {"all", all, 0xc3e639a3b853af2cull},
      {"legacy", {unmeasured, all[2]}, 0xa4e616bd51b0fc6aull},
      {"empty stream", {all[2]}, 0xbaf46902b1872fd9ull},
      {"jobless cell shapes the csv", {unmeasured, jobless},
       0xcf2cc267ebed1bb7ull},
      {"no cells", {}, 0x60e07b35d3cd20aaull},
  };
  for (const auto& c : cases) {
    const std::string out = render_serve(c.cells);
    EXPECT_EQ(fnv1a(out), c.hash)
        << c.name << " 0x" << std::hex << fnv1a(out) << "\n" << out;
  }
}

TEST(Renderer, JsonEscapeNamesTheCommonControlCharacters) {  // R3
  EXPECT_EQ(report::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(report::json_escape("\n\t\r"), "\\n\\t\\r");
  EXPECT_EQ(report::json_escape(std::string("\x01x", 2)), "\\u0001x");
  EXPECT_EQ(report::json_escape("plain ü"), "plain ü");
}

TEST(Renderer, ColumnsFollowTheShownFields) {  // R3
  using report::Field;
  const std::vector<double> two{1.5, 2}, none;
  const auto rec = [](const std::string& name, const std::vector<double>& q,
                      bool extra) {
    return report::Record{
        {"name", "name", "name", name},
        {"extra", "extra", "extra", report::value_if(extra, 7), "g", extra},
        {"Q", "q", "q", std::span<const double>(q), "g", !q.empty()},
    };
  };
  const report::Record blank = rec("", none, false);
  // Nothing optional shown: only the always-present column.
  const auto csv = [&](const std::vector<report::Record>& rows) {
    report::Columns cols(&Field::csv, blank);
    for (const report::Record& r : rows) cols.fit(r);
    std::ostringstream os;
    cols.write_csv_header(os);
    for (const report::Record& r : rows) cols.write_csv_row(os, r);
    return os.str();
  };
  EXPECT_EQ(csv({rec("a,b", none, false)}), "name\n\"a,b\"\n");
  // One record shows both: every record fills them, absent as empty.
  EXPECT_EQ(csv({rec("a", none, false), rec("b", two, true)}),
            "name,extra,q1,q2\na,,,\nb,7,1.5,2\n");
  const Table t = report::Columns(&Field::table, blank)
                      .table("t", {rec("a", none, false)});
  EXPECT_EQ(t.header(), std::vector<std::string>{"name"});
  // A partial record of another kind widens the column of its name.
  report::Columns shaped(&Field::table, blank);
  shaped.fit({{"Q", "", "", std::span<const double>(two)}});
  const Table w = shaped.table("t", {rec("a", none, false)});
  EXPECT_EQ(w.header(), (std::vector<std::string>{"name", "Q1", "Q2"}));
  const std::string dash = "-";
  EXPECT_EQ(w.rows().at(0), (std::vector<Cell>{std::string("a"), dash, dash}));
  // JSON: unshown keys vanish, a group nests, lists become arrays.
  std::ostringstream json;
  report::write_json_fields(json, rec("a", none, false));
  json << " | ";
  report::write_json_fields(json, rec("b", two, true));
  EXPECT_EQ(json.str(),
            "\"name\": \"a\" | \"name\": \"b\", \"g\": {\"extra\": 7, "
            "\"q\": [1.5, 2]}");
}

TEST(ReportPin, PaperPresetsArePinned) {  // R4
  // Taken from the per-claim driver binaries each preset replaced
  // (ablation without its A3 table, which bench_span prints now).
  const struct {
    const char* preset;
    const char* sched;  ///< nullptr: the preset's default
    bool misses;
    std::uint64_t hash;
  } cases[] = {
      {"sb_bounds", nullptr, false, 0xefa1be74700bab74ull},
      {"sb_scaling", nullptr, false, 0x9c0a5e24f0822b28ull},
      {"sb_scaling", nullptr, true, 0x8a750183dd744ea8ull},
      {"sb_vs_ws", nullptr, false, 0x4a3afbc5fc7e4324ull},
      {"sb_vs_ws", nullptr, true, 0x6aae74b3e5d46714ull},
      {"sb_vs_ws", "sb,ws,greedy,serial", false, 0x936eb565b6d46c5dull},
      {"ablation", nullptr, false, 0x32ecdf1727f1c4ddull},
      {"ablation", nullptr, true, 0x1f4e0715c9ddf86cull},
  };
  for (const auto& c : cases) {
    const exp::Preset& p = exp::find_preset(c.preset);
    for (std::size_t jobs : {1, 4}) {
      std::ostringstream os;
      exp::run_preset(p, parse_sched_list(c.sched ? c.sched : p.sched),
                      c.misses, jobs, os);
      EXPECT_EQ(fnv1a(os.str()), c.hash)
          << c.preset << " --sched=" << (c.sched ? c.sched : p.sched)
          << (c.misses ? " --misses" : "") << " --jobs=" << jobs << " 0x"
          << std::hex << fnv1a(os.str()) << "\n" << os.str();
    }
  }
}

TEST(Presets, NamesAndPolicyListsAreChecked) {  // R4
  try {
    exp::find_preset("nope");
    FAIL() << "unknown preset accepted";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    for (const exp::Preset& p : exp::presets())
      EXPECT_NE(what.find(p.name), std::string::npos) << what;
  }
  std::ostringstream os;
  // One-policy presets take exactly one; sb_vs_ws takes a non-empty list.
  EXPECT_THROW(exp::run_preset(exp::find_preset("sb_scaling"), {"sb", "ws"},
                               false, 1, os),
               CheckError);
  EXPECT_THROW(
      exp::run_preset(exp::find_preset("sb_vs_ws"), {}, false, 1, os),
      CheckError);
  EXPECT_THROW(
      exp::run_preset(exp::find_preset("smoke"), {"sb"}, false, 1, os),
      CheckError);
  EXPECT_EQ(os.str(), "");
}

}  // namespace
}  // namespace ndf
