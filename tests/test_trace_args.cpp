// Tests for scheduler traces, CLI args and summary statistics.
#include <gtest/gtest.h>

#include "algos/lcs.hpp"
#include "algos/trs.hpp"
#include "nd/drs.hpp"
#include "obs/recorder.hpp"
#include "sched/registry.hpp"
#include "support/args.hpp"
#include "support/summary.hpp"

namespace ndf {
namespace {

TEST(TraceTest, SbTraceIsValidAndCoversAllUnits) {
  SpawnTree t = make_lcs_tree(128, 4);
  StrandGraph g = elaborate(t);
  Pmh m(PmhConfig::flat(4, 256, 5));
  obs::EventRecorder rec;
  SchedOptions opts;
  opts.sink = &rec;
  const SchedStats s = run_scheduler("sb", g, m, opts);
  EXPECT_EQ(rec.count(obs::Event::Kind::kUnit), s.atomic_units);
  std::string msg;
  EXPECT_TRUE(obs::validate_trace(rec, m.num_processors(), &msg)) << msg;
  for (const obs::Event& e : rec.events()) {
    if (e.kind != obs::Event::Kind::kUnit) continue;
    EXPECT_GE(e.t0, 0.0);
    EXPECT_LE(e.t1, s.makespan + 1e-9);
  }
}

TEST(TraceTest, WsTraceIsValid) {
  SpawnTree t = make_trs_tree(32, 4);
  StrandGraph g = elaborate(t);
  Pmh m(PmhConfig::flat(4, 512, 5));
  obs::EventRecorder rec;
  SchedOptions opts;
  opts.sink = &rec;
  const SchedStats s = run_scheduler("ws", g, m, opts);
  EXPECT_EQ(rec.count(obs::Event::Kind::kUnit), s.atomic_units);
  std::string msg;
  EXPECT_TRUE(obs::validate_trace(rec, m.num_processors(), &msg)) << msg;
}

TEST(TraceTest, UtilizationTimelineIntegratesToBusyFraction) {
  obs::EventRecorder trace;
  trace.on_unit(0.0, 10.0, 0, 0, 0);
  trace.on_unit(5.0, 10.0, 1, 1, 1);
  const auto tl = obs::utilization_timeline(trace, 2, 10.0, 10);
  ASSERT_EQ(tl.size(), 10u);
  EXPECT_NEAR(tl[0], 0.5, 1e-12);  // only proc 0 busy
  EXPECT_NEAR(tl[9], 1.0, 1e-12);  // both busy
  double avg = 0;
  for (double x : tl) avg += x;
  EXPECT_NEAR(avg / 10.0, 15.0 / 20.0, 1e-12);
}

TEST(TraceTest, ValidateCatchesOverlap) {
  obs::EventRecorder trace;
  trace.on_unit(0.0, 10.0, 0, 0, 0);
  trace.on_unit(5.0, 8.0, 0, 1, 1);  // same proc, overlapping
  std::string msg;
  EXPECT_FALSE(obs::validate_trace(trace, 1, &msg));
  EXPECT_FALSE(msg.empty());
}

TEST(TraceTest, ValidateCatchesEndBeforeStart) {
  obs::EventRecorder trace;
  trace.on_unit(10.0, 4.0, 0, 0, 0);  // runs backwards
  std::string msg;
  EXPECT_FALSE(obs::validate_trace(trace, 1, &msg));
  EXPECT_EQ(msg, "malformed trace event");
}

TEST(TraceTest, ValidateCatchesOutOfRangeProcessor) {
  obs::EventRecorder trace;
  trace.on_unit(0.0, 1.0, 4, 0, 0);  // proc 4 on a 4-processor machine
  std::string msg;
  EXPECT_FALSE(obs::validate_trace(trace, 4, &msg));
  EXPECT_EQ(msg, "malformed trace event");
  // The same event is fine on a machine that has the processor.
  EXPECT_TRUE(obs::validate_trace(trace, 5, &msg));
}

TEST(TraceTest, BackToBackUnitsOnOneProcessorAreValid) {
  obs::EventRecorder trace;
  trace.on_unit(0.0, 5.0, 0, 0, 0);
  trace.on_unit(5.0, 9.0, 0, 1, 1);  // touching intervals don't overlap
  trace.on_queue_wait(0.0, 5.0, 0, 1);  // a wait is not a unit
  std::string msg;
  EXPECT_TRUE(obs::validate_trace(trace, 1, &msg)) << msg;
}

TEST(ArgsTest, ParsesTypedFlags) {
  const char* argv[] = {"prog", "--n=128", "--sigma=0.25", "--verbose",
                        "--mode=fast"};
  Args a(5, argv);
  EXPECT_EQ(a.get("n", 0LL), 128);
  EXPECT_DOUBLE_EQ(a.get("sigma", 0.0), 0.25);
  EXPECT_TRUE(a.get("verbose", false));
  EXPECT_EQ(a.get("mode", std::string("slow")), "fast");
  EXPECT_EQ(a.get("missing", 7LL), 7);
  EXPECT_TRUE(a.has("n"));
  EXPECT_FALSE(a.has("m"));
}

TEST(ArgsTest, RejectsMalformedInput) {
  {
    const char* argv[] = {"prog", "positional"};
    EXPECT_THROW(Args(2, argv), CheckError);
  }
  {
    const char* argv[] = {"prog", "--n=abc"};
    Args a(2, argv);
    EXPECT_THROW(a.get("n", 0LL), CheckError);
  }
  {
    const char* argv[] = {"prog", "--flag=maybe"};
    Args a(2, argv);
    EXPECT_THROW(a.get("flag", false), CheckError);
  }
}

TEST(SummaryTest, ComputesOrderStatistics) {
  const std::vector<double> xs{5, 1, 4, 2, 3};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, 1.5811, 1e-3);
}

TEST(SummaryTest, EvenCountMedianAveragesMiddlePair) {
  const std::vector<double> xs{1, 2, 3, 10};
  EXPECT_DOUBLE_EQ(summarize(xs).median, 2.5);
  EXPECT_THROW(summarize({}), CheckError);
}

}  // namespace
}  // namespace ndf
