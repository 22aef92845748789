// Shared pieces of the repository benchmark binary (perfbench/): run
// options, the result record every workload fills, timing statistics, the
// in-memory span recorder of the traced run, and host memory probes.
//
// Every workload runs the same way. Set-up (building its inputs) is
// repeated a few times and its median reported; then timed rounds run
// back to back for --seconds; then outputs are checked outside the timed
// rounds. With --trace=1 the same run also records spans around every call
// into a library layer and derives the per-layer metrics from them.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;  ///< traced run: where the span list is written
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one run reports: the outcome counts the checks produced, the
/// metrics, and free-form context lines (printed before the result line).
struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> check_failures;  ///< first few, for the log
  std::vector<Metric> metrics;
  std::vector<std::string> context;

  void add(const std::string& name, const std::string& unit, double v) {
    metrics.push_back({name, unit, v});
  }
  /// Records `bad` failed ops; keeps the message of the first few.
  void fail(std::size_t bad, const std::string& why) {
    if (bad == 0) return;
    failed += bad;
    if (check_failures.size() < 8) check_failures.push_back(why);
  }
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall seconds spent in `fn`.
inline double time_s(const std::function<void()>& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

double median(std::vector<double> v);
/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> v, double q);
/// Geometric mean of positive values.
double geomean(const std::vector<double>& v);

/// The round-time tail: percentile `preferred` when at least ten samples
/// lie beyond it, else the highest of p99.9/p99/p95/p90/p75/p50 that has
/// (the median when the sample is tiny). Each workload prefers the highest
/// percentile its usual round count supports, so the reported percentile
/// does not flip when the host runs a little faster or slower.
struct Tail {
  double pct = 50.0;
  double value = 0.0;
};
Tail tail_percentile(const std::vector<double>& v, double preferred);

class Tracer;

/// Wall milliseconds of each timed round of a run. A plain run times every
/// round with tracing off. A traced run alternates rounds with tracing off
/// and on, so the ratio of the two medians is the tracing overhead.
struct Rounds {
  std::vector<double> plain;
  std::vector<double> traced;
};

/// Runs `round` back to back until `seconds` of wall time have passed (and
/// at least `min_rounds` times), passing it the tracer to record into. The
/// round's wall time is measured around `round` only; `after` runs untimed
/// after every round (the output checks).
Rounds timed_rounds(double seconds, std::size_t min_rounds, Tracer& tr,
                    const std::function<void(Tracer&)>& round,
                    const std::function<void()>& after);

/// Peak resident set of this process so far, MB (getrusage).
double peak_rss_mb();
/// Heap bytes currently allocated through malloc, MB (mallinfo2): the
/// exact size of live data structures, unlike RSS which keeps freed pages.
double heap_in_use_mb();

/// In-memory span recorder of the traced run. A span has a name, an
/// optional tag (e.g. the policy), start and end, and the span that was
/// open when it began. Recording is off in plain runs: begin() then costs
/// one branch. Spans are written out at exit (write_json).
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string tag;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    double units = 0.0;  ///< work the span covered (strands, units, jobs)
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (-1 when recording is off).
  int begin(const std::string& name, const std::string& tag = {});
  void end(int id, double units = 0.0);

  /// Total duration of closed spans named `name` (with `tag`, if given)
  /// whose start is at or after `since`.
  double total_s(const std::string& name, const std::string& tag = {},
                 double since = 0.0) const;
  /// Sum of `units` over the same selection.
  double total_units(const std::string& name, const std::string& tag = {},
                     double since = 0.0) const;
  /// Per-name self time: each span's duration minus the part its child
  /// spans cover, summed by name.
  std::vector<std::pair<std::string, double>> self_times() const;
  /// Writes every span as JSON ({"name","tag","start","end","parent"}).
  void write_json(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: opens on construction, closes on destruction.
class Scoped {
 public:
  Scoped(Tracer& t, const std::string& name, const std::string& tag = {})
      : t_(t), id_(t.begin(name, tag)) {}
  ~Scoped() { t_.end(id_, units_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  void set_units(double u) { units_ = u; }

 private:
  Tracer& t_;
  int id_;
  double units_ = 0.0;
};

// The three workloads (one file each) and the per-layer probes every
// traced run adds (layers.cpp).
Result run_sweep(const Options& o, Tracer& tr);
Result run_serve(const Options& o, Tracer& tr);
Result run_native(const Options& o, Tracer& tr);

}  // namespace pb
