#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>

#include "bench.hpp"
#include "obs/metrics.hpp"
#include "support/check.hpp"

namespace pb {

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  NDF_CHECK_MSG(!v.empty(), "percentile of an empty sample");
  std::sort(v.begin(), v.end());
  return ndf::obs::nearest_rank(v, q);
}

double geomean(const std::vector<double>& v) {
  NDF_CHECK_MSG(!v.empty(), "geometric mean of an empty sample");
  double log_sum = 0.0;
  for (double x : v) {
    NDF_CHECK_MSG(x > 0.0, "geometric mean of a non-positive value " << x);
    log_sum += std::log(x);
  }
  return std::exp(log_sum / double(v.size()));
}

Tail tail_percentile(const std::vector<double>& v, double preferred) {
  for (double pct : {preferred, 99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (double(v.size()) * (1.0 - pct / 100.0) >= 10.0)
      return {pct, percentile(v, pct / 100.0)};
  }
  return {50.0, percentile(v, 0.5)};
}

Rounds timed_rounds(double seconds, std::size_t min_rounds, Tracer& tr,
                    const std::function<void(Tracer&)>& round,
                    const std::function<void()>& after) {
  Tracer off(false);
  Rounds out;
  const double start = now_s();
  for (std::size_t i = 0; i < min_rounds || now_s() - start < seconds; ++i) {
    const bool traced = tr.enabled() && i % 2 == 1;
    Tracer& t = traced ? tr : off;
    const int id = t.begin("round");
    const double ms = 1e3 * time_s([&] { round(t); });
    t.end(id);
    (traced ? out.traced : out.plain).push_back(ms);
    after();
  }
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double heap_in_use_mb() {
  const struct mallinfo2 mi = mallinfo2();
  return double(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

int Tracer::begin(const std::string& name, const std::string& tag) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.tag = tag;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start = now_s();
  spans_.push_back(std::move(s));
  open_.push_back(int(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int id, double units) {
  if (id < 0) return;
  spans_[id].end = now_s();
  spans_[id].units = units;
  NDF_CHECK_MSG(!open_.empty() && open_.back() == id,
                "span " << spans_[id].name << " closed out of order");
  open_.pop_back();
}

namespace {
bool selected(const Tracer::Span& s, const std::string& name,
              const std::string& tag, double since) {
  return s.name == name && (tag.empty() || s.tag == tag) && s.start >= since &&
         s.end > 0.0;
}
}  // namespace

double Tracer::total_s(const std::string& name, const std::string& tag,
                       double since) const {
  double t = 0.0;
  for (const Span& s : spans_)
    if (selected(s, name, tag, since)) t += s.end - s.start;
  return t;
}

double Tracer::total_units(const std::string& name, const std::string& tag,
                           double since) const {
  double u = 0.0;
  for (const Span& s : spans_)
    if (selected(s, name, tag, since)) u += s.units;
  return u;
}

std::vector<std::pair<std::string, double>> Tracer::self_times() const {
  // Children never overlap each other (spans nest on one thread), so the
  // covered part of a parent is the sum of its children's durations.
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child[s.parent] += s.end - s.start;
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    by_name[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
  return {by_name.begin(), by_name.end()};
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream os(path);
  NDF_CHECK_MSG(bool(os), "cannot write spans to " << path);
  os << "[\n";
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"name\":\"" << s.name << "\",\"tag\":\"" << s.tag
       << "\",\"start\":" << (s.start - t0) << ",\"end\":" << (s.end - t0)
       << ",\"parent\":" << s.parent << ",\"units\":" << s.units << "}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]\n";
}

}  // namespace pb
