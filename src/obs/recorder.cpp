#include "obs/recorder.hpp"

#include <algorithm>
#include <sstream>

#include "support/check.hpp"

namespace ndf::obs {

void EventRecorder::push(const Event& e) {
  events_.push_back(e);
  ++counts_[std::size_t(e.kind)];
}

void EventRecorder::on_unit(double start, double end, std::uint32_t proc,
                            std::int64_t unit, std::int64_t root) {
  push({.kind = Event::Kind::kUnit, .a = proc, .t0 = start, .t1 = end,
        .b = unit, .c = root});
}

void EventRecorder::on_queue_wait(double ready, double start,
                                  std::uint32_t proc, std::int64_t unit) {
  push({.kind = Event::Kind::kWait, .a = proc, .t0 = ready, .t1 = start,
        .b = unit});
}

void EventRecorder::on_cache(CacheEvent kind, double t, std::uint32_t level,
                             std::uint32_t cache, std::int64_t task,
                             double words, double used_after) {
  push({.kind = Event::Kind::kCache, .sub = std::uint8_t(kind), .a = cache,
        .t0 = t, .b = task, .c = std::int64_t(level), .value = used_after,
        .words = words});
}

void EventRecorder::on_job(JobEvent kind, double t, std::int64_t job,
                           std::uint32_t tenant, const char* label) {
  std::int64_t c = -1;
  if (label != nullptr && label[0] != '\0') {
    // Linear intern: label sets are tiny (tenant + workload names).
    const auto it = std::find(labels_.begin(), labels_.end(), label);
    c = it - labels_.begin();
    if (it == labels_.end()) labels_.emplace_back(label);
  }
  push({.kind = Event::Kind::kJob, .sub = std::uint8_t(kind), .a = tenant,
        .t0 = t, .b = job, .c = c});
}

void EventRecorder::clear() {
  events_.clear();
  labels_.clear();
  for (std::size_t& c : counts_) c = 0;
}

std::vector<double> utilization_timeline(const EventRecorder& rec,
                                         std::size_t num_procs,
                                         double makespan, std::size_t buckets) {
  NDF_CHECK(num_procs > 0 && buckets > 0 && makespan > 0);
  std::vector<double> busy(buckets, 0.0);
  const double w = makespan / double(buckets);
  for (const Event& e : rec.events()) {
    if (e.kind != Event::Kind::kUnit) continue;
    const double lo = std::max(0.0, e.t0);
    const double hi = std::min(makespan, e.t1);
    if (hi <= lo) continue;
    const std::size_t b0 = std::min(buckets - 1, std::size_t(lo / w));
    const std::size_t b1 = std::min(buckets - 1, std::size_t(hi / w));
    for (std::size_t b = b0; b <= b1; ++b) {
      const double s = std::max(lo, double(b) * w);
      const double t = std::min(hi, double(b + 1) * w);
      if (t > s) busy[b] += t - s;
    }
  }
  for (double& x : busy) x /= w * double(num_procs);
  return busy;
}

bool validate_trace(const EventRecorder& rec, std::size_t num_procs,
                    std::string* msg) {
  std::vector<std::vector<std::pair<double, double>>> per_proc(num_procs);
  for (const Event& e : rec.events()) {
    if (e.kind != Event::Kind::kUnit) continue;
    if (e.a >= num_procs || e.t1 < e.t0) {
      if (msg) *msg = "malformed trace event";
      return false;
    }
    per_proc[e.a].push_back({e.t0, e.t1});
  }
  for (std::size_t p = 0; p < num_procs; ++p) {
    auto& iv = per_proc[p];
    std::sort(iv.begin(), iv.end());
    for (std::size_t i = 1; i < iv.size(); ++i)
      if (iv[i].first < iv[i - 1].second - 1e-9) {
        if (msg) {
          std::ostringstream os;
          os << "processor " << p << " overlaps at t=" << iv[i].first;
          *msg = os.str();
        }
        return false;
      }
  }
  return true;
}

}  // namespace ndf::obs
