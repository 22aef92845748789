#include "obs/export.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <vector>

#include "support/check.hpp"
#include "support/report.hpp"
#include "support/spec.hpp"

namespace ndf::obs {

namespace {

using report::json_escape;
using spec::write_real;

const char* cache_sub_name(std::uint8_t sub) {
  switch (CacheEvent(sub)) {
    case CacheEvent::kHit: return "hit";
    case CacheEvent::kMiss: return "miss";
    case CacheEvent::kEvict: return "evict";
    case CacheEvent::kPin: return "pin";
    case CacheEvent::kUnpin: return "unpin";
  }
  return "?";
}

const char* job_sub_name(std::uint8_t sub) {
  switch (JobEvent(sub)) {
    case JobEvent::kArrival: return "arrival";
    case JobEvent::kAdmit: return "admit";
    case JobEvent::kComplete: return "complete";
    case JobEvent::kDeadlineMiss: return "deadline_miss";
  }
  return "?";
}

// Writes one traceEvents entry; the Emitter owns the comma discipline.
class Emitter {
 public:
  explicit Emitter(std::ostream& os) : os_(os) {}
  std::ostream& begin() {
    os_ << (first_ ? "\n  {" : ",\n  {");
    first_ = false;
    return os_;
  }
  void end() { os_ << "}"; }

 private:
  std::ostream& os_;
  bool first_ = true;
};

void meta(Emitter& em, const char* what, int pid, std::int64_t tid,
          const std::string& name) {
  std::ostream& os = em.begin();
  os << "\"name\": \"" << what << "\", \"ph\": \"M\", \"pid\": " << pid;
  if (tid >= 0) os << ", \"tid\": " << tid;
  os << ", \"args\": {\"name\": \"" << json_escape(name) << "\"}";
  em.end();
}

}  // namespace

void write_chrome_trace(std::ostream& os, const EventRecorder& rec,
                        const std::string& name) {
  const std::vector<Event>& events = rec.events();
  const std::vector<std::string>& labels = rec.labels();
  auto label_of = [&](std::int64_t i) -> std::string {
    return (i >= 0 && std::size_t(i) < labels.size()) ? labels[std::size_t(i)]
                                                      : std::string();
  };

  // Track discovery: processors from unit/wait events, (level, cache)
  // pairs from cache events, tenants from job events — all sorted so tid
  // assignment is deterministic.
  std::uint32_t nprocs = 0;
  std::map<std::pair<std::int64_t, std::uint32_t>, int> cache_tid;
  std::map<std::uint32_t, std::string> tenants;  // id -> display name
  for (const Event& e : events) {
    switch (e.kind) {
      case Event::Kind::kUnit:
      case Event::Kind::kWait:
        nprocs = std::max(nprocs, e.a + 1);
        break;
      case Event::Kind::kCache:
        cache_tid.emplace(std::make_pair(e.c, e.a), 0);
        break;
      case Event::Kind::kJob: {
        auto [it, fresh] = tenants.emplace(e.a, std::string());
        if (JobEvent(e.sub) == JobEvent::kArrival && it->second.empty())
          it->second = label_of(e.c);
        (void)fresh;
        break;
      }
    }
  }
  int next_tid = 0;
  for (auto& [key, tid] : cache_tid) tid = next_tid++;

  os << "{\"otherData\": {\"name\": \"" << json_escape(name)
     << "\", \"generator\": \"ndf --trace-out\"},\n\"traceEvents\": [";
  Emitter em(os);

  if (nprocs > 0) {
    meta(em, "process_name", 0, -1, "processors");
    for (std::uint32_t p = 0; p < nprocs; ++p)
      meta(em, "thread_name", 0, p, "proc " + std::to_string(p));
  }
  if (!cache_tid.empty()) {
    meta(em, "process_name", 1, -1, "caches");
    for (const auto& [key, tid] : cache_tid) {
      std::string track = "L";
      track += std::to_string(key.first);
      track += " cache ";
      track += std::to_string(key.second);
      meta(em, "thread_name", 1, tid, track);
    }
  }
  if (!tenants.empty()) {
    meta(em, "process_name", 2, -1, "service");
    for (const auto& [id, tname] : tenants)
      meta(em, "thread_name", 2, id,
           tname.empty() ? "tenant " + std::to_string(id) : tname);
  }

  // Per-job bookkeeping for pairing arrival→admit→complete into slices.
  struct JobState {
    double arrival = 0.0;
    double admit = 0.0;
    std::string label;
  };
  std::map<std::int64_t, JobState> jobs;
  // Ready-queue depth deltas: +1 when a unit becomes ready, −1 at its
  // dispatch (aggregated per timestamp below).
  std::map<double, std::int64_t> ready_delta;

  for (const Event& e : events) {
    switch (e.kind) {
      case Event::Kind::kUnit: {
        std::ostream& o = em.begin();
        o << "\"name\": \"u" << e.b << "\", \"cat\": \"unit\", \"ph\": \"X\""
          << ", \"ts\": ";
        write_real(o, e.t0);
        o << ", \"dur\": ";
        write_real(o, e.t1 - e.t0);
        o << ", \"pid\": 0, \"tid\": " << e.a << ", \"args\": {\"unit\": "
          << e.b << ", \"root\": " << e.c << "}";
        em.end();
        break;
      }
      case Event::Kind::kWait: {
        std::ostream& o = em.begin();
        o << "\"name\": \"wait u" << e.b
          << "\", \"cat\": \"queue\", \"ph\": \"X\", \"ts\": ";
        write_real(o, e.t0);
        o << ", \"dur\": ";
        write_real(o, e.t1 - e.t0);
        o << ", \"pid\": 0, \"tid\": " << e.a << ", \"args\": {\"unit\": "
          << e.b << "}";
        em.end();
        ready_delta[e.t0] += 1;
        ready_delta[e.t1] -= 1;
        break;
      }
      case Event::Kind::kCache: {
        // Hits don't change occupancy; elide them to keep traces compact
        // (they stay visible in the CSV export and the recorder counts).
        if (CacheEvent(e.sub) == CacheEvent::kHit) break;
        const int tid = cache_tid.at(std::make_pair(e.c, e.a));
        {
          std::ostream& o = em.begin();
          o << "\"name\": \"" << cache_sub_name(e.sub) << " t" << e.b
            << "\", \"cat\": \"cache\", \"ph\": \"i\", \"s\": \"t\", "
               "\"ts\": ";
          write_real(o, e.t0);
          o << ", \"pid\": 1, \"tid\": " << tid << ", \"args\": {\"task\": "
            << e.b << ", \"words\": ";
          write_real(o, e.words);
          o << "}";
          em.end();
        }
        {
          std::ostream& o = em.begin();
          o << "\"name\": \"used L" << e.c << " c" << e.a
            << "\", \"ph\": \"C\", \"ts\": ";
          write_real(o, e.t0);
          o << ", \"pid\": 1, \"args\": {\"words\": ";
          write_real(o, e.value);
          o << "}";
          em.end();
        }
        break;
      }
      case Event::Kind::kJob: {
        JobState& js = jobs[e.b];
        switch (JobEvent(e.sub)) {
          case JobEvent::kArrival: {
            js.arrival = e.t0;
            std::ostream& o = em.begin();
            o << "\"name\": \"arrive j" << e.b
              << "\", \"cat\": \"job\", \"ph\": \"i\", \"s\": \"t\", "
                 "\"ts\": ";
            write_real(o, e.t0);
            o << ", \"pid\": 2, \"tid\": " << e.a << ", \"args\": {\"job\": "
              << e.b << "}";
            em.end();
            break;
          }
          case JobEvent::kAdmit: {
            js.admit = e.t0;
            js.label = label_of(e.c);
            std::ostream& o = em.begin();
            o << "\"name\": \"wait j" << e.b
              << "\", \"cat\": \"job\", \"ph\": \"X\", \"ts\": ";
            write_real(o, js.arrival);
            o << ", \"dur\": ";
            write_real(o, e.t0 - js.arrival);
            o << ", \"pid\": 2, \"tid\": " << e.a << ", \"args\": {\"job\": "
              << e.b << "}";
            em.end();
            break;
          }
          case JobEvent::kComplete: {
            std::ostream& o = em.begin();
            o << "\"name\": \"j" << e.b;
            if (!js.label.empty()) o << " " << json_escape(js.label);
            o << "\", \"cat\": \"job\", \"ph\": \"X\", \"ts\": ";
            write_real(o, js.admit);
            o << ", \"dur\": ";
            write_real(o, e.t0 - js.admit);
            o << ", \"pid\": 2, \"tid\": " << e.a << ", \"args\": {\"job\": "
              << e.b << "}";
            em.end();
            break;
          }
          case JobEvent::kDeadlineMiss: {
            std::ostream& o = em.begin();
            o << "\"name\": \"deadline-miss j" << e.b
              << "\", \"cat\": \"job\", \"ph\": \"i\", \"s\": \"t\", "
                 "\"ts\": ";
            write_real(o, e.t0);
            o << ", \"pid\": 2, \"tid\": " << e.a << ", \"args\": {\"job\": "
              << e.b << "}";
            em.end();
            break;
          }
        }
        break;
      }
    }
  }

  // Ready-queue depth counter track (pid 0), in timestamp order.
  std::int64_t depth = 0;
  for (const auto& [t, delta] : ready_delta) {
    if (delta == 0) continue;
    depth += delta;
    std::ostream& o = em.begin();
    o << "\"name\": \"ready-queue\", \"ph\": \"C\", \"ts\": ";
    write_real(o, t);
    o << ", \"pid\": 0, \"args\": {\"units\": " << depth << "}";
    em.end();
  }

  os << "\n]}\n";
}

void write_events_csv(std::ostream& os, const EventRecorder& rec) {
  os << "kind,sub,t0,t1,a,b,c,words,value,label\n";
  const std::vector<std::string>& labels = rec.labels();
  for (const Event& e : rec.events()) {
    switch (e.kind) {
      case Event::Kind::kUnit: {
        os << "unit,,";
        write_real(os, e.t0);
        os << ",";
        write_real(os, e.t1);
        os << "," << e.a << "," << e.b << "," << e.c << ",,,\n";
        break;
      }
      case Event::Kind::kWait: {
        os << "wait,,";
        write_real(os, e.t0);
        os << ",";
        write_real(os, e.t1);
        os << "," << e.a << "," << e.b << ",,,,\n";
        break;
      }
      case Event::Kind::kCache: {
        os << "cache," << cache_sub_name(e.sub) << ",";
        write_real(os, e.t0);
        os << ",," << e.a << "," << e.b << "," << e.c << ",";
        write_real(os, e.words);
        os << ",";
        write_real(os, e.value);
        os << ",\n";
        break;
      }
      case Event::Kind::kJob: {
        os << "job," << job_sub_name(e.sub) << ",";
        write_real(os, e.t0);
        os << ",," << e.a << "," << e.b << ",,,,";
        if (e.c >= 0 && std::size_t(e.c) < labels.size())
          os << report::csv_field(labels[std::size_t(e.c)]);
        os << "\n";
        break;
      }
    }
  }
}

void write_trace_file(const std::string& path, const EventRecorder& rec,
                      const std::string& name) {
#ifndef NDEBUG
  {
    // Debug-mode invariant: the exported unit timeline must be a valid
    // schedule (no processor runs two units at once, times ordered).
    std::uint32_t nprocs = 0;
    for (const Event& e : rec.events())
      if (e.kind == Event::Kind::kUnit) nprocs = std::max(nprocs, e.a + 1);
    std::string msg;
    NDF_CHECK_MSG(validate_trace(rec, nprocs, &msg),
                  "trace-out invariant violated: " << msg);
  }
#endif
  std::ofstream out(path);
  NDF_CHECK_MSG(out.good(), "cannot open trace output file: " << path);
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  if (csv)
    write_events_csv(out, rec);
  else
    write_chrome_trace(out, rec, name);
  NDF_CHECK_MSG(out.good(), "failed writing trace output file: " << path);
}

}  // namespace ndf::obs
