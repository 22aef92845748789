// EventRecorder: the in-memory TraceSink behind `--trace-out`. Appends
// every event to one flat tagged vector (emission order = simulation
// order) and interns job labels. Its kUnit events are the unit trace —
// SimCore emits one at every dispatch, so there is one per executed unit,
// in dispatch order — which validate_trace and utilization_timeline read.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/events.hpp"

namespace ndf::obs {

/// Tagged union of every event family, flat for cheap append and linear
/// export. Field meaning depends on `kind` (unused fields stay zero):
///
/// | kind      | t0      | t1    | a (u32)  | b (i64)       | c (i64) | value      |
/// |-----------|---------|-------|----------|---------------|---------|------------|
/// | kUnit     | start   | end   | proc     | unit          | root    | —          |
/// | kWait     | ready   | start | proc     | unit          | —       | —          |
/// | kCache    | t       | —     | cache    | task          | label²  | used_after |
/// | kJob      | t       | —     | tenant   | job           | label¹  | —          |
///
/// ¹ index into labels() (-1 = none).  ² cache events reuse `c`'s low bits
/// for the level and carry the miss/footprint words in `words`.
struct Event {
  enum class Kind : std::uint8_t { kUnit, kWait, kCache, kJob };
  Kind kind = Kind::kUnit;
  std::uint8_t sub = 0;  ///< CacheEvent / JobEvent enum value
  std::uint32_t a = 0;   ///< proc / cache index / tenant
  double t0 = 0.0;
  double t1 = 0.0;
  std::int64_t b = 0;       ///< unit / task / job id
  std::int64_t c = -1;      ///< root / cache level / label index
  double value = 0.0;       ///< cache: used_after
  double words = 0.0;       ///< cache: footprint words
};

class EventRecorder final : public TraceSink {
 public:
  void on_unit(double start, double end, std::uint32_t proc,
               std::int64_t unit, std::int64_t root) override;
  void on_queue_wait(double ready, double start, std::uint32_t proc,
                     std::int64_t unit) override;
  void on_cache(CacheEvent kind, double t, std::uint32_t level,
                std::uint32_t cache, std::int64_t task, double words,
                double used_after) override;
  void on_job(JobEvent kind, double t, std::int64_t job, std::uint32_t tenant,
              const char* label) override;

  const std::vector<Event>& events() const { return events_; }
  /// Interned job-event labels; Event::c for kJob indexes this.
  const std::vector<std::string>& labels() const { return labels_; }

  /// Events of one kind seen so far (counted at append, O(1)).
  std::size_t count(Event::Kind kind) const {
    return counts_[std::size_t(kind)];
  }

  /// Forgets all events and labels (capacity retained).
  void clear();

 private:
  void push(const Event& e);

  std::vector<Event> events_;
  std::vector<std::string> labels_;
  std::size_t counts_[4] = {0, 0, 0, 0};
};

/// Fraction of processors busy in each of `buckets` equal slices of
/// [0, makespan) under the unit events (clipped to the range).
std::vector<double> utilization_timeline(const EventRecorder& rec,
                                         std::size_t num_procs,
                                         double makespan, std::size_t buckets);

/// False (and *msg set) unless every unit event ends after it starts on an
/// existing processor and no processor runs two units at once.
bool validate_trace(const EventRecorder& rec, std::size_t num_procs,
                    std::string* msg);

}  // namespace ndf::obs
