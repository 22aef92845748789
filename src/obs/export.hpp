// Trace exporters behind `--trace-out`: Chrome trace-event JSON (loads in
// Perfetto / chrome://tracing) and a compact CSV of the raw event stream.
//
// Chrome-trace track layout (docs/observability.md):
//   pid 0 "processors" — one thread per processor carrying unit slices
//     (cat "unit") and dispatch-queue waits (cat "queue"), plus a
//     "ready-queue" counter track (units ready but not yet dispatched).
//   pid 1 "caches"     — one thread per (level, cache) carrying miss /
//     evict / pin / unpin instants (cat "cache"; hits are elided — they
//     don't change occupancy) and one "used L<l> c<i>" counter track per
//     cache sampling resident+reserved words after each event.
//   pid 2 "service"    — one thread per tenant: arrival instants, then a
//     wait slice (arrival→admit) and a service slice (admit→complete) per
//     job, and deadline-miss instants (cat "job").
// All timestamps are simulated machine time written as Chrome `ts`
// microseconds (1 sim time unit = 1 µs on screen).
#pragma once

#include <ostream>
#include <string>

#include "obs/recorder.hpp"

namespace ndf::obs {

/// Writes the Chrome trace-event JSON document; `name` identifies the run
/// in the file's otherData block.
void write_chrome_trace(std::ostream& os, const EventRecorder& rec,
                        const std::string& name);

/// Writes every recorded event as one CSV row (header
/// `kind,sub,t0,t1,a,b,c,words,value,label`; field meaning per kind as in
/// obs/recorder.hpp, hits included).
void write_events_csv(std::ostream& os, const EventRecorder& rec);

/// Writes `rec` to `path`: CSV when the path ends in `.csv`, Chrome JSON
/// otherwise. Throws CheckError if the file cannot be opened. Debug builds
/// re-validate the unit trace (validate_trace) before writing.
void write_trace_file(const std::string& path, const EventRecorder& rec,
                      const std::string& name);

}  // namespace ndf::obs
