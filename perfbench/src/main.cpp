// ndf_perfbench — the repository benchmark's binary (perfbench/).
// perfbench/run.py builds it and runs it; it can also be run by hand:
//
//   ndf_perfbench --workload=sweep|serve|native --seed=<n> --seconds=<s>
//                 [--trace=0|1] [--spans-out=<path>]
//
// It prints context lines, then one JSON line
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace=0) or the per-layer metrics
// (--trace=1). An unknown flag, workload or malformed value exits 2 with
// a one-line message; so does a build that is not optimised or carries a
// sanitizer, since its times would measure the build, not the code.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "ndf_perfbench: %s\n", msg.c_str());
  std::exit(2);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

std::uint64_t parse_uint(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || v[0] == '-' || *end != '\0')
    usage_error("--" + flag + " expects a non-negative integer, got '" + v +
                "'");
  return x;
}

pb::Options parse(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos)
      usage_error("expected --name=value, got '" + a + "'");
    const std::string name = a.substr(2, eq - 2);
    if (name != "workload" && name != "seed" && name != "seconds" &&
        name != "trace" && name != "spans-out")
      usage_error("unknown flag --" + name +
                  " (flags: --workload --seed --seconds --trace --spans-out)");
    if (!kv.emplace(name, a.substr(eq + 1)).second)
      usage_error("flag --" + name + " given twice");
  }
  pb::Options o;
  if (!kv.count("workload")) usage_error("--workload is required");
  o.workload = kv["workload"];
  if (o.workload != "sweep" && o.workload != "serve" && o.workload != "native")
    usage_error("unknown workload '" + o.workload +
                "' (workloads: sweep, serve, native)");
  if (kv.count("seed")) o.seed = parse_uint("seed", kv["seed"]);
  if (kv.count("seconds")) {
    o.seconds = double(parse_uint("seconds", kv["seconds"]));
    if (o.seconds < 1 || o.seconds > 60)
      usage_error("--seconds must be within 1..60");
  }
  if (kv.count("trace")) {
    if (kv["trace"] != "0" && kv["trace"] != "1")
      usage_error("--trace expects 0 or 1, got '" + kv["trace"] + "'");
    o.trace = kv["trace"] == "1";
  }
  o.spans_out = kv["spans-out"];
  return o;
}

void print_json(const pb::Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              r.failed == 0 ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", r.metrics[i].name.c_str(),
                r.metrics[i].value, r.metrics[i].unit.c_str());
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const pb::Options o = parse(argc, argv);
  const std::string build_type = NDF_BENCH_BUILD_TYPE;
  if (!kOptimized || kSanitized ||
      (build_type != "Release" && build_type != "RelWithDebInfo"))
    usage_error("refusing to measure a '" + build_type + "' build" +
                (kSanitized ? " with a sanitizer" : "") +
                "; configure with -DCMAKE_BUILD_TYPE=Release");
  try {
    pb::Tracer tr(o.trace);
    pb::Result r = o.workload == "sweep"   ? pb::run_sweep(o, tr)
                   : o.workload == "serve" ? pb::run_serve(o, tr)
                                           : pb::run_native(o, tr);
    std::cout << "build: " << build_type << "\n";
    for (const std::string& c : r.context) std::cout << c << "\n";
    for (const std::string& f : r.check_failures)
      std::cout << "check failed: " << f << "\n";
    if (tr.enabled()) {
      std::cout << "self time by span (s):";
      for (const auto& [name, s] : tr.self_times())
        std::cout << " " << name << "=" << s;
      std::cout << "\n";
      if (!o.spans_out.empty()) tr.write_json(o.spans_out);
    }
    std::cout.flush();
    print_json(r);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ndf_perfbench: %s\n", e.what());
    return 1;
  }
}
