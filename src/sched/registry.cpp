#include "sched/registry.hpp"

#include <algorithm>
#include <map>

#include "support/spec.hpp"

namespace ndf {

namespace detail {
// Defined in the policy translation units. Called eagerly on first registry
// access so a static-library build cannot drop a policy whose object file
// nothing else references.
void register_sb_scheduler();
void register_ws_scheduler();
void register_greedy_scheduler();
void register_serial_scheduler();
}  // namespace detail

namespace {

struct Entry {
  std::string description;
  SchedulerFactory factory;
  bool deadline_aware = false;
  bool seeded = true;
};

std::map<std::string, Entry>& table() {
  static std::map<std::string, Entry> t;
  return t;
}

void ensure_builtins() {
  static const bool once = [] {
    detail::register_sb_scheduler();
    detail::register_ws_scheduler();
    detail::register_greedy_scheduler();
    detail::register_serial_scheduler();
    return true;
  }();
  (void)once;
}

// Safe to call from any error path: registers the builtins itself, so an
// unknown-policy message always lists what is actually available instead of
// whatever happened to be registered at the time.
std::string known_names() {
  ensure_builtins();
  const std::string s = spec::names(table());
  return s.empty() ? "<none>" : s;
}

const Entry& entry_of(const std::string& name) {
  ensure_builtins();
  const auto it = table().find(name);
  NDF_CHECK_MSG(it != table().end(), "unknown scheduler '"
                                         << name << "' (registered: "
                                         << known_names() << ")");
  return it->second;
}

}  // namespace

bool register_scheduler(const std::string& name,
                        const std::string& description,
                        SchedulerFactory factory,
                        bool deadline_aware, bool seeded) {
  NDF_CHECK_MSG(!name.empty() && factory, "bad scheduler registration");
  return table()
      .emplace(name, Entry{description, std::move(factory), deadline_aware,
                           seeded})
      .second;
}

bool scheduler_registered(const std::string& name) {
  ensure_builtins();
  return table().count(name) > 0;
}

bool scheduler_deadline_aware(const std::string& name) {
  return entry_of(name).deadline_aware;
}

bool scheduler_seeded(const std::string& name) {
  return entry_of(name).seeded;
}

std::vector<SchedulerInfo> registered_schedulers() {
  ensure_builtins();
  std::vector<SchedulerInfo> out;
  for (const auto& [name, entry] : table())
    out.push_back(
        {name, entry.description, entry.deadline_aware, entry.seeded});
  return out;  // std::map iterates sorted by name
}

std::unique_ptr<Scheduler> make_scheduler(const std::string& name,
                                          const SchedOptions& opts) {
  return entry_of(name).factory(opts);
}

SchedStats run_scheduler(const std::string& name, const StrandGraph& g,
                         const Pmh& machine, const SchedOptions& opts) {
  const auto policy = make_scheduler(name, opts);
  const CondensedDag dag(g, level_cache_sizes(machine), opts.sigma);
  SimCore core(dag, machine, opts);
  return core.run(*policy);
}

std::vector<std::string> parse_sched_list(const std::string& csv) {
  std::vector<std::string> out;
  for (const std::string& item : spec::split(csv, ',')) {
    NDF_CHECK_MSG(scheduler_registered(item),
                  "unknown scheduler '" << item << "' in --sched list "
                                        << "(registered: " << known_names()
                                        << ")");
    if (std::find(out.begin(), out.end(), item) == out.end())
      out.push_back(item);
  }
  return out;
}

}  // namespace ndf
