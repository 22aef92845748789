// String-keyed scheduler-policy registry: every policy registers a factory
// under a short name ("sb", "ws", "greedy", "serial"), and benches, tests
// and examples select policies with `--sched=<name>[,<name>...]`. Adding a
// policy is one file: implement Scheduler, define a registration function,
// and list it among the builtins in registry.cpp (external code can also
// call register_scheduler directly before first use).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sched/sim_core.hpp"

namespace ndf {

using SchedulerFactory =
    std::function<std::unique_ptr<Scheduler>(const SchedOptions&)>;

struct SchedulerInfo {
  std::string name;
  std::string description;
  /// Deadline-aware policies get EDF-over-jobs admission in the service
  /// mode (src/serve/): queued jobs are admitted earliest-absolute-deadline
  /// first instead of in arrival order. Batch (single-DAG) behavior is
  /// whatever the policy's unit-level discipline is.
  bool deadline_aware = false;
  /// True when the policy's runs depend on SchedOptions::seed. A policy
  /// that declares false promises that two runs differing only in the seed
  /// produce identical stats and event streams, so the sweep simulates its
  /// cells once per repeat axis and gives every repeat row that run's
  /// stats (exp/scenario.hpp, plan_runs). Defaults to true: a policy that
  /// does not say is never deduplicated.
  bool seeded = true;
};

/// Registers a policy factory. Returns false (and keeps the existing entry)
/// if the name is taken. `deadline_aware` marks the policy for EDF-over-jobs
/// admission in service mode and `seeded` says whether its runs read the
/// seed (see SchedulerInfo).
bool register_scheduler(const std::string& name,
                        const std::string& description,
                        SchedulerFactory factory,
                        bool deadline_aware = false, bool seeded = true);

bool scheduler_registered(const std::string& name);

/// True when the named, registered policy asked for deadline-aware (EDF)
/// job admission in service mode. Throws CheckError on unknown names.
bool scheduler_deadline_aware(const std::string& name);

/// True when the named, registered policy's runs depend on the seed (see
/// SchedulerInfo::seeded). Throws CheckError on unknown names.
bool scheduler_seeded(const std::string& name);

/// All registered policies, sorted by name.
std::vector<SchedulerInfo> registered_schedulers();

/// Instantiates a registered policy. Throws CheckError on unknown names
/// (the message lists what is registered).
std::unique_ptr<Scheduler> make_scheduler(const std::string& name,
                                          const SchedOptions& opts);

/// One-shot convenience: build the policy, simulate `g` over `machine`.
SchedStats run_scheduler(const std::string& name, const StrandGraph& g,
                         const Pmh& machine, const SchedOptions& opts = {});

/// Parses a comma-separated `--sched=` list ("sb,ws,greedy"), validating
/// every name against the registry. Empty input yields an empty list.
std::vector<std::string> parse_sched_list(const std::string& csv);

}  // namespace ndf
