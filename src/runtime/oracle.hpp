// Differential execution oracle for the native runtime: instruments every
// strand body of a spawn tree with atomic epoch stamps (a global
// fetch-add clock) and run counters, so a test can assert — for any
// executor schedule — that
//
//   1. every strand ran exactly once, and
//   2. every task-level dependence arrow was respected: all strands of the
//      arrow's source subtree stamped their end epoch before any strand of
//      the sink subtree stamped its start epoch.
//
// The oracle wraps the existing bodies (the original body still runs
// between the stamps), so it composes with real-data kernels and with
// structure-only trees alike, and it records which executor worker ran
// each strand (runtime/executor.hpp's current_worker()) so sb-mode tests
// can additionally assert anchor-group confinement.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "nd/graph.hpp"
#include "nd/spawn_tree.hpp"

namespace ndf {

class ExecutionOracle {
 public:
  /// Wraps every strand body under the tree's root. The oracle must
  /// outlive every execution of the tree.
  explicit ExecutionOracle(SpawnTree& tree);

  ExecutionOracle(const ExecutionOracle&) = delete;
  ExecutionOracle& operator=(const ExecutionOracle&) = delete;

  /// Clears all stamps and counters for the next run.
  void reset();

  std::size_t num_strands() const { return strands_.size(); }
  /// Times strand `n` ran since the last reset.
  int runs(NodeId n) const { return rec_[index_of(n)].runs.load(); }
  /// Executor worker that ran strand `n` (SIZE_MAX for execute_serial or
  /// a strand that never ran).
  std::size_t worker(NodeId n) const { return rec_[index_of(n)].worker; }

  /// Checks exactly-once and every arrow's ordering against the elaborated
  /// graph (which must come from the same tree). Returns human-readable
  /// violations; empty means the run was consistent.
  std::vector<std::string> verify(const StrandGraph& g) const;

 private:
  struct Record {
    std::atomic<int> runs{0};
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::size_t worker = static_cast<std::size_t>(-1);
  };

  std::size_t index_of(NodeId n) const;

  SpawnTree* tree_;
  std::vector<NodeId> strands_;        ///< instrumented strand ids
  std::vector<std::size_t> index_;     ///< NodeId → record index (or npos)
  std::vector<Record> rec_;
  std::atomic<std::uint64_t> clock_{1};  ///< 0 = "never stamped"
};

}  // namespace ndf
