#include "runtime/oracle.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "runtime/executor.hpp"

namespace ndf {

ExecutionOracle::ExecutionOracle(SpawnTree& tree) : tree_(&tree) {
  strands_ = tree.strands_under(tree.root());
  index_.assign(tree.num_nodes(), static_cast<std::size_t>(-1));
  rec_ = std::vector<Record>(strands_.size());
  for (std::size_t i = 0; i < strands_.size(); ++i) {
    const NodeId n = strands_[i];
    index_[n] = i;
    // The wrapper stamps start, runs the original payload, then stamps
    // end — so the [start, end] window covers the real body and the
    // arrow-ordering check below is sound for data races too.
    tree.set_body(n, [this, i, orig = tree.body(n)] {
      Record& r = rec_[i];
      r.start = clock_.fetch_add(1, std::memory_order_acq_rel);
      r.worker = current_worker();
      r.runs.fetch_add(1, std::memory_order_acq_rel);
      if (orig) orig();
      r.end = clock_.fetch_add(1, std::memory_order_acq_rel);
    });
  }
}

void ExecutionOracle::reset() {
  for (Record& r : rec_) {
    r.runs.store(0);
    r.start = r.end = 0;
    r.worker = static_cast<std::size_t>(-1);
  }
  clock_.store(1);
}

std::size_t ExecutionOracle::index_of(NodeId n) const {
  NDF_CHECK_MSG(n < index_.size() &&
                    index_[n] != static_cast<std::size_t>(-1),
                "node " << n << " is not an instrumented strand");
  return index_[n];
}

std::vector<std::string> ExecutionOracle::verify(const StrandGraph& g) const {
  std::vector<std::string> bad;
  for (std::size_t i = 0; i < strands_.size(); ++i) {
    const int n = rec_[i].runs.load();
    if (n != 1) {
      std::ostringstream os;
      os << "strand " << strands_[i] << " ran " << n << " times (want 1)";
      bad.push_back(os.str());
    }
  }
  // Arrow ordering: source subtree fully stamped-out before sink subtree
  // stamped-in. strands_under is left-to-right; epochs are global.
  for (const TaskArrow& a : g.arrows()) {
    std::uint64_t src_end = 0;
    std::uint64_t dst_start = ~0ULL;
    for (NodeId s : tree_->strands_under(a.from))
      src_end = std::max(src_end, rec_[index_of(s)].end);
    for (NodeId s : tree_->strands_under(a.to))
      dst_start = std::min(dst_start, rec_[index_of(s)].start);
    if (src_end >= dst_start) {
      std::ostringstream os;
      os << "arrow " << a.from << "->" << a.to
         << " violated: source end epoch " << src_end
         << " >= sink start epoch " << dst_start;
      bad.push_back(os.str());
    }
  }
  return bad;
}

}  // namespace ndf
