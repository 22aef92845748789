#include "runtime/workbody.hpp"

#include <algorithm>
#include <chrono>

namespace ndf {

void spin_work(std::uint64_t iters) {
  volatile std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < iters; ++i) sink = sink + i;
}

std::size_t attach_spin_bodies(SpawnTree& tree, double spins_per_work) {
  std::size_t attached = 0;
  for (NodeId n : tree.strands_under(tree.root())) {
    if (tree.body(n)) continue;
    const std::uint64_t iters = static_cast<std::uint64_t>(
        std::max(1.0, tree.node(n).work * spins_per_work));
    tree.set_body(n, [iters] { spin_work(iters); });
    ++attached;
  }
  return attached;
}

double spin_rate_per_second() {
  // Warm up, then time a block big enough to dwarf clock granularity.
  spin_work(100000);
  const std::uint64_t iters = 5000000;
  const auto t0 = std::chrono::steady_clock::now();
  spin_work(iters);
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return s > 0 ? double(iters) / s : 1e9;
}

}  // namespace ndf
