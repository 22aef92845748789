// Memory-footprint descriptors for strands.
//
// Builders that bind real matrix blocks to strands also record the byte
// ranges each strand reads and writes. Tests use these to verify the
// determinacy invariant of an elaborated DAG: any two strands with
// conflicting accesses (W∩W or W∩R) must be ordered by a dependence path —
// i.e. the fire rules expressed every true data dependency.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace ndf {

template <typename T>
class MatrixView;

/// Half-open range of addresses [lo, hi).
struct MemSegment {
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;

  bool overlaps(const MemSegment& o) const { return lo < o.hi && o.lo < hi; }
};

/// True if any segment of `a` overlaps any segment of `b`.
inline bool segments_overlap(std::span<const MemSegment> a,
                             std::span<const MemSegment> b) {
  for (const auto& x : a)
    for (const auto& y : b)
      if (x.overlaps(y)) return true;
  return false;
}

/// Row-wise segments covered by a (possibly strided) matrix view.
template <typename T>
std::vector<MemSegment> segments_of(const MatrixView<T>& v) {
  std::vector<MemSegment> segs;
  segs.reserve(v.rows());
  for (std::size_t r = 0; r < v.rows(); ++r) {
    const T* row = &v(r, 0);
    segs.push_back(MemSegment{reinterpret_cast<std::uintptr_t>(row),
                              reinterpret_cast<std::uintptr_t>(row + v.cols())});
  }
  return segs;
}

}  // namespace ndf
