// Pedigrees: positions of nested subtasks in a spawn tree, following the
// circled-number notation of the paper (Sec. 2). A pedigree is a sequence of
// 1-based child indices relative to an (implicit) ancestor; e.g. the paper's
// "+(2)(1)" is Pedigree{2, 1} relative to the source of a fire construct.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "support/check.hpp"

namespace ndf {

/// A relative pedigree: 1-based child indices from an ancestor downward.
class Pedigree {
 public:
  Pedigree() = default;
  Pedigree(std::initializer_list<std::uint16_t> ix) : ix_(ix) {
    for (auto i : ix_) NDF_CHECK_MSG(i >= 1, "pedigree indices are 1-based");
  }
  /// Dynamic-length form for programmatically built rule tables (the
  /// synthetic workload generator samples pedigrees at runtime).
  explicit Pedigree(std::vector<std::uint16_t> ix) : ix_(std::move(ix)) {
    for (auto i : ix_) NDF_CHECK_MSG(i >= 1, "pedigree indices are 1-based");
  }

  std::size_t depth() const { return ix_.size(); }
  bool empty() const { return ix_.empty(); }
  std::uint16_t operator[](std::size_t i) const { return ix_[i]; }

  auto begin() const { return ix_.begin(); }
  auto end() const { return ix_.end(); }

  friend bool operator==(const Pedigree& a, const Pedigree& b) {
    return a.ix_ == b.ix_;
  }

  /// Rendered like the paper: "(2)(1)".
  std::string to_string() const {
    std::string s;
    for (auto i : ix_) {
      s += '(';
      s += std::to_string(int(i));
      s += ')';
    }
    return s;
  }

 private:
  std::vector<std::uint16_t> ix_;
};

}  // namespace ndf
