// The one grammar of the spec strings that name an experiment's
// parameters (workloads and gen: DAGs, machines, cache models, arrival
// streams) and of the `;`/`,` lists that carry them; README "Spec grammar"
// states it for users. A spec is `<head>[:<key>=<value>,...]`, plus the
// one bare flag a caller may name (`np`, read as np=1). Every rejection
// names the full spec: "<noun> parameter '<key>' in '<spec>' ...".
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ndf::spec {

/// The upper bound of an integer key that takes any 64-bit value.
inline constexpr std::uint64_t kNoMax =
    std::numeric_limits<std::uint64_t>::max();

/// Splits a `sep`-separated list (`;` between specs, `,` inside a policy
/// or number list), skipping empty items.
std::vector<std::string> split(const std::string& list, char sep);

/// `text` as an unsigned decimal integer: digits only, within 64 bits.
std::optional<std::uint64_t> to_uint(std::string_view text);

/// `text` as a finite real in from_chars' general form (no '+', no
/// whitespace, no hex, no inf or nan); nullopt outside a double's range.
std::optional<double> to_real(std::string_view text);

/// The keys of a name-keyed table, ", "-separated: the list a rejection
/// of an unknown name prints.
template <typename Map>
std::string names(const Map& table) {
  std::string s;
  for (const auto& entry : table) s += (s.empty() ? "" : ", ") + entry.first;
  return s;
}

/// Writes `v` as the shortest `%.<p>g` form (smallest precision p) that
/// reads back as exactly `v`: the number format of spec labels and of the
/// trace exporters. Non-finite values print as `%.17g` does.
void write_real(std::ostream& os, double v);

/// One parsed `<head>[:<items>]` spec. Construction throws CheckError on
/// an item that is neither key=value nor the flag, and on a repeated key;
/// the getters range-check values and throw naming the spec.
class Params {
 public:
  /// `noun` words the rejections ("machine" gives "machine parameter 'p'
  /// in ..."); `flag`, when set, is a bare item that reads as `<flag>=1`.
  Params(std::string text, std::string noun, const char* flag = nullptr);

  const std::string& text() const { return text_; }
  const std::string& head() const { return head_; }
  /// True when the spec has a ':' (a parametric form, even with no items).
  bool parametric() const { return parametric_; }
  /// key=value items in input order.
  const std::vector<std::pair<std::string, std::string>>& items() const {
    return items_;
  }

  /// Throws on the first key not in `valid`, listing them in that order.
  void allow(const std::vector<std::string>& valid) const;

  bool has(const std::string& key) const { return find(key) != nullptr; }
  /// The raw value of `key`, or `dflt` when absent.
  std::string word(const std::string& key, const std::string& dflt) const;
  /// An integer in [lo, hi]; `dflt` when absent.
  std::uint64_t integer(const std::string& key, std::uint64_t dflt,
                        std::uint64_t lo = 0, std::uint64_t hi = kNoMax) const;
  /// A finite real >= 0, or > 0 when `positive`; `dflt` when absent.
  double real(const std::string& key, double dflt,
              bool positive = false) const;

 private:
  const std::string* find(const std::string& key) const;
  /// Throws "<what><noun> parameter '<key>' in '<spec>'<why>".
  [[noreturn]] void fail(const char* what, const std::string& key,
                         const std::string& why) const;

  std::string text_;
  std::string noun_;
  std::string head_;
  bool parametric_ = false;
  std::vector<std::pair<std::string, std::string>> items_;
};

}  // namespace ndf::spec
