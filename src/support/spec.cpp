#include "support/spec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "support/check.hpp"

namespace ndf::spec {

std::vector<std::string> split(const std::string& list, char sep) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= list.size()) {
    std::size_t end = list.find(sep, begin);
    if (end == std::string::npos) end = list.size();
    if (end > begin) out.push_back(list.substr(begin, end - begin));
    begin = end + 1;
  }
  return out;
}

std::optional<std::uint64_t> to_uint(std::string_view text) {
  // from_chars takes no sign or whitespace for an unsigned type, and
  // reports overflow instead of saturating.
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

std::optional<double> to_real(std::string_view text) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v))
    return std::nullopt;
  return v;
}

// Shortest decimal that round-trips to the exact double — keeps the JSON
// deterministic, the golden fixtures readable and spec labels exact. The
// shortest round-trip scientific form fixes the digit count k: no
// `%.<p>g` with p < k can read back as `v`. `%.<k>g` rounds to nearest
// where the shortest form may not, so p steps up from k until the
// `%g`-style form round-trips.
void write_real(std::ostream& os, double v) {
  char buf[40];
  if (!std::isfinite(v)) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << buf;
    return;
  }
  const std::to_chars_result sci =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::scientific);
  int digits = 0;
  for (const char* c = buf; c != sci.ptr && *c != 'e'; ++c)
    digits += *c >= '0' && *c <= '9';
  for (int prec = digits;; ++prec) {
    const std::to_chars_result out = std::to_chars(
        buf, buf + sizeof buf, v, std::chars_format::general, prec);
    double back = 0.0;
    std::from_chars(buf, out.ptr, back);
    if (back == v || prec >= 17) {
      os.write(buf, out.ptr - buf);
      return;
    }
  }
}

Params::Params(std::string text, std::string noun, const char* flag)
    : text_(std::move(text)), noun_(std::move(noun)) {
  const auto colon = text_.find(':');
  head_ = text_.substr(0, colon);
  parametric_ = colon != std::string::npos;
  if (!parametric_) return;
  for (const std::string& item : split(text_.substr(colon + 1), ',')) {
    const auto eq = item.find('=');
    std::string key = item, val = "1";
    if (!(flag && item == flag)) {
      if (eq == std::string::npos || eq == 0)
        fail("bad ", item,
             flag ? " (want key=value or " + std::string(flag) + ")"
                  : " (want key=value)");
      key = item.substr(0, eq);
      val = item.substr(eq + 1);
    }
    // "n=4,n=8" silently taking the last value is exactly the typo that
    // produces a plausible-looking wrong sweep.
    if (has(key)) fail("duplicate ", key, "");
    items_.emplace_back(std::move(key), std::move(val));
  }
}

const std::string* Params::find(const std::string& key) const {
  for (const auto& [k, v] : items_)
    if (k == key) return &v;
  return nullptr;
}

void Params::allow(const std::vector<std::string>& valid) const {
  for (const auto& [key, val] : items_) {
    if (std::find(valid.begin(), valid.end(), key) != valid.end()) continue;
    std::string list;
    for (const std::string& k : valid) list += (list.empty() ? "" : ", ") + k;
    fail("unknown ", key, " (valid: " + list + ")");
  }
}

std::string Params::word(const std::string& key,
                         const std::string& dflt) const {
  const std::string* v = find(key);
  return v ? *v : dflt;
}

std::uint64_t Params::integer(const std::string& key, std::uint64_t dflt,
                              std::uint64_t lo, std::uint64_t hi) const {
  const std::string* v = find(key);
  if (!v) return dflt;
  const std::optional<std::uint64_t> x = to_uint(*v);
  if (!x || *x < lo || *x > hi) {
    const std::string range = hi == kNoMax
                                  ? ">= " + std::to_string(lo)
                                  : "in [" + std::to_string(lo) + ", " +
                                        std::to_string(hi) + "]";
    fail("", key, " is not an integer " + range + ": " + *v);
  }
  return *x;
}

double Params::real(const std::string& key, double dflt,
                    bool positive) const {
  const std::string* v = find(key);
  if (!v) return dflt;
  const std::optional<double> x = to_real(*v);
  if (!x || *x < 0.0 || (positive && *x == 0.0))
    fail("", key, std::string(" is not a finite number ") +
                      (positive ? "> 0: " : ">= 0: ") + *v);
  return *x;
}

void Params::fail(const char* what, const std::string& key,
                  const std::string& why) const {
  detail::check_fail("spec", __FILE__, __LINE__,
                     what + noun_ + " parameter '" + key + "' in '" + text_ +
                         "'" + why);
}

}  // namespace ndf::spec
