#include "support/table.hpp"

#include <cstdio>
#include <ostream>
#include <sstream>

#include "support/check.hpp"

namespace ndf {

namespace {
std::string cell_to_string(const Cell& c) {
  if (const auto* s = std::get_if<std::string>(&c)) return *s;
  if (const auto* i = std::get_if<long long>(&c)) return std::to_string(*i);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4g", std::get<double>(c));
  return buf;
}
}  // namespace

void Table::set_header(std::vector<std::string> header) {
  header_ = std::move(header);
}

void Table::add_row(std::vector<Cell> row) {
  NDF_CHECK_MSG(header_.empty() || row.size() == header_.size(),
                "row width " << row.size() << " != header width "
                             << header_.size());
  rows_.push_back(std::move(row));
}

std::string Table::to_string() const {
  std::vector<std::vector<std::string>> grid;
  if (!header_.empty()) grid.push_back(header_);
  for (const auto& row : rows_) {
    std::vector<std::string> r;
    r.reserve(row.size());
    for (const auto& c : row) r.push_back(cell_to_string(c));
    grid.push_back(std::move(r));
  }

  std::vector<std::size_t> width;
  for (const auto& r : grid) {
    if (width.size() < r.size()) width.resize(r.size(), 0);
    for (std::size_t i = 0; i < r.size(); ++i)
      width[i] = std::max(width[i], r[i].size());
  }

  std::ostringstream os;
  if (!title_.empty()) os << "== " << title_ << " ==\n";
  for (std::size_t ri = 0; ri < grid.size(); ++ri) {
    const auto& r = grid[ri];
    for (std::size_t i = 0; i < r.size(); ++i) {
      os << r[i];
      if (i + 1 < r.size())
        os << std::string(width[i] - r[i].size() + 2, ' ');
    }
    os << '\n';
    if (ri == 0 && !header_.empty()) {
      std::size_t total = 0;
      for (std::size_t i = 0; i < width.size(); ++i)
        total += width[i] + (i + 1 < width.size() ? 2 : 0);
      os << std::string(total, '-') << '\n';
    }
  }
  return os.str();
}

void Table::print(std::ostream& os) const { os << to_string(); }

void print_heading(std::ostream& os, const std::string& id,
                   const std::string& claim) {
  os << "\n=== " << id << " ===\n" << claim << "\n\n";
}

}  // namespace ndf
