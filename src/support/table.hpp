// Console table printer used by the benchmark harness so every experiment
// prints the same aligned rows/series the paper's claims describe.
#pragma once

#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace ndf {

/// A table cell: string, integer or double (doubles printed with %.4g).
using Cell = std::variant<std::string, long long, double>;

/// Column-aligned text table with an optional title.
class Table {
 public:
  explicit Table(std::string title = "") : title_(std::move(title)) {}

  void set_header(std::vector<std::string> header);
  void add_row(std::vector<Cell> row);

  /// Renders with padded columns (CSV is support/report.hpp's job).
  std::string to_string() const;

  void print(std::ostream& os) const;

  // Structured access (used by the bench harness's JSON mirror).
  const std::string& title() const { return title_; }
  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::vector<Cell>>& rows() const { return rows_; }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<Cell>> rows_;
};

/// An experiment's heading: `=== <id> ===` and its claim, set off by
/// blank lines.
void print_heading(std::ostream& os, const std::string& id,
                   const std::string& claim);

}  // namespace ndf
