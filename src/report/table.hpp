// Small fixed-width text table used by the benchmark harnesses and the CLI
// to print paper-style tables for people. Machine-readable rows go through
// report::RowWriter (sink.hpp) instead.
#pragma once

#include <string>
#include <vector>

namespace laec::report {

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  Table& add_row(std::vector<std::string> cells);

  [[nodiscard]] std::string to_text() const;

  [[nodiscard]] std::size_t num_rows() const { return rows_.size(); }

  /// Format a double with `prec` decimals.
  [[nodiscard]] static std::string num(double v, int prec = 2);
  /// Format a ratio as a percentage string, e.g. 0.173 -> "17.3%".
  [[nodiscard]] static std::string pct(double ratio, int prec = 1);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace laec::report
