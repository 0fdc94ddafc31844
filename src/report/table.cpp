#include "report/table.hpp"

#include <algorithm>
#include <cassert>
#include <iomanip>
#include <sstream>

namespace laec::report {

Table& Table::add_row(std::vector<std::string> cells) {
  assert(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
  return *this;
}

std::string Table::to_text() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(width[c]) + 2) << cells[c];
    }
    os << "\n";
  };
  emit(headers_);
  std::string rule;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    rule += std::string(width[c], '-') + "  ";
  }
  os << rule << "\n";
  for (const auto& row : rows_) emit(row);
  return os.str();
}

std::string Table::num(double v, int prec) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(prec) << v;
  return os.str();
}

std::string Table::pct(double ratio, int prec) {
  return num(ratio * 100.0, prec) + "%";
}

}  // namespace laec::report
