#include "lp/problem.hpp"

#include "support/check.hpp"

namespace tvnep::lp {

int Problem::add_column(double lower, double upper, double cost,
                        std::string name) {
  TVNEP_REQUIRE(!finalized_, "add_column after finalize");
  TVNEP_REQUIRE(lower <= upper, "column bounds crossed: " + name);
  columns_.push_back({lower, upper, cost, std::move(name)});
  return num_columns() - 1;
}

int Problem::add_row(double lower, double upper,
                     const std::vector<std::pair<int, double>>& coefficients,
                     std::string name) {
  TVNEP_REQUIRE(!finalized_, "add_row after finalize");
  TVNEP_REQUIRE(lower <= upper, "row bounds crossed: " + name);
  const int row_index = num_rows();
  rows_.push_back({lower, upper, std::move(name)});
  for (const auto& [col, value] : coefficients) {
    TVNEP_REQUIRE(col >= 0 && col < num_columns(),
                  "row references unknown column");
    if (value != 0.0) entries_.emplace_back(row_index, col, value);
  }
  return row_index;
}

void Problem::set_cost(int j, double cost) {
  TVNEP_REQUIRE(j >= 0 && j < num_columns(), "set_cost: bad column");
  columns_[static_cast<std::size_t>(j)].cost = cost;
}

void Problem::finalize() {
  TVNEP_REQUIRE(!finalized_, "finalize called twice");
  linalg::SparseBuilder builder(num_rows(), num_columns());
  for (const auto& [row, col, value] : entries_) builder.add(row, col, value);
  matrix_ = linalg::SparseMatrix(builder);
  entries_.clear();
  entries_.shrink_to_fit();
  finalized_ = true;
}

const linalg::SparseMatrix& Problem::matrix() const {
  TVNEP_REQUIRE(finalized_, "matrix() before finalize()");
  return matrix_;
}

}  // namespace tvnep::lp
