// Linear program in computational form:
//
//   minimize    c^T x
//   subject to  rlo_i <= a_i . x <= rup_i   for every row i
//               lo_j  <= x_j    <= up_j     for every column j
//
// Rows are ranged; an equality row has rlo == rup. Infinities are expressed
// with lp::kInfinity. The Problem is built row-by-row and then finalized
// into an immutable SparseMatrix.
#pragma once

#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "linalg/sparse.hpp"

namespace tvnep::lp {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Column (structural variable) data.
struct Column {
  double lower = 0.0;
  double upper = kInfinity;
  double cost = 0.0;
  std::string name;
};

/// Ranged row data.
struct Row {
  double lower = -kInfinity;
  double upper = kInfinity;
  std::string name;
};

/// Mutable LP container; `finalize()` freezes the constraint matrix.
class Problem {
 public:
  /// Adds a variable; returns its column index.
  int add_column(double lower, double upper, double cost,
                 std::string name = {});

  /// Adds a ranged row with the given sparse coefficients; returns its index.
  /// Coefficient column indices must already exist; duplicates are summed.
  int add_row(double lower, double upper,
              const std::vector<std::pair<int, double>>& coefficients,
              std::string name = {});

  int num_columns() const { return static_cast<int>(columns_.size()); }
  int num_rows() const { return static_cast<int>(rows_.size()); }

  const Column& column(int j) const { return columns_[static_cast<std::size_t>(j)]; }
  const Row& row(int i) const { return rows_[static_cast<std::size_t>(i)]; }

  /// Changes the objective coefficient of column j (allowed any time).
  void set_cost(int j, double cost);

  /// Builds the immutable matrix; must be called before matrix() and after
  /// the last add_row(). Calling it twice is an error.
  void finalize();
  bool finalized() const { return finalized_; }

  const linalg::SparseMatrix& matrix() const;

 private:
  std::vector<Column> columns_;
  std::vector<Row> rows_;
  std::vector<std::tuple<int, int, double>> entries_;  // (row, col, value)
  linalg::SparseMatrix matrix_;
  bool finalized_ = false;
};

}  // namespace tvnep::lp
