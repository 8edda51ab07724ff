#include "linalg/cholesky.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "base/error.h"
#include "base/thread_pool.h"

namespace semsim {
namespace {

// Order contract. Every element of L, W = L^-1 and A^-1 is one fixed
// sequence of IEEE operations: that of the textbook column-by-column loops,
// terms in ascending k. The kernels below change only *which* element is
// computed when (across threads, or as one lane of a vector update), never
// the terms within one element. The only terms they skip are products with
// an entry of L's zero prefix (before the row's skyline). That entry is an
// exact +0.0, so each skipped term is a +-0.0 that would come first, while
// the sum is still +0.0 or a C_II entry (C_II has no negative zeros), and
// it would leave the sum's bits alone. Without FMA contraction (the default
// x86-64 target has no FMA) the results are therefore bitwise identical to
// the plain serial loops at every thread count.

/// Columns of W per parallel strip: long enough vector updates, yet small
/// enough that the first strip (the most work) balances across threads.
constexpr std::size_t kStrip = 64;

/// Rows of A^-1 per task: each W row a task streams serves all of them.
constexpr std::size_t kRowBlock = 8;

/// Multiply-adds below which a factor column runs inline: the pool's
/// dispatch costs more than the column.
constexpr std::size_t kMinParallelColumnWork = 1 << 15;

void run_tasks(const ParallelExecutor* exec, std::size_t tasks,
               const std::function<void(std::size_t)>& fn) {
  if (exec != nullptr) return exec->for_each(tasks, fn);
  for (std::size_t t = 0; t < tasks; ++t) fn(t);
}

}  // namespace

CholeskyDecomposition::CholeskyDecomposition(const Matrix& a,
                                             const ParallelExecutor* exec)
    : l_(a.rows(), a.cols()), first_(a.rows()), exec_(exec) {
  require(a.rows() == a.cols(), "Cholesky: matrix must be square");
  const std::size_t n = a.rows();
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t k = 0;
    while (k < i && a(i, k) == 0.0) ++k;
    first_[i] = k;
  }

  // Column j: its pivot, then every row i > j whose skyline reaches j
  // (rows starting later stay exact zeros). The rows are independent.
  for (std::size_t j = 0; j < n; ++j) {
    const double* lrow_j = l_.row_data(j);
    double diag = a(j, j);
    for (std::size_t k = first_[j]; k < j; ++k) diag -= lrow_j[k] * lrow_j[k];
    // Relative pivot test: a pivot that cancels to rounding noise means the
    // matrix is singular in exact arithmetic (e.g. a group of islands with
    // no capacitive path to any fixed potential).
    if (!(diag > a(j, j) * 1e-12)) {
      throw NumericError(
          ErrorCode::kNotPositiveDefinite,
          "Cholesky: matrix not positive definite at pivot " +
          std::to_string(j) +
          " (circuit likely has an island with no capacitive path to a "
          "fixed potential)");
    }
    const double ljj = std::sqrt(diag);
    l_(j, j) = ljj;
    const double inv_ljj = 1.0 / ljj;
    const std::size_t below = n - j - 1;
    const std::size_t tasks =
        exec_ != nullptr && below * (j - first_[j]) >= kMinParallelColumnWork
            ? std::min<std::size_t>(below, 4 * exec_->threads())
            : 1;
    run_tasks(exec_, tasks, [&](std::size_t t) {
      for (std::size_t i = j + 1 + t * below / tasks;
           i < j + 1 + (t + 1) * below / tasks; ++i) {
        if (first_[i] > j) continue;
        double v = a(i, j);
        const double* lrow_i = l_.row_data(i);
        for (std::size_t k = std::max(first_[i], first_[j]); k < j; ++k) {
          v -= lrow_i[k] * lrow_j[k];
        }
        l_(i, j) = v * inv_ljj;
      }
    });
  }
}

std::vector<double> CholeskyDecomposition::solve(
    const std::vector<double>& b) const {
  require(b.size() == size(), "Cholesky::solve: size mismatch");
  const std::size_t n = size();
  std::vector<double> x = b;
  // L y = b
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = l_.row_data(i);
    double acc = x[i];
    for (std::size_t j = 0; j < i; ++j) acc -= row[j] * x[j];
    x[i] = acc / row[i];
  }
  // L^T x = y
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= l_(j, ii) * x[j];
    x[ii] = acc / l_(ii, ii);
  }
  return x;
}

Matrix CholeskyDecomposition::inverse() const {
  // A^-1 = W^T W with W = L^-1, in two triangular passes (~n^3/3 flops).
  // This dominates circuit setup for the multi-thousand-island logic
  // benchmarks.
  const std::size_t n = size();

  // Pass 1: W(i, j) = -(sum_{k=j}^{i-1} L(i, k) W(k, j)) / L(i, i) and
  // W(i, i) = 1 / L(i, i), row by row within a strip of columns: row i adds
  // L(i, k) * W(k, j0..k) for k ascending, a contiguous vector update in
  // which column j sees exactly its terms k >= j in order. A strip reads
  // only its own columns, so strips run in parallel.
  Matrix w(n, n);
  run_tasks(exec_, (n + kStrip - 1) / kStrip, [&](std::size_t s) {
    const std::size_t j0 = s * kStrip;
    const std::size_t j1 = std::min(n, j0 + kStrip);
    for (std::size_t i = j0; i < n; ++i) {
      const double* lrow = l_.row_data(i);
      double* wrow = w.row_data(i);
      for (std::size_t k = std::max(first_[i], j0); k < i; ++k) {
        const double lik = lrow[k];
        const double* wk = w.row_data(k);
        const std::size_t j_end = std::min(j1, k + 1);
        for (std::size_t j = j0; j < j_end; ++j) wrow[j] += lik * wk[j];
      }
      for (std::size_t j = j0; j < std::min(j1, i); ++j) {
        wrow[j] = -wrow[j] / lrow[i];
      }
      if (i < j1) wrow[i] = 1.0 / lrow[i];
    }
  });

  // Pass 2: lower triangle of A^-1, row by row. Row i accumulates the
  // rank-1 terms W(k, i) * W(k, 0..i) for k ascending from i, skipping
  // W(k, i) == 0 (a contiguous, vectorizable update).
  Matrix inv(n, n);
  run_tasks(exec_, (n + kRowBlock - 1) / kRowBlock, [&](std::size_t b) {
    const std::size_t i0 = b * kRowBlock;
    const std::size_t i1 = std::min(n, i0 + kRowBlock);
    for (std::size_t k = i0; k < n; ++k) {
      const double* wrow = w.row_data(k);
      for (std::size_t i = i0; i < std::min(i1, k + 1); ++i) {
        const double wi = wrow[i];
        if (wi == 0.0) continue;
        double* out = inv.row_data(i);
        for (std::size_t j = 0; j <= i; ++j) out[j] += wi * wrow[j];
      }
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) inv(j, i) = inv(i, j);
  }
  return inv;
}

bool is_positive_definite(const Matrix& a) {
  if (a.rows() != a.cols()) return false;
  try {
    CholeskyDecomposition chol(a);
    return true;
  } catch (const NumericError&) {
    return false;
  }
}

}  // namespace semsim
