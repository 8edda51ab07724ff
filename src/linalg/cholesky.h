// Cholesky factorization for symmetric positive-definite systems.
//
// The island-capacitance matrix C_II of a physical circuit is SPD (it is a
// weighted graph Laplacian plus positive diagonal ground/lead coupling), so
// Cholesky both halves the inversion cost versus LU and acts as a structural
// validity check: a factorization failure means the netlist has a floating
// island with no capacitive path to any fixed potential.
//
// The factor and inverse() keep every output element's floating-point
// operation sequence fixed (see cholesky.cpp), so L and the inverse are
// bitwise identical at every executor width.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"

namespace semsim {

class ParallelExecutor;

class CholeskyDecomposition {
 public:
  /// Factors SPD `a` as L L^T. Throws NumericError if `a` is not positive
  /// definite to working precision.
  ///
  /// `exec`, when given, spreads the factor and inverse() over its threads
  /// with bitwise-identical results. It must outlive this object. Pass it
  /// only from a thread that is not itself running a unit of that executor:
  /// a nested for_each on the same bounded pool deadlocks.
  explicit CholeskyDecomposition(const Matrix& a,
                                 const ParallelExecutor* exec = nullptr);

  std::size_t size() const noexcept { return l_.rows(); }

  std::vector<double> solve(const std::vector<double>& b) const;

  /// A^-1, exactly symmetric (the upper triangle mirrors the lower).
  Matrix inverse() const;

  /// The lower-triangular factor.
  const Matrix& l() const noexcept { return l_; }

 private:
  Matrix l_;
  /// Skyline: first_[i] is the first structural nonzero of row i of `a`.
  /// Row i of L is exactly zero before it.
  std::vector<std::size_t> first_;
  const ParallelExecutor* exec_ = nullptr;
};

/// Convenience: true when `a` is SPD (factorization succeeds).
bool is_positive_definite(const Matrix& a);

}  // namespace semsim
