// Unit and property tests for the dense linear-algebra substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <string>

#include "base/error.h"
#include "base/random.h"
#include "base/thread_pool.h"
#include "linalg/cholesky.h"
#include "linalg/lu.h"
#include "linalg/matrix.h"
#include "logic/benchmarks.h"
#include "logic/elaborate.h"
#include "logic/random_logic.h"
#include "netlist/electrostatics.h"

namespace semsim {
namespace {

Matrix random_matrix(std::size_t n, Xoshiro256& rng) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) m(i, j) = 2.0 * rng.uniform01() - 1.0;
  return m;
}

// Random SPD matrix: A = B B^T + n * I.
Matrix random_spd(std::size_t n, Xoshiro256& rng) {
  const Matrix b = random_matrix(n, rng);
  Matrix a = b.multiply(b.transposed());
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

TEST(Matrix, InitializerListAndAccess) {
  const Matrix m = {{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
  EXPECT_THROW(m.at(2, 0), Error);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), Error);
}

TEST(Matrix, MultiplyVector) {
  const Matrix m = {{1.0, 2.0}, {3.0, 4.0}};
  const auto y = m.multiply(std::vector<double>{1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
  EXPECT_THROW(m.multiply(std::vector<double>{1.0}), Error);
}

TEST(Matrix, MultiplyMatrixAgainstIdentity) {
  Xoshiro256 rng(1);
  const Matrix a = random_matrix(5, rng);
  const Matrix i = Matrix::identity(5);
  EXPECT_LT(a.multiply(i).max_abs_diff(a), 1e-15);
  EXPECT_LT(i.multiply(a).max_abs_diff(a), 1e-15);
}

TEST(Matrix, TransposeInvolution) {
  Xoshiro256 rng(2);
  const Matrix a = random_matrix(4, rng);
  EXPECT_LT(a.transposed().transposed().max_abs_diff(a), 1e-16);
}

TEST(Matrix, SymmetryCheck) {
  Matrix s = {{2.0, 1.0}, {1.0, 3.0}};
  EXPECT_TRUE(s.is_symmetric());
  s(0, 1) = 1.1;
  EXPECT_FALSE(s.is_symmetric());
}

TEST(Lu, SolvesKnownSystem) {
  const Matrix a = {{2.0, 1.0}, {1.0, 3.0}};
  LuDecomposition lu(a);
  const auto x = lu.solve({5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, DeterminantKnown) {
  const Matrix a = {{2.0, 1.0}, {1.0, 3.0}};
  EXPECT_NEAR(LuDecomposition(a).determinant(), 5.0, 1e-12);
}

TEST(Lu, SingularThrows) {
  const Matrix a = {{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(LuDecomposition{a}, NumericError);
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  const Matrix a = {{0.0, 1.0}, {1.0, 0.0}};
  LuDecomposition lu(a);
  const auto x = lu.solve({2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-14);
  EXPECT_NEAR(x[1], 2.0, 1e-14);
  EXPECT_NEAR(lu.determinant(), -1.0, 1e-14);
}

// Property: A * solve(A, b) == b for random systems of growing size.
class LuProperty : public ::testing::TestWithParam<int> {};

TEST_P(LuProperty, SolveResidualSmall) {
  const std::size_t n = static_cast<std::size_t>(GetParam());
  Xoshiro256 rng(100 + n);
  const Matrix a = random_matrix(n, rng);
  std::vector<double> b(n);
  for (auto& v : b) v = 2.0 * rng.uniform01() - 1.0;
  LuDecomposition lu(a);
  const auto x = lu.solve(b);
  const auto ax = a.multiply(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-9);
}

TEST_P(LuProperty, InverseTimesOriginalIsIdentity) {
  const std::size_t n = static_cast<std::size_t>(GetParam());
  Xoshiro256 rng(200 + n);
  const Matrix a = random_matrix(n, rng);
  const Matrix inv = LuDecomposition(a).inverse();
  EXPECT_LT(a.multiply(inv).max_abs_diff(Matrix::identity(n)), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuProperty, ::testing::Values(1, 2, 3, 5, 8, 16, 33, 64));

TEST(Cholesky, MatchesLuOnSpd) {
  Xoshiro256 rng(7);
  for (std::size_t n : {1u, 3u, 10u, 25u}) {
    const Matrix a = random_spd(n, rng);
    std::vector<double> b(n);
    for (auto& v : b) v = rng.uniform01();
    const auto x_chol = CholeskyDecomposition(a).solve(b);
    const auto x_lu = LuDecomposition(a).solve(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x_chol[i], x_lu[i], 1e-9);
  }
}

TEST(Cholesky, FactorReconstructs) {
  Xoshiro256 rng(8);
  const Matrix a = random_spd(6, rng);
  const Matrix l = CholeskyDecomposition(a).l();
  EXPECT_LT(l.multiply(l.transposed()).max_abs_diff(a), 1e-10);
}

TEST(Cholesky, InverseIsInverse) {
  Xoshiro256 rng(9);
  const Matrix a = random_spd(12, rng);
  const Matrix inv = CholeskyDecomposition(a).inverse();
  EXPECT_LT(a.multiply(inv).max_abs_diff(Matrix::identity(12)), 1e-8);
}

TEST(Cholesky, RejectsIndefinite) {
  const Matrix a = {{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_THROW(CholeskyDecomposition{a}, NumericError);
  EXPECT_FALSE(is_positive_definite(a));
  EXPECT_TRUE(is_positive_definite(Matrix{{2.0, 1.0}, {1.0, 2.0}}));
}

TEST(Cholesky, SemidefiniteRejected) {
  // Laplacian of a disconnected-from-ground island pair: singular.
  const Matrix a = {{1.0, -1.0}, {-1.0, 1.0}};
  EXPECT_FALSE(is_positive_definite(a));
}

// ---- Bitwise oracle for the Cholesky kernels --------------------------------
//
// CholeskyDecomposition's factor and inverse() are blocked, interleaved and
// parallel, yet promise every output element the exact operation sequence
// of the plain serial loops below. These tests memcmp L and A^-1 against
// those loops at executor widths 1 and 4. Byte identity is a property of
// the default x86-64 build, which has no FMA: under -march=native the
// compiler may contract a*b + c into an FMA differently in the two copies
// (which is why the -march=native perf job records its own baseline).

/// The plain column-by-column factor: row i of L dotted with row j over
/// k = 0..j-1, no skyline.
Matrix reference_factor(const Matrix& a) {
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    const double* lrow_j = l.row_data(j);
    for (std::size_t k = 0; k < j; ++k) diag -= lrow_j[k] * lrow_j[k];
    if (!(diag > a(j, j) * 1e-12)) {
      throw NumericError(
          ErrorCode::kNotPositiveDefinite,
          "Cholesky: matrix not positive definite at pivot " +
              std::to_string(j) +
              " (circuit likely has an island with no capacitive path to a "
              "fixed potential)");
    }
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    const double inv_ljj = 1.0 / ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = a(i, j);
      const double* lrow_i = l.row_data(i);
      for (std::size_t k = 0; k < j; ++k) v -= lrow_i[k] * lrow_j[k];
      l(i, j) = v * inv_ljj;
    }
  }
  return l;
}

/// The plain inverse: W = L^-1 column by column (stride-n inner loop), then
/// W^T W as rank-1 updates from W's rows, then the mirror.
Matrix reference_inverse(const Matrix& l) {
  const std::size_t n = l.rows();
  Matrix w(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    w(j, j) = 1.0 / l(j, j);
    for (std::size_t i = j + 1; i < n; ++i) {
      const double* lrow = l.row_data(i);
      double acc = 0.0;
      for (std::size_t k = j; k < i; ++k) acc += lrow[k] * w(k, j);
      w(i, j) = -acc / lrow[i];
    }
  }
  Matrix inv(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    const double* wrow = w.row_data(k);
    for (std::size_t i = 0; i <= k; ++i) {
      const double wi = wrow[i];
      if (wi == 0.0) continue;
      double* out = inv.row_data(i);
      for (std::size_t j = 0; j <= i; ++j) out[j] += wi * wrow[j];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) inv(j, i) = inv(i, j);
  }
  return inv;
}

bool same_bits(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         (x.rows() == 0 ||
          std::memcmp(x.row_data(0), y.row_data(0),
                      x.rows() * x.cols() * sizeof(double)) == 0);
}

void expect_bitwise_oracle(const Matrix& a, const std::string& what) {
  const Matrix l_ref = reference_factor(a);
  const Matrix inv_ref = reference_inverse(l_ref);
  for (const unsigned threads : {1u, 4u}) {
    const ParallelExecutor exec(threads);
    const CholeskyDecomposition chol(a, &exec);
    EXPECT_TRUE(same_bits(chol.l(), l_ref))
        << what << ": L differs at " << threads << " threads";
    EXPECT_TRUE(same_bits(chol.inverse(), inv_ref))
        << what << ": inverse differs at " << threads << " threads";
  }
}

/// Random diagonally dominant SPD matrix with a ragged skyline: row i is
/// zero before a random start, has random exact zeros inside its profile,
/// and every 37th row starts at its diagonal (a decoupled island).
Matrix random_skyline_spd(std::size_t n, std::size_t max_band,
                          Xoshiro256& rng) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 37 == 36) continue;
    const std::size_t band =
        static_cast<std::size_t>(rng.uniform01() * static_cast<double>(max_band));
    for (std::size_t j = i > band ? i - band : 0; j < i; ++j) {
      if (rng.uniform01() < 0.3) continue;
      const double v = -0.1 - rng.uniform01();
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.5 + rng.uniform01();
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) sum += std::fabs(a(i, j));
    }
    a(i, i) = sum;
  }
  return a;
}

Matrix c_ii_of(const Circuit& c) { return ElectrostaticModel(c).c_ii(); }

TEST(CholeskyOracle, RandomDenseSpdBitwise) {
  Xoshiro256 rng(31);
  for (const std::size_t n : {1u, 2u, 3u, 17u, 64u, 201u}) {
    expect_bitwise_oracle(random_spd(n, rng), "dense n=" + std::to_string(n));
  }
}

TEST(CholeskyOracle, RandomSkylineSpdBitwise) {
  Xoshiro256 rng(32);
  for (const std::size_t n : {1u, 2u, 9u, 70u, 333u}) {
    for (const std::size_t band : {1u, 5u, 60u}) {
      expect_bitwise_oracle(random_skyline_spd(n, band, rng),
                            "skyline n=" + std::to_string(n) +
                                " band=" + std::to_string(band));
    }
  }
}

TEST(CholeskyOracle, C432CapacitanceMatrixBitwise) {
  const LogicBenchmark b = make_benchmark("c432");
  const ElaboratedCircuit elab = elaborate(b.netlist, SetLogicParams{});
  expect_bitwise_oracle(c_ii_of(elab.circuit()), "c432");
}

TEST(CholeskyOracle, FourBlockFabricCapacitanceMatrixBitwise) {
  // Four 512-junction random-logic blocks tied by 0.5 aF couplers between
  // adjacent chain outputs, as in bench/iscas_scale.cpp.
  RandomLogicSpec per_block;
  per_block.target_junctions = 512;
  per_block.seed = 7;
  const RandomLogicBlocks blocks = make_random_logic_blocks(per_block, 4);
  ElaboratedCircuit elab = elaborate(blocks.netlist, SetLogicParams{});
  for (std::size_t b = 0; b + 1 < 4; ++b) {
    elab.circuit().add_capacitor(elab.node(blocks.chain_out[b]),
                                 elab.node(blocks.chain_out[b + 1]), 0.5e-18);
  }
  expect_bitwise_oracle(c_ii_of(elab.circuit()), "fabric");
}

TEST(CholeskyOracle, SingularMatrixNamesTheSamePivot) {
  // A skyline matrix whose rows 40..42 form a floating island group: a
  // Laplacian block with no path to ground, singular at pivot 42.
  Xoshiro256 rng(33);
  Matrix a = random_skyline_spd(80, 6, rng);
  for (std::size_t i = 40; i < 43; ++i) {
    for (std::size_t j = 0; j < 80; ++j) {
      a(i, j) = 0.0;
      a(j, i) = 0.0;
    }
  }
  for (std::size_t i = 40; i < 43; ++i) {
    for (std::size_t j = 40; j < 43; ++j) a(i, j) = i == j ? 2.0 : -1.0;
  }
  std::optional<NumericError> ref;
  try {
    reference_factor(a);
  } catch (const NumericError& e) {
    ref = e;
  }
  ASSERT_TRUE(ref.has_value());
  EXPECT_NE(std::string(ref->what()).find("pivot 42"), std::string::npos);
  for (const unsigned threads : {1u, 4u}) {
    const ParallelExecutor exec(threads);
    try {
      CholeskyDecomposition chol(a, &exec);
      ADD_FAILURE() << "singular matrix factored at " << threads << " threads";
    } catch (const NumericError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kNotPositiveDefinite);
      EXPECT_EQ(std::string(e.what()), std::string(ref->what()));
    }
  }
}

}  // namespace
}  // namespace semsim
