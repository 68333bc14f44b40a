#pragma once
// Shared infrastructure for the NPB pseudo-applications (BT, SP, LU):
// a contiguous 3D grid of 5-component states, 5x5 block linear algebra
// (the Navier-Stokes systems have 5 conserved quantities), and the
// manufactured-solution diffusion problem all three solvers attack.
//
// BT/SP/LU in NPB differ not in the physics but in the *solver pattern*
// applied to the implicit system — block-tridiagonal ADI lines (BT),
// scalar pentadiagonal ADI lines (SP), and SSOR block sweeps (LU).  We
// preserve exactly that distinction: one well-posed coupled diffusion
// problem with a known steady state, three genuinely different solvers,
// each verifiable by convergence to the manufactured solution.

#include <array>
#include <cstddef>
#include <vector>

namespace ookami::npb {

/// 5x5 dense matrix in row-major order.
using Mat5 = std::array<double, 25>;
/// 5-vector.
using Vec5 = std::array<double, 5>;

inline constexpr int kNc = 5;  ///< components per grid point

Mat5 mat5_identity();
Mat5 mat5_scale(const Mat5& m, double s);
Vec5 mat5_apply(const Mat5& m, const Vec5& v);
Mat5 mat5_add(const Mat5& a, const Mat5& b);

Mat5 mat5_mul(const Mat5& a, const Mat5& b);
Mat5 mat5_sub(const Mat5& a, const Mat5& b);

/// Solve m x = b by Gaussian elimination with partial pivoting
/// (the 5x5 solve at the heart of BT's block Thomas and LU's SSOR).
Vec5 mat5_solve(Mat5 m, Vec5 b);

/// Solve m X = B column-by-column (block Thomas elimination step).
Mat5 mat5_lu_solve_mat(const Mat5& lu, const std::array<int, 5>& perm, const Mat5& b);

/// In-place LU factorization with partial pivoting; perm holds row swaps.
void mat5_lu(Mat5& m, std::array<int, 5>& perm);
Vec5 mat5_lu_solve(const Mat5& lu, const std::array<int, 5>& perm, Vec5 b);

/// Contiguous (n x n x n x 5) field.
class Field {
public:
  explicit Field(int n) : n_(n), data_(static_cast<std::size_t>(n) * n * n * kNc, 0.0) {}

  [[nodiscard]] int n() const { return n_; }

  double& at(int i, int j, int k, int m) { return data_[index(i, j, k, m)]; }
  [[nodiscard]] double at(int i, int j, int k, int m) const { return data_[index(i, j, k, m)]; }

  Vec5 get(int i, int j, int k) const {
    Vec5 v;
    const std::size_t base = index(i, j, k, 0);
    for (int m = 0; m < kNc; ++m) v[static_cast<std::size_t>(m)] = data_[base + static_cast<std::size_t>(m)];
    return v;
  }
  void set(int i, int j, int k, const Vec5& v) {
    const std::size_t base = index(i, j, k, 0);
    for (int m = 0; m < kNc; ++m) data_[base + static_cast<std::size_t>(m)] = v[static_cast<std::size_t>(m)];
  }

  [[nodiscard]] const std::vector<double>& raw() const { return data_; }
  std::vector<double>& raw() { return data_; }

private:
  [[nodiscard]] std::size_t index(int i, int j, int k, int m) const {
    return ((static_cast<std::size_t>(i) * n_ + j) * n_ + k) * kNc + static_cast<std::size_t>(m);
  }
  int n_;
  std::vector<double> data_;
};

/// The manufactured-solution diffusion problem shared by BT/SP/LU:
///   du/dt = div(grad u) R(x) + f,   f chosen so that u* is steady.
struct DiffusionProblem {
  int n;          ///< grid points per dimension (incl. boundary)
  double h;       ///< grid spacing
  double dt;      ///< pseudo-time step

  explicit DiffusionProblem(int grid_n);

  /// The known steady state (smooth trigonometric field per component).
  Vec5 exact(int i, int j, int k) const;

  /// Pointwise 5x5 coupling matrix (symmetric, diagonally dominant,
  /// position-dependent so line systems must be re-factored per line
  /// exactly as NPB's state-dependent blocks are).
  Mat5 coupling(int i, int j, int k) const;

  /// Forcing that makes `exact` stationary under the discrete operator.
  Vec5 forcing(int i, int j, int k) const;

  /// Residual rhs = dt * (L u + f) at interior point (i,j,k).
  Vec5 rhs(const Field& u, int i, int j, int k) const;

  /// Initialize u to exact on the boundary, a perturbed state inside.
  void initialize(Field& u) const;

  /// Max-norm error vs the manufactured solution over interior points;
  /// NaN if any interior value is NaN.
  double error(const Field& u) const;

  /// The BT/SP/LU pass rule for final error `err` from initial `err0`.
  static bool verified(double err, double err0);

  /// Root-mean-square of the steady-state residual over interior points.
  double residual_rms(const Field& u) const;
};

}  // namespace ookami::npb
