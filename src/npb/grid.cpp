#include "ookami/npb/grid.hpp"

#include <cmath>
#include <stdexcept>

#include "ookami/common/stats.hpp"

namespace ookami::npb {

Mat5 mat5_identity() {
  Mat5 m{};
  for (int i = 0; i < 5; ++i) m[static_cast<std::size_t>(i * 5 + i)] = 1.0;
  return m;
}

Mat5 mat5_scale(const Mat5& m, double s) {
  Mat5 r;
  for (std::size_t i = 0; i < 25; ++i) r[i] = m[i] * s;
  return r;
}

Mat5 mat5_add(const Mat5& a, const Mat5& b) {
  Mat5 r;
  for (std::size_t i = 0; i < 25; ++i) r[i] = a[i] + b[i];
  return r;
}

Mat5 mat5_mul(const Mat5& a, const Mat5& b) {
  Mat5 r{};
  for (int i = 0; i < 5; ++i) {
    for (int k = 0; k < 5; ++k) {
      const double aik = a[static_cast<std::size_t>(i * 5 + k)];
      for (int j = 0; j < 5; ++j) {
        r[static_cast<std::size_t>(i * 5 + j)] += aik * b[static_cast<std::size_t>(k * 5 + j)];
      }
    }
  }
  return r;
}

Mat5 mat5_sub(const Mat5& a, const Mat5& b) {
  Mat5 r;
  for (std::size_t i = 0; i < 25; ++i) r[i] = a[i] - b[i];
  return r;
}

Mat5 mat5_lu_solve_mat(const Mat5& lu, const std::array<int, 5>& perm, const Mat5& b) {
  Mat5 x{};
  for (int col = 0; col < 5; ++col) {
    Vec5 rhs;
    for (int row = 0; row < 5; ++row) rhs[static_cast<std::size_t>(row)] = b[static_cast<std::size_t>(row * 5 + col)];
    const Vec5 sol = mat5_lu_solve(lu, perm, rhs);
    for (int row = 0; row < 5; ++row) x[static_cast<std::size_t>(row * 5 + col)] = sol[static_cast<std::size_t>(row)];
  }
  return x;
}

Vec5 mat5_apply(const Mat5& m, const Vec5& v) {
  Vec5 r{};
  for (int i = 0; i < 5; ++i) {
    double s = 0.0;
    for (int j = 0; j < 5; ++j) s += m[static_cast<std::size_t>(i * 5 + j)] * v[static_cast<std::size_t>(j)];
    r[static_cast<std::size_t>(i)] = s;
  }
  return r;
}

void mat5_lu(Mat5& m, std::array<int, 5>& perm) {
  for (int i = 0; i < 5; ++i) perm[static_cast<std::size_t>(i)] = i;
  for (int col = 0; col < 5; ++col) {
    // Partial pivot.
    int pivot = col;
    double best = std::fabs(m[static_cast<std::size_t>(col * 5 + col)]);
    for (int r = col + 1; r < 5; ++r) {
      const double v = std::fabs(m[static_cast<std::size_t>(r * 5 + col)]);
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best == 0.0) throw std::runtime_error("mat5_lu: singular block");
    if (pivot != col) {
      for (int c = 0; c < 5; ++c) {
        std::swap(m[static_cast<std::size_t>(col * 5 + c)], m[static_cast<std::size_t>(pivot * 5 + c)]);
      }
      std::swap(perm[static_cast<std::size_t>(col)], perm[static_cast<std::size_t>(pivot)]);
    }
    const double inv = 1.0 / m[static_cast<std::size_t>(col * 5 + col)];
    for (int r = col + 1; r < 5; ++r) {
      const double f = m[static_cast<std::size_t>(r * 5 + col)] * inv;
      m[static_cast<std::size_t>(r * 5 + col)] = f;
      for (int c = col + 1; c < 5; ++c) {
        m[static_cast<std::size_t>(r * 5 + c)] -= f * m[static_cast<std::size_t>(col * 5 + c)];
      }
    }
  }
}

Vec5 mat5_lu_solve(const Mat5& lu, const std::array<int, 5>& perm, Vec5 b) {
  Vec5 x;
  // Apply permutation.
  for (int i = 0; i < 5; ++i) x[static_cast<std::size_t>(i)] = b[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])];
  // Forward substitution (unit lower).
  for (int i = 1; i < 5; ++i) {
    for (int j = 0; j < i; ++j) x[static_cast<std::size_t>(i)] -= lu[static_cast<std::size_t>(i * 5 + j)] * x[static_cast<std::size_t>(j)];
  }
  // Back substitution.
  for (int i = 4; i >= 0; --i) {
    for (int j = i + 1; j < 5; ++j) x[static_cast<std::size_t>(i)] -= lu[static_cast<std::size_t>(i * 5 + j)] * x[static_cast<std::size_t>(j)];
    x[static_cast<std::size_t>(i)] /= lu[static_cast<std::size_t>(i * 5 + i)];
  }
  return x;
}

Vec5 mat5_solve(Mat5 m, Vec5 b) {
  std::array<int, 5> perm;
  mat5_lu(m, perm);
  return mat5_lu_solve(m, perm, b);
}

DiffusionProblem::DiffusionProblem(int grid_n) : n(grid_n) {
  h = 1.0 / static_cast<double>(n - 1);
  // Resolution-independent pseudo-time step: dt * lambda_min ~ 1 for
  // the lowest Laplacian mode (lambda ~ 3*pi^2), so the factored-ADI /
  // SSOR error contraction per iteration is the same for every class.
  dt = 0.1;
}

Vec5 DiffusionProblem::exact(int i, int j, int k) const {
  const double x = i * h, y = j * h, z = k * h;
  Vec5 v;
  for (int m = 0; m < kNc; ++m) {
    const double fm = 1.0 + 0.5 * m;
    v[static_cast<std::size_t>(m)] = std::sin(fm * M_PI * x) * std::cos(fm * M_PI * y) +
                                     0.5 * std::cos(fm * M_PI * z) + 1.5;
  }
  return v;
}

Mat5 DiffusionProblem::coupling(int i, int j, int k) const {
  const double x = i * h, y = j * h, z = k * h;
  const double phi = 0.1 * std::sin(2.0 * M_PI * (x + y + z));
  Mat5 m{};
  for (int r = 0; r < 5; ++r) {
    for (int c = 0; c < 5; ++c) {
      if (r == c) {
        m[static_cast<std::size_t>(r * 5 + c)] = 1.0 + phi;
      } else {
        // Symmetric weak coupling; diagonally dominant by construction.
        m[static_cast<std::size_t>(r * 5 + c)] = 0.04 / (1.0 + std::abs(r - c));
      }
    }
  }
  return m;
}

namespace {

/// Discrete Laplacian of the exact solution contracted with R: the
/// forcing must cancel it exactly on the grid (manufactured solution of
/// the *discrete* operator, so convergence is to machine precision).
Vec5 discrete_l_exact(const DiffusionProblem& p, int i, int j, int k) {
  const Vec5 c = p.exact(i, j, k);
  Vec5 lap{};
  auto acc = [&](int ii, int jj, int kk) {
    const Vec5 q = p.exact(ii, jj, kk);
    for (int m = 0; m < kNc; ++m) lap[static_cast<std::size_t>(m)] += q[static_cast<std::size_t>(m)];
  };
  acc(i - 1, j, k);
  acc(i + 1, j, k);
  acc(i, j - 1, k);
  acc(i, j + 1, k);
  acc(i, j, k - 1);
  acc(i, j, k + 1);
  for (int m = 0; m < kNc; ++m) {
    lap[static_cast<std::size_t>(m)] =
        (lap[static_cast<std::size_t>(m)] - 6.0 * c[static_cast<std::size_t>(m)]) / (p.h * p.h);
  }
  return mat5_apply(p.coupling(i, j, k), lap);
}

}  // namespace

Vec5 DiffusionProblem::forcing(int i, int j, int k) const {
  Vec5 f = discrete_l_exact(*this, i, j, k);
  for (auto& v : f) v = -v;
  return f;
}

Vec5 DiffusionProblem::rhs(const Field& u, int i, int j, int k) const {
  Vec5 lap{};
  const Vec5 c = u.get(i, j, k);
  auto acc = [&](int ii, int jj, int kk) {
    const Vec5 q = u.get(ii, jj, kk);
    for (int m = 0; m < kNc; ++m) lap[static_cast<std::size_t>(m)] += q[static_cast<std::size_t>(m)];
  };
  acc(i - 1, j, k);
  acc(i + 1, j, k);
  acc(i, j - 1, k);
  acc(i, j + 1, k);
  acc(i, j, k - 1);
  acc(i, j, k + 1);
  for (int m = 0; m < kNc; ++m) {
    lap[static_cast<std::size_t>(m)] =
        (lap[static_cast<std::size_t>(m)] - 6.0 * c[static_cast<std::size_t>(m)]) / (h * h);
  }
  Vec5 r = mat5_apply(coupling(i, j, k), lap);
  const Vec5 f = forcing(i, j, k);
  for (int m = 0; m < kNc; ++m) {
    r[static_cast<std::size_t>(m)] = dt * (r[static_cast<std::size_t>(m)] + f[static_cast<std::size_t>(m)]);
  }
  return r;
}

void DiffusionProblem::initialize(Field& u) const {
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      for (int k = 0; k < n; ++k) {
        const bool boundary = i == 0 || j == 0 || k == 0 || i == n - 1 || j == n - 1 || k == n - 1;
        Vec5 v = exact(i, j, k);
        if (!boundary) {
          // Smooth low-mode perturbation (vanishes on the boundary).
          // Factored ADI damps low error modes strongly but leaves
          // near-Nyquist modes almost untouched, so a smooth initial
          // error is the well-posed steady-state seek all three
          // solvers share.
          const double bump = std::sin(M_PI * i * h) * std::sin(M_PI * j * h) *
                              std::sin(M_PI * k * h);
          for (int m = 0; m < kNc; ++m) {
            v[static_cast<std::size_t>(m)] += 0.3 * bump * std::cos(0.7 * m);
          }
        }
        u.set(i, j, k, v);
      }
    }
  }
}

double DiffusionProblem::error(const Field& u) const {
  double worst = 0.0;
  for (int i = 1; i < n - 1; ++i) {
    for (int j = 1; j < n - 1; ++j) {
      for (int k = 1; k < n - 1; ++k) {
        const Vec5 e = exact(i, j, k);
        for (int m = 0; m < kNc; ++m) {
          worst = nan_max(worst, std::fabs(u.at(i, j, k, m) - e[static_cast<std::size_t>(m)]));
        }
      }
    }
  }
  return worst;
}

bool DiffusionProblem::verified(double err, double err0) {
  // At least three orders of magnitude of error contraction toward the
  // manufactured steady state (the class-S iteration counts give
  // ~2.6e3x for BT, ~1e4x for LU, ~1e5x for SP; deeper classes converge
  // further).  Both comparisons are false for a NaN error.
  return err <= 1e-8 || err <= 1e-3 * err0;
}

double DiffusionProblem::residual_rms(const Field& u) const {
  double sum = 0.0;
  std::size_t count = 0;
  for (int i = 1; i < n - 1; ++i) {
    for (int j = 1; j < n - 1; ++j) {
      for (int k = 1; k < n - 1; ++k) {
        const Vec5 r = rhs(u, i, j, k);
        for (int m = 0; m < kNc; ++m) {
          sum += r[static_cast<std::size_t>(m)] * r[static_cast<std::size_t>(m)];
          ++count;
        }
      }
    }
  }
  return std::sqrt(sum / static_cast<double>(count));
}

}  // namespace ookami::npb
