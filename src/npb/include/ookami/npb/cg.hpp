#pragma once
// NPB CG — conjugate gradient eigenvalue estimation on a random sparse
// matrix, faithful to the NPB algorithm: the matrix is assembled from
// outer products of NPB-LCG random sparse vectors with geometrically
// decaying weights (makea/sprnvc/vecset/sparse), then `niter` outer
// iterations each run 25 CG steps and update the shifted-inverse
// eigenvalue estimate zeta.  Class S/W/A/B/C parameters match the
// reference (paper: class C = 150000 rows, 15 nonzeros, 75 iterations).

#include <cstdint>
#include <vector>

#include "ookami/npb/npb.hpp"

namespace ookami::npb {

/// CSR sparse matrix built by makea.
struct CsrMatrix {
  int n = 0;
  std::vector<int> rowstr;   ///< n+1 row offsets
  std::vector<int> colidx;
  std::vector<double> a;

  [[nodiscard]] std::size_t nnz() const { return a.size(); }
};

/// Class parameters (na, nonzer, niter, shift).
struct CgSpec {
  int na;
  int nonzer;
  int niter;
  double shift;
  double ref_zeta;  ///< official NPB verification value
};

CgSpec cg_spec(Class cls);

/// Assemble the NPB CG matrix for the given class parameters.  Rows are
/// sorted by column, and each (row, col) is summed from 0.0 in the
/// reference's generation order, as NPB 2.x sparse() accumulates it.
CsrMatrix cg_makea(int na, int nonzer, double shift);

/// Sparse y = A x (threaded).
void spmv(const CsrMatrix& a, const std::vector<double>& x, std::vector<double>& y,
          ThreadPool& pool);

/// Full benchmark: returns zeta in check_value and verifies it against
/// the official reference for the class.
Result run_cg(Class cls, unsigned threads);

}  // namespace ookami::npb
