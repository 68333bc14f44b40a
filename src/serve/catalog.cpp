#include "ookami/serve/catalog.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <mutex>
#include <utility>

#include "ookami/common/rng.hpp"
#include "ookami/hpcc/hpcc.hpp"
#include "ookami/npb/cg.hpp"
#include "ookami/vecmath/vecmath.hpp"

namespace ookami::serve {

std::uint64_t digest_doubles(const double* data, std::size_t n) {
  // Word-at-a-time over the raw 64-bit patterns, so the digest is exact
  // to the bit: -0.0 and 0.0 differ, and so do NaN payloads.  Word i
  // feeds lane i % 4, and the four lanes' multiply chains overlap.  Each
  // lane step is the xxHash64 round, a bijection of the lane state for a
  // fixed word, so changing any one word changes its lane's final state.
  constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ull;
  constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4full;
  const auto word = [data](std::size_t i) {
    std::uint64_t bits;
    std::memcpy(&bits, &data[i], sizeof bits);
    return bits;
  };
  const auto step = [](std::uint64_t lane, std::uint64_t w) {
    return std::rotl(lane + w * kP2, 31) * kP1;
  };
  std::uint64_t a = kP1 + kP2, b = kP2, c = 0, d = 0 - kP1;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a = step(a, word(i));
    b = step(b, word(i + 1));
    c = step(c, word(i + 2));
    d = step(d, word(i + 3));
  }
  if (i < n) a = step(a, word(i));
  if (i + 1 < n) b = step(b, word(i + 1));
  if (i + 2 < n) c = step(c, word(i + 2));
  // Fold n and then each lane through a SplitMix64 step (a bijection):
  // with the others fixed, the digest is a bijection of any one of them.
  std::uint64_t h = n;
  for (const std::uint64_t lane : {a, b, c, d}) h = SplitMix64(h ^ lane).next();
  return h;
}

namespace {

/// Deterministic input fill: stream keyed by (seed, salt), value i from
/// counter i — identical regardless of which thread computes the job.
void fill_inputs(std::span<double> out, std::uint64_t seed, std::uint64_t salt, double lo,
                 double hi) {
  const CounterRng rng(seed * 0x9e3779b97f4a7c15ull + salt);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = lo + (hi - lo) * rng.uniform(i);
  }
}

/// Job vector `slot` of the calling thread, resized to n.  Each pool
/// thread keeps its vectors across jobs (at the largest size it has
/// served), so a job allocates nothing: per-job buffers of 128 KiB and
/// up would otherwise be carved from the allocator's per-thread arenas,
/// and the daemon's peak footprint would depend on where earlier
/// allocations happened to leave room for them.
std::vector<double>& job_vector(int slot, std::size_t n) {
  thread_local std::vector<double> kept[3];
  std::vector<double>& v = kept[slot];
  v.resize(n);
  return v;
}

/// Element-wise vecmath jobs: x -> f(x) over `n` doubles.  The whole
/// batch is one parallel_for over *jobs*; every job is computed inside
/// a single worker chunk, so chunking never moves element boundaries
/// and batched results are bit-identical to solo runs.  `Fn` may
/// overwrite x: each job owns its input buffer.
template <void (*Fn)(std::span<double>, std::span<double>), int Lo, int Hi>
void run_elementwise(std::span<BatchItem> items, ThreadPool& pool) {
  pool.parallel_for(0, items.size(), [&](std::size_t begin, std::size_t end, unsigned) {
    for (std::size_t j = begin; j < end; ++j) {
      BatchItem& item = items[j];
      std::vector<double>& x = job_vector(0, item.n);
      std::vector<double>& y = job_vector(1, item.n);
      fill_inputs(x, item.seed, /*salt=*/1, Lo, Hi);
      Fn(x, y);
      item.digest = digest_doubles(y.data(), y.size());
    }
  });
}

// vecmath array drivers have trailing default arguments; plain-span
// wrappers give them the uniform signature the template wants.
void exp_fn(std::span<double> x, std::span<double> y) { vecmath::exp_array(x, y); }
void log_fn(std::span<double> x, std::span<double> y) {
  // log's domain is (0, inf): shift the [-8,8) inputs off zero in place.
  for (double& v : x) v = 1e-6 + (v + 8.0);
  vecmath::log_array(x, y);
}
void sin_fn(std::span<double> x, std::span<double> y) { vecmath::sin_array(x, y); }
void tanh_fn(std::span<double> x, std::span<double> y) { vecmath::tanh_array(x, y); }
void sqrt_fn(std::span<double> x, std::span<double> y) {
  for (double& v : x) v += 8.0;  // inputs are [-8,8)
  vecmath::sqrt_array(x, y);
}

/// The npb.cg.spmv operator: a synthetic banded CSR matrix, 13 nonzeros
/// per row, whose values depend only on n.
std::shared_ptr<const npb::CsrMatrix> build_spmv_operator(std::size_t rows) {
  const int n = static_cast<int>(rows);
  constexpr int kNnzPerRow = 13;
  npb::CsrMatrix a;
  a.n = n;
  a.rowstr.resize(rows + 1);
  a.colidx.reserve(rows * kNnzPerRow);
  a.a.reserve(rows * kNnzPerRow);
  const CounterRng vals(/*stream=*/2);
  const int stride = std::max(1, n / kNnzPerRow);
  for (int row = 0; row < n; ++row) {
    a.rowstr[static_cast<std::size_t>(row)] = static_cast<int>(a.a.size());
    for (int k = 0; k < kNnzPerRow; ++k) {
      a.colidx.push_back((row + k * stride) % n);
      a.a.push_back(vals.uniform(static_cast<std::uint64_t>(row) * kNnzPerRow +
                                 static_cast<std::uint64_t>(k)) -
                    0.5);
    }
  }
  a.rowstr[rows] = static_cast<int>(a.a.size());
  return std::make_shared<const npb::CsrMatrix>(std::move(a));
}

/// Operator cache of one entry: the most recent n, replaced on a miss,
/// so it never grows with the number of sizes served.  Callers keep
/// their own reference, so a replacement never frees an operator in use.
std::shared_ptr<const npb::CsrMatrix> spmv_operator(std::size_t n) {
  static std::mutex mu;
  static std::shared_ptr<const npb::CsrMatrix> last;
  const std::lock_guard<std::mutex> lock(mu);
  if (last == nullptr || static_cast<std::size_t>(last->n) != n) {
    last.reset();  // no unused operator stays alive while the next one is built
    last = build_spmv_operator(n);
  }
  return last;
}

/// npb.cg.spmv job: the shared operator for n times a vector chosen by
/// the seed.  Operators are resolved before the fork, each distinct n
/// of the batch at most once.
void run_spmv(std::span<BatchItem> items, ThreadPool& pool) {
  std::vector<std::shared_ptr<const npb::CsrMatrix>> ops(items.size());
  for (std::size_t j = 0; j < items.size(); ++j) {
    for (std::size_t k = 0; k < j && ops[j] == nullptr; ++k) {
      if (items[k].n == items[j].n) ops[j] = ops[k];
    }
    if (ops[j] == nullptr) ops[j] = spmv_operator(items[j].n);
  }
  pool.parallel_for(0, items.size(), [&](std::size_t begin, std::size_t end, unsigned) {
    for (std::size_t j = begin; j < end; ++j) {
      BatchItem& item = items[j];
      std::vector<double>& x = job_vector(0, item.n);
      std::vector<double>& y = job_vector(1, item.n);
      fill_inputs(x, item.seed, /*salt=*/3, -1.0, 1.0);
      // Nested submission degrades to serial inside a worker chunk (the
      // pool's one-region rule), keeping the job self-contained.
      npb::spmv(*ops[j], x, y, pool);
      item.digest = digest_doubles(y.data(), y.size());
    }
  });
}

/// hpcc.dgemm job: C = A*B at dimension n with the tuned blocked path.
void run_dgemm(std::span<BatchItem> items, ThreadPool& pool) {
  pool.parallel_for(0, items.size(), [&](std::size_t begin, std::size_t end, unsigned) {
    for (std::size_t j = begin; j < end; ++j) {
      BatchItem& item = items[j];
      const std::size_t n = item.n;
      std::vector<double>& a = job_vector(0, n * n);
      std::vector<double>& b = job_vector(1, n * n);
      std::vector<double>& c = job_vector(2, n * n);
      std::fill(c.begin(), c.end(), 0.0);
      fill_inputs(a, item.seed, /*salt=*/4, -1.0, 1.0);
      fill_inputs(b, item.seed, /*salt=*/5, -1.0, 1.0);
      hpcc::dgemm(hpcc::GemmImpl::kTuned, n, a.data(), b.data(), c.data(), pool);
      item.digest = digest_doubles(c.data(), c.size());
    }
  });
}

}  // namespace

Catalog::Catalog() {
  constexpr std::size_t kMaxElems = std::size_t{1} << 22;  // 32 MiB x+y per job
  kernels_ = {
      {"vecmath.exp", &run_elementwise<exp_fn, -8, 8>, kMaxElems},
      {"vecmath.log", &run_elementwise<log_fn, -8, 8>, kMaxElems},
      {"vecmath.sin", &run_elementwise<sin_fn, -8, 8>, kMaxElems},
      {"vecmath.tanh", &run_elementwise<tanh_fn, -8, 8>, kMaxElems},
      {"vecmath.sqrt", &run_elementwise<sqrt_fn, -8, 8>, kMaxElems},
      {"npb.cg.spmv", &run_spmv, std::size_t{1} << 21},
      {"hpcc.dgemm", &run_dgemm, 768},
  };
}

const Catalog& Catalog::global() {
  static const Catalog catalog;
  return catalog;
}

const ServableKernel* Catalog::find(std::string_view name) const {
  for (const auto& k : kernels_) {
    if (k.name == name) return &k;
  }
  return nullptr;
}

std::vector<std::string> Catalog::names() const {
  std::vector<std::string> out;
  out.reserve(kernels_.size());
  for (const auto& k : kernels_) out.push_back(k.name);
  return out;
}

}  // namespace ookami::serve
