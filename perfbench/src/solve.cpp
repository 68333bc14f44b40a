#include "solve.hpp"

#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "ookami/dispatch/registry.hpp"
#include "ookami/hpcc/hpcc.hpp"
#include "ookami/lulesh/lulesh.hpp"
#include "ookami/npb/sp.hpp"
#include "ookami/vecmath/exp.hpp"
#include "ookami/vecmath/ulp.hpp"
#include "stats.hpp"

namespace perfbench {

namespace npb = ookami::npb;
namespace loops = ookami::loops;

SolveSizes solve_sizes(const std::string& workload) {
  SolveSizes s;
  if (workload == "small") return s;  // the defaults above
  if (workload == "large") {
    s.lulesh_edge = 32;
    s.cg_cls = npb::Class::kA;
    s.sp_cls = npb::Class::kW;
    s.dgemm_n = 2048;
    s.exp_n = std::size_t{1} << 22;
    s.loops_n = std::size_t{1} << 22;
    return s;
  }
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

void Checks::record(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

namespace {

/// Worst ULP distance between two equally sized arrays.
std::uint64_t max_ulp(const double* a, const double* b, std::size_t n) {
  std::uint64_t worst = 0;
  for (std::size_t i = 0; i < n; ++i) {
    worst = std::max(worst, ookami::vecmath::ulp_distance(a[i], b[i]));
  }
  return worst;
}

/// 64-bit fingerprint of an output array: later calls must reproduce
/// the checked first output bit for bit.
std::uint64_t fingerprint(const double* y, std::size_t n) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t bits;
    std::memcpy(&bits, &y[i], sizeof bits);
    h = (h ^ bits) * 0xff51afd7ed558ccdull;
    h ^= h >> 29;
  }
  return h;
}

double registered_tolerance(const char* kernel) {
  double tol = 0.0;
  if (ookami::dispatch::check(kernel, &tol) == nullptr) {
    throw std::logic_error(std::string("no registered check for ") + kernel);
  }
  return tol;
}

}  // namespace

SolveSuite::SolveSuite(const SolveSizes& sizes, unsigned threads, std::uint64_t seed,
                       bool reference_checks)
    : sizes_(sizes), threads_(threads), pool_(threads), reference_checks_(reference_checks) {
  SeedStream rng(seed * 0x2545f4914f6cdd1dull + 11);
  const std::size_t n = sizes_.dgemm_n;
  a_.resize(n * n);
  b_.resize(n * n);
  c_.resize(n * n);
  for (double& v : a_) v = 2.0 * rng.uniform() - 1.0;
  for (double& v : b_) v = 2.0 * rng.uniform() - 1.0;
  for (int k = 0; k < 32; ++k) {
    dgemm_probe_.emplace_back(rng.next() % n, rng.next() % n);
  }

  exp_x_.resize(sizes_.exp_n);
  exp_y_.assign(sizes_.exp_n, 0.0);
  for (double& v : exp_x_) v = -700.0 + 1400.0 * rng.uniform();

  const auto kinds = loops::fig1_loop_kinds();
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    loop_seeds_[k] = rng.next();
    loop_data_.push_back(loops::make_loop_data(kinds[k], sizes_.loops_n, loop_seeds_[k]));
  }
}

int SolveSuite::calls_per_timer(double single_s) {
  constexpr double kMinTimed = 1e-3;
  if (single_s >= kMinTimed) return 1;
  return static_cast<int>(std::ceil(kMinTimed / std::max(single_s, 1e-8)));
}

double SolveSuite::lulesh(unsigned threads, ookami::taskgraph::Exec exec, Checks& checks) const {
  ookami::lulesh::Options opt;
  opt.edge_elems = sizes_.lulesh_edge;
  opt.variant = ookami::lulesh::Variant::kVect;
  opt.threads = threads;
  opt.exec = exec;
  const auto t0 = Clock::now();
  const ookami::lulesh::Outcome out = ookami::lulesh::run_sedov(opt);
  const double s = seconds_since(t0);
  checks.record(out.verified, "lulesh edge " + std::to_string(sizes_.lulesh_edge) +
                                  " not verified (drift " +
                                  std::to_string(out.total_energy_drift) + ", symmetry " +
                                  std::to_string(out.symmetry_error) + ")");
  return s;
}

double SolveSuite::cg(unsigned threads, Checks& checks) const {
  const auto t0 = Clock::now();
  const npb::Result r = npb::run(npb::Benchmark::kCG, sizes_.cg_cls, threads);
  const double s = seconds_since(t0);
  checks.record(r.verified, "npb CG." + npb::class_name(sizes_.cg_cls) + " not verified: " +
                                r.detail);
  return s;
}

double SolveSuite::sp(unsigned threads, ookami::taskgraph::Exec exec, Checks& checks) const {
  const auto t0 = Clock::now();
  const npb::Result r = exec == ookami::taskgraph::default_exec()
                            ? npb::run(npb::Benchmark::kSP, sizes_.sp_cls, threads)
                            : npb::run_sp(sizes_.sp_cls, threads, exec);
  const double s = seconds_since(t0);
  checks.record(r.verified, "npb SP." + npb::class_name(sizes_.sp_cls) + " not verified: " +
                                r.detail);
  return s;
}

double SolveSuite::dgemm(ookami::ThreadPool& pool, Checks& checks) {
  const std::size_t n = sizes_.dgemm_n;
  if (dgemm_reps_ == 0) {
    const auto t0 = Clock::now();
    ookami::hpcc::dgemm(ookami::hpcc::GemmImpl::kTuned, n, a_.data(), b_.data(), c_.data(),
                        pool);
    dgemm_reps_ = calls_per_timer(seconds_since(t0));
  }
  std::fill(c_.begin(), c_.end(), std::numeric_limits<double>::quiet_NaN());
  const auto t0 = Clock::now();
  for (int r = 0; r < dgemm_reps_; ++r) {
    ookami::hpcc::dgemm(ookami::hpcc::GemmImpl::kTuned, n, a_.data(), b_.data(), c_.data(),
                        pool);
  }
  const double s = seconds_since(t0) / dgemm_reps_;
  // Sampled entries against dot products, within the standard forward
  // error bound of a length-n dot product.
  bool ok = true;
  for (const auto& [i, j] : dgemm_probe_) {
    double dot = 0.0;
    double mag = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      dot += a_[i * n + k] * b_[k * n + j];
      mag += std::fabs(a_[i * n + k] * b_[k * n + j]);
    }
    const double bound = 4.0 * static_cast<double>(n) * 0x1.0p-52 * mag;
    if (!(std::fabs(c_[i * n + j] - dot) <= bound)) ok = false;
  }
  checks.record(ok, "dgemm n=" + std::to_string(n) + " sampled entries differ from dot products");
  return s;
}

double SolveSuite::exp(Checks& checks) {
  const std::span<const double> x(exp_x_.data(), exp_x_.size());
  const std::span<double> y(exp_y_.data(), exp_y_.size());
  if (exp_reps_ == 0) {
    const auto t0 = Clock::now();
    ookami::vecmath::exp_array(x, y);
    exp_reps_ = calls_per_timer(seconds_since(t0));
  }
  std::fill(exp_y_.begin(), exp_y_.end(), 0.0);
  const auto t0 = Clock::now();
  for (int r = 0; r < exp_reps_; ++r) ookami::vecmath::exp_array(x, y);
  const double s = seconds_since(t0) / exp_reps_;
  if (!reference_checks_) return s;
  const std::uint64_t print = fingerprint(exp_y_.data(), exp_y_.size());
  if (exp_print_ == 0) {
    // First output: every element against std::exp within the ULP bound
    // registered for vecmath.exp; later outputs must equal it bit for bit.
    std::vector<double> ref(exp_x_.size());
    for (std::size_t i = 0; i < ref.size(); ++i) ref[i] = std::exp(exp_x_[i]);
    const std::uint64_t worst = max_ulp(exp_y_.data(), ref.data(), ref.size());
    const double tol = registered_tolerance("vecmath.exp");
    checks.record(static_cast<double>(worst) <= tol,
                  "exp_array is " + std::to_string(worst) + " ulp from std::exp (bound " +
                      std::to_string(tol) + ")");
    exp_print_ = print;
  } else {
    checks.record(print == exp_print_, "exp_array output changed between calls");
  }
  return s;
}

double SolveSuite::loop(std::size_t k, Checks& checks) {
  const loops::LoopKind kind = loops::fig1_loop_kinds()[k];
  loops::LoopData& d = loop_data_[k];
  if (loop_reps_[k] == 0) {
    const auto t0 = Clock::now();
    loops::run_sve(kind, d);
    loop_reps_[k] = calls_per_timer(seconds_since(t0));
    if (reference_checks_) {
      loops::LoopData ref = loops::make_loop_data(kind, d.n(), loop_seeds_[k]);
      loops::run_scalar(kind, ref);
      const std::uint64_t worst = max_ulp(d.y.data(), ref.y.data(), d.n());
      const double tol = registered_tolerance("loops.fig1");
      checks.record(static_cast<double>(worst) <= tol,
                    "loops " + loops::loop_name(kind) + " run_sve is " + std::to_string(worst) +
                        " ulp from run_scalar (bound " + std::to_string(tol) + ")");
      loop_print_[k] = fingerprint(d.y.data(), d.n());
    }
  }
  const auto t0 = Clock::now();
  for (int r = 0; r < loop_reps_[k]; ++r) loops::run_sve(kind, d);
  const double s = seconds_since(t0) / loop_reps_[k];
  if (reference_checks_) {
    checks.record(fingerprint(d.y.data(), d.n()) == loop_print_[k],
                  "loops " + loops::loop_name(kind) + " output changed between calls");
  }
  return s;
}

PassTimes SolveSuite::run_pass(Checks& checks) {
  const ookami::taskgraph::Exec exec = ookami::taskgraph::default_exec();
  PassTimes t;
  t.lulesh_s = lulesh(threads_, exec, checks);
  t.cg_s = cg(threads_, checks);
  t.sp_s = sp(threads_, exec, checks);
  {
    // A fresh pool per pass, as every other app builds its own per call,
    // so one unlucky placement of pool threads cannot set a whole run.
    ookami::ThreadPool pool(threads_);
    t.dgemm_s = dgemm(pool, checks);
  }
  t.exp_s = exp(checks);
  for (std::size_t k = 0; k < t.loop_s.size(); ++k) t.loop_s[k] = loop(k, checks);
  return t;
}

double peak_rss_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

}  // namespace perfbench
