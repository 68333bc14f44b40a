#include "ookami/loops/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ookami/dispatch/registry.hpp"
#include "ookami/simd/backend.hpp"
#include "ookami/sve/sve.hpp"
#include "ookami/vecmath/vecmath.hpp"

// Pull the per-arch variant-registration TUs out of the static library
// (they self-register into the kernel registry; nothing else names them).
#if defined(OOKAMI_SIMD_HAVE_AVX2)
OOKAMI_DISPATCH_USE_VARIANTS(loops_avx2)
#endif
#if defined(OOKAMI_SIMD_HAVE_AVX512)
OOKAMI_DISPATCH_USE_VARIANTS(loops_avx512)
#endif

namespace ookami::loops {

namespace {

// The fig1 kinds run on whichever native variant "loops.fig1" resolves
// to; the math kinds already dispatch inside vecmath's array drivers.
// resolve() == nullptr keeps the original 8-lane emulation loops below.
using Fig1Fn = void(LoopKind, const double*, double*, const std::uint32_t*, std::size_t);
const dispatch::kernel_table<Fig1Fn> kFig1Table("loops.fig1");

/// Registry equivalence check: every fig1 kind under a forced backend
/// against the scalar emulation path.  The native kernels are exact
/// transcriptions onto the same op set, so the bound is zero ULP.
double check_fig1(simd::Backend b) {
  double worst = 0.0;
  for (LoopKind kind : fig1_loop_kinds()) {
    LoopData ref = make_loop_data(kind, 1003, 77);
    LoopData got = make_loop_data(kind, 1003, 77);
    {
      simd::ScopedBackend force(simd::Backend::kScalar);
      run_sve(kind, ref);
    }
    {
      simd::ScopedBackend force(b);
      run_sve(kind, got);
    }
    for (std::size_t i = 0; i < ref.y.size(); ++i) {
      worst = std::max(worst,
                       static_cast<double>(vecmath::ulp_distance(ref.y[i], got.y[i])));
    }
  }
  return worst;
}

const dispatch::check_registrar kFig1Check("loops.fig1", &check_fig1, 0.0);

}  // namespace

std::vector<LoopKind> fig1_loop_kinds() {
  return {LoopKind::kSimple,      LoopKind::kPredicate,    LoopKind::kGather,
          LoopKind::kScatter,     LoopKind::kShortGather,  LoopKind::kShortScatter};
}

std::vector<LoopKind> fig2_loop_kinds() {
  return {LoopKind::kRecip, LoopKind::kSqrt, LoopKind::kExp, LoopKind::kSin, LoopKind::kPow};
}

std::vector<LoopKind> all_loop_kinds() {
  auto v = fig1_loop_kinds();
  const auto m = fig2_loop_kinds();
  v.insert(v.end(), m.begin(), m.end());
  return v;
}

std::string loop_name(LoopKind kind) {
  switch (kind) {
    case LoopKind::kSimple: return "simple";
    case LoopKind::kPredicate: return "predicate";
    case LoopKind::kGather: return "gather";
    case LoopKind::kScatter: return "scatter";
    case LoopKind::kShortGather: return "short-gather";
    case LoopKind::kShortScatter: return "short-scatter";
    case LoopKind::kRecip: return "recip";
    case LoopKind::kSqrt: return "sqrt";
    case LoopKind::kExp: return "exp";
    case LoopKind::kSin: return "sin";
    case LoopKind::kPow: return "pow";
  }
  throw std::logic_error("unknown LoopKind");
}

KernelSpec kernel_spec(LoopKind kind) {
  KernelSpec s;
  s.kind = kind;
  switch (kind) {
    case LoopKind::kSimple:
      // y = 2x + 3x^2 compiles to mul + fma (+ one more mul for 2x).
      s.mul = 2.0;
      s.fma = 1.0;
      s.loads = 1.0;
      s.stores = 1.0;
      break;
    case LoopKind::kPredicate:
      s.cmp = 1.0;
      s.loads = 1.0;
      s.pred_stores = 1.0;  // store is mask-governed; ~50% lanes active
      break;
    case LoopKind::kGather:
    case LoopKind::kShortGather:
      s.loads = 0.5;  // 32-bit index per element
      s.gather = 1.0;
      s.stores = 1.0;
      s.windowed_128 = kind == LoopKind::kShortGather;
      break;
    case LoopKind::kScatter:
    case LoopKind::kShortScatter:
      s.loads = 1.5;  // value + 32-bit index
      s.scatter = 1.0;
      s.windowed_128 = kind == LoopKind::kShortScatter;
      break;
    case LoopKind::kRecip:
      s.loads = 1.0;
      s.stores = 1.0;
      s.math = MathFn::kRecip;
      s.math_calls = 1.0;
      break;
    case LoopKind::kSqrt:
      s.loads = 1.0;
      s.stores = 1.0;
      s.math = MathFn::kSqrt;
      s.math_calls = 1.0;
      break;
    case LoopKind::kExp:
      s.loads = 1.0;
      s.stores = 1.0;
      s.math = MathFn::kExp;
      s.math_calls = 1.0;
      break;
    case LoopKind::kSin:
      s.loads = 1.0;
      s.stores = 1.0;
      s.math = MathFn::kSin;
      s.math_calls = 1.0;
      break;
    case LoopKind::kPow:
      s.loads = 1.0;
      s.stores = 1.0;
      s.math = MathFn::kPow;
      s.math_calls = 1.0;
      break;
  }
  return s;
}

LoopData make_loop_data(LoopKind kind, std::size_t n, std::uint64_t seed) {
  LoopData d;
  d.x.resize(n);
  d.y.assign(n, 0.0);
  Xoshiro256 rng(seed);
  switch (kind) {
    case LoopKind::kPredicate:
    case LoopKind::kSin:
      fill_uniform({d.x.data(), n}, -10.0, 10.0, rng);
      break;
    case LoopKind::kExp:
      fill_uniform({d.x.data(), n}, -20.0, 20.0, rng);
      break;
    case LoopKind::kRecip:
    case LoopKind::kSqrt:
    case LoopKind::kPow:
      fill_uniform({d.x.data(), n}, 0.001, 100.0, rng);
      break;
    default:
      fill_uniform({d.x.data(), n}, -1.0, 1.0, rng);
      break;
  }
  switch (kind) {
    case LoopKind::kGather:
    case LoopKind::kScatter:
      d.index = random_permutation(n, rng);
      break;
    case LoopKind::kShortGather:
    case LoopKind::kShortScatter:
      d.index = windowed_permutation(n, 16, rng);  // 16 doubles = 128 bytes
      break;
    default:
      break;
  }
  return d;
}

void run_scalar(LoopKind kind, LoopData& d) {
  const std::size_t n = d.n();
  const double* x = d.x.data();
  double* y = d.y.data();
  switch (kind) {
    case LoopKind::kSimple:
      // Contracted exactly as every toolchain in Table I does under
      // fast-math (-ffp-contract=fast / -Kfast): fma(3x, x, 2x).
      for (std::size_t i = 0; i < n; ++i) y[i] = std::fma(3.0 * x[i], x[i], 2.0 * x[i]);
      break;
    case LoopKind::kPredicate:
      for (std::size_t i = 0; i < n; ++i)
        if (x[i] > 0.0) y[i] = x[i];
      break;
    case LoopKind::kGather:
    case LoopKind::kShortGather:
      for (std::size_t i = 0; i < n; ++i) y[i] = x[d.index[i]];
      break;
    case LoopKind::kScatter:
    case LoopKind::kShortScatter:
      for (std::size_t i = 0; i < n; ++i) y[d.index[i]] = x[i];
      break;
    case LoopKind::kRecip:
      for (std::size_t i = 0; i < n; ++i) y[i] = 1.0 / x[i];
      break;
    case LoopKind::kSqrt:
      for (std::size_t i = 0; i < n; ++i) y[i] = std::sqrt(x[i]);
      break;
    case LoopKind::kExp:
      for (std::size_t i = 0; i < n; ++i) y[i] = std::exp(x[i]);
      break;
    case LoopKind::kSin:
      for (std::size_t i = 0; i < n; ++i) y[i] = std::sin(x[i]);
      break;
    case LoopKind::kPow:
      for (std::size_t i = 0; i < n; ++i) y[i] = std::pow(x[i], 1.5);
      break;
  }
}

void run_sve(LoopKind kind, LoopData& d) {
  namespace sv = ookami::sve;
  namespace vm = ookami::vecmath;
  const std::size_t n = d.n();
  const double* x = d.x.data();
  double* y = d.y.data();

  // Fig. 1 kinds run on the variant "loops.fig1" resolves to; the math
  // kinds already dispatch inside vecmath's array drivers.
  switch (kind) {
    case LoopKind::kSimple:
    case LoopKind::kPredicate:
    case LoopKind::kGather:
    case LoopKind::kScatter:
    case LoopKind::kShortGather:
    case LoopKind::kShortScatter:
      if (Fig1Fn* fn = kFig1Table.resolve()) {
        fn(kind, x, y, d.index.empty() ? nullptr : d.index.data(), n);
        return;
      }
      break;
    default:
      break;
  }

  switch (kind) {
    case LoopKind::kSimple:
      for (std::size_t i = 0; i < n; i += sv::kLanes) {
        const sv::Pred pg = sv::whilelt(i, n);
        const sv::Vec v = sv::ld1(pg, x + i);
        const sv::Vec r = sv::fma(sv::Vec(3.0) * v, v, sv::Vec(2.0) * v);
        sv::st1(pg, y + i, r);
      }
      break;
    case LoopKind::kPredicate:
      for (std::size_t i = 0; i < n; i += sv::kLanes) {
        const sv::Pred pg = sv::whilelt(i, n);
        const sv::Vec v = sv::ld1(pg, x + i);
        const sv::Pred keep = sv::cmpgt(pg, v, sv::Vec(0.0));
        sv::st1(keep, y + i, v);  // mask-governed store: untouched lanes keep y
      }
      break;
    case LoopKind::kGather:
    case LoopKind::kShortGather:
      for (std::size_t i = 0; i < n; i += sv::kLanes) {
        const sv::Pred pg = sv::whilelt(i, n);
        sv::st1(pg, y + i, sv::gather(pg, x, d.index.data() + i));
      }
      break;
    case LoopKind::kScatter:
    case LoopKind::kShortScatter:
      for (std::size_t i = 0; i < n; i += sv::kLanes) {
        const sv::Pred pg = sv::whilelt(i, n);
        sv::scatter(pg, y, d.index.data() + i, sv::ld1(pg, x + i));
      }
      break;
    case LoopKind::kRecip:
      vm::recip_array({x, n}, {y, n}, vm::DivSqrtStrategy::kNewton);
      break;
    case LoopKind::kSqrt:
      vm::sqrt_array({x, n}, {y, n}, vm::DivSqrtStrategy::kNewton);
      break;
    case LoopKind::kExp:
      vm::exp_array({x, n}, {y, n});
      break;
    case LoopKind::kSin:
      vm::sin_array({x, n}, {y, n});
      break;
    case LoopKind::kPow: {
      avec<double> e(n, 1.5);
      vm::pow_array({x, n}, {e.data(), n}, {y, n});
      break;
    }
  }
}

double max_ulp_scalar_vs_sve(LoopKind kind, std::size_t n, std::uint64_t seed) {
  LoopData a = make_loop_data(kind, n, seed);
  LoopData b = make_loop_data(kind, n, seed);
  run_scalar(kind, a);
  run_sve(kind, b);
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    worst = std::max(worst,
                     static_cast<double>(vecmath::ulp_distance(a.y[i], b.y[i])));
  }
  return worst;
}

}  // namespace ookami::loops
