#pragma once
// Arch-templated check bodies, instantiated in simd_test_avx2.cpp and
// simd_test_avx512.cpp (the batch specializations, and with them the
// sve_api veneer, are preprocessor-gated on __AVX2__ / __AVX512F__) and
// called from simd_test.cpp after a runtime CPU check.  Every op is
// checked against one reference: the ookami::sve instruction model
// where the interpreter has the op, else the per-lane libm expression
// the op contract in batch.hpp names.  The gtest EXPECT/ASSERT macros
// work from any TU linked into the test binary.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "ookami/common/rng.hpp"
#include "ookami/simd/sve.hpp"
#include "ookami/sve/fexpa.hpp"
#include "ookami/sve/sve.hpp"

namespace ookami::simd::testing {

inline std::uint64_t bits_of(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

/// Inputs covering the special-value corners every op must preserve.
inline std::vector<double> special_inputs() {
  std::vector<double> v = {0.0,
                           -0.0,
                           1.0,
                           -1.0,
                           0.5,
                           -2.5,
                           1e300,
                           -1e300,
                           1e-300,
                           4.9406564584124654e-324,  // min subnormal
                           -4.9406564584124654e-324,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::min()};
  Xoshiro256 rng(7);
  std::vector<double> r(64);
  fill_uniform({r.data(), r.size()}, -1e6, 1e6, rng);
  v.insert(v.end(), r.begin(), r.end());
  return v;
}

template <class A>
void expect_batch_matches_scalar() {
  using V = batch<double, 8, A>;
  using M = mask<8, A>;
  const sve::Pred all = sve::ptrue();
  const auto xs = special_inputs();
  for (std::size_t base = 0; base + 16 <= xs.size(); base += 8) {
    const double* px = xs.data() + base;
    const double* py = xs.data() + base + 8;
    const V a = V::load(px), b = V::load(py);
    const sve::Vec as = sve::ld1(all, px), bs = sve::ld1(all, py);
    auto same = [&](const V& got, const sve::Vec& want, const char* what) {
      const auto g = got.to_array();
      for (int l = 0; l < 8; ++l) {
        EXPECT_EQ(bits_of(g[static_cast<std::size_t>(l)]), bits_of(want[l]))
            << what << " lane " << l << " base " << base;
      }
    };
    // The per-lane expression for ops the interpreter lacks.
    auto lanewise = [&](auto op) {
      sve::Vec r;
      for (int l = 0; l < 8; ++l) r[l] = op(as[l], bs[l]);
      return r;
    };
    same(a + b, as + bs, "add");
    same(a - b, as - bs, "sub");
    same(a * b, as * bs, "mul");
    same(a / b, as / bs, "div");
    same(-a, -as, "neg");
    same(fma(a, b, a), sve::fma(as, bs, as), "fma");
    same(frintn(a), sve::frintn(as), "frintn");
    const M pg = M::ptrue();
    same(sel(cmpgt(pg, a, b), a, b), sve::sel(sve::cmpgt(all, as, bs), as, bs), "sel/cmpgt");
    same(sel(cmpuo(pg, a), a, b), sve::sel(sve::cmpuo(all, as), as, bs), "sel/cmpuo");
    same(abs(a), lanewise([](double x, double) { return std::fabs(x); }), "abs");
    same(min(a, b), lanewise([](double x, double y) { return x < y ? x : y; }), "min");
    same(max(a, b), lanewise([](double x, double y) { return x > y ? x : y; }), "max");
    same(sqrt(abs(a)), lanewise([](double x, double) { return std::sqrt(std::fabs(x)); }), "sqrt");
    same(copysign(a, b), lanewise([](double x, double y) { return std::copysign(x, y); }),
         "copysign");
    // reduce_add is the contract's pairwise tree; reduce_add_ordered is
    // sve::reduce_add.
    std::array<double, 8> tree = as.v;
    for (std::size_t n = 8; n > 1; n /= 2) {
      for (std::size_t i = 0; i < n / 2; ++i) tree[i] += tree[i + n / 2];
    }
    EXPECT_EQ(bits_of(reduce_add(a)), bits_of(tree[0])) << "reduce_add base " << base;
    EXPECT_EQ(bits_of(reduce_add_ordered(pg, a)), bits_of(sve::reduce_add(all, as)))
        << "reduce_add_ordered base " << base;
  }
}

template <class A>
void expect_whilelt_and_tail() {
  using V = batch<double, 8, A>;
  using M = mask<8, A>;
  double src[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (std::size_t cnt = 0; cnt <= 8; ++cnt) {
    const M pg = M::whilelt(0, cnt);
    EXPECT_EQ(pg.any(), cnt > 0);
    EXPECT_EQ(pg.all(), cnt == 8);
    for (int l = 0; l < 8; ++l) EXPECT_EQ(pg.lane(l), static_cast<std::size_t>(l) < cnt);
    // ld1 zeroes inactive lanes; st1 leaves inactive memory untouched.
    const V v = V::ld1(pg, src);
    const auto arr = v.to_array();
    for (int l = 0; l < 8; ++l) {
      EXPECT_EQ(arr[static_cast<std::size_t>(l)],
                static_cast<std::size_t>(l) < cnt ? src[l] : 0.0);
    }
    double dst[8] = {-1, -1, -1, -1, -1, -1, -1, -1};
    v.st1(pg, dst);
    for (int l = 0; l < 8; ++l) {
      EXPECT_EQ(dst[l], static_cast<std::size_t>(l) < cnt ? src[l] : -1.0);
    }
  }
}

template <class A>
void expect_gather_scatter_edges() {
  using V = batch<double, 8, A>;
  using M = mask<8, A>;
  // Unaligned base: a table deliberately offset off 256-byte alignment.
  alignas(256) double storage[64 + 1];
  double* table = storage + 1;
  for (int i = 0; i < 64; ++i) table[i] = 100.0 + i;

  // u32 gather with a partial final predicate.
  const std::uint32_t idx32[8] = {63, 0, 17, 5, 41, 2, 30, 9};
  const M tail = M::whilelt(0, 5);
  const auto g32 = V::gather(tail, table, idx32).to_array();
  for (int l = 0; l < 8; ++l) {
    EXPECT_EQ(g32[static_cast<std::size_t>(l)], l < 5 ? table[idx32[l]] : 0.0) << "lane " << l;
  }

  // s64 gather with negative offsets relative to an interior base
  // pointer; inactive lanes carry out-of-range indices that must never
  // be dereferenced.
  const double* mid = table + 32;
  const std::int64_t idx64[8] = {-32, -1, 0, 31, -17, 1 << 20, -(1 << 20), 7};
  const M neg = M::whilelt(0, 5);
  const auto g64 = V::gather(neg, mid, idx64).to_array();
  for (int l = 0; l < 5; ++l) {
    EXPECT_EQ(g64[static_cast<std::size_t>(l)], mid[idx64[l]]) << "lane " << l;
  }
  for (int l = 5; l < 8; ++l) EXPECT_EQ(g64[static_cast<std::size_t>(l)], 0.0);

  // Scatter: partial predicate must leave non-addressed memory alone,
  // and negative s64 offsets must land correctly.
  double out[64];
  for (int i = 0; i < 64; ++i) out[i] = -1.0;
  const V vals = V::from_array({1, 2, 3, 4, 5, 6, 7, 8});
  vals.scatter(M::whilelt(0, 5), out + 32, idx64);
  EXPECT_EQ(out[0], 1.0);    // -32
  EXPECT_EQ(out[31], 2.0);   // -1
  EXPECT_EQ(out[32], 3.0);   // 0
  EXPECT_EQ(out[63], 4.0);   // 31
  EXPECT_EQ(out[15], 5.0);   // -17
  int touched = 0;
  for (int i = 0; i < 64; ++i) touched += out[i] != -1.0;
  EXPECT_EQ(touched, 5);
}

/// Bit patterns whose low 17 bits sweep every (table index, exponent)
/// combination FEXPA actually reads, plus random high bits (which the
/// op must ignore) and the subnormal/boundary corners.
template <class A>
void expect_fexpa_bit_identical() {
  using SV = sve_api<A>;
  Xoshiro256 rng(11);
  std::vector<std::uint64_t> patterns;
  patterns.reserve((1u << 17) + 64);
  for (std::uint64_t low = 0; low < (1u << 17); ++low) {
    // fexpa consumes bits [0,6) (table) and [6,17) (exponent): keep the
    // full low sweep and scramble the ignored high bits.
    patterns.push_back(low | (rng() << 17));
  }
  // Boundary exponents: results underflow to subnormals / overflow.
  for (std::uint64_t e : {0ull, 1ull, 2ull, 0x7feull, 0x7ffull}) {
    for (std::uint64_t t : {0ull, 1ull, 62ull, 63ull}) patterns.push_back((e << 6) | t);
  }
  for (std::size_t base = 0; base + 8 <= patterns.size(); base += 8) {
    sve::VecU64 u;
    std::array<std::int64_t, 8> ui{};
    for (int l = 0; l < 8; ++l) {
      u[l] = patterns[base + static_cast<std::size_t>(l)];
      ui[static_cast<std::size_t>(l)] = static_cast<std::int64_t>(u[l]);
    }
    const sve::Vec ref = sve::fexpa(u);
    const auto got = SV::fexpa(batch<std::int64_t, 8, A>::from_array(ui)).to_array();
    for (int l = 0; l < 8; ++l) {
      ASSERT_EQ(bits_of(got[static_cast<std::size_t>(l)]), bits_of(ref[l]))
          << "fexpa pattern " << std::hex << u[l];
    }
  }
}

template <class A>
void expect_estimates_bit_identical() {
  using SV = sve_api<A>;
  std::vector<double> xs = special_inputs();
  xs.push_back(2.2250738585072014e-308);  // min normal
  xs.push_back(-2.2250738585072014e-308);
  while (xs.size() % 8 != 0) xs.push_back(1.0);
  for (std::size_t base = 0; base < xs.size(); base += 8) {
    sve::Vec v;
    for (int l = 0; l < 8; ++l) v[l] = xs[base + static_cast<std::size_t>(l)];
    const auto bv = batch<double, 8, A>::load(xs.data() + base);
    const sve::Vec r1 = sve::frecpe(v);
    const auto g1 = SV::frecpe(bv).to_array();
    const sve::Vec r2 = sve::frsqrte(v);
    const auto g2 = SV::frsqrte(bv).to_array();
    for (int l = 0; l < 8; ++l) {
      EXPECT_EQ(bits_of(g1[static_cast<std::size_t>(l)]), bits_of(r1[l]))
          << "frecpe(" << v[l] << ")";
      EXPECT_EQ(bits_of(g2[static_cast<std::size_t>(l)]), bits_of(r2[l]))
          << "frsqrte(" << v[l] << ")";
    }
  }
}

}  // namespace ookami::simd::testing
