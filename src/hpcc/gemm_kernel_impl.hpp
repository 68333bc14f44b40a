#pragma once
// Arch-templated packed DGEMM (GotoBLAS/BLIS structure), instantiated
// once per native backend from gemm_backend_*.cpp.  Never included from
// a baseline-flags TU with a wider-than-baseline arch parameter.
//
// Loop structure (row-major C = A*B, all n x n):
//
//   for pc in [0, n) step KC:          // K panel, packed B reused across ic
//     pack B[pc:pc+kc, :] into NR-column strips (zero-padded)
//     for ic in [0, n) step MC:        // M block, packed A lives in L2
//       pack A[ic:ic+mc, pc:pc+kc] into MR-row strips (zero-padded)
//       for jr strips of NR, ir strips of MR:
//         C[ir tile, jr tile] += Ap strip * Bp strip   (register kernel)
//
// The register kernel holds an MR x NR accumulator tile: MR=8 batches of
// NR=4 doubles = 8 ymm accumulators on AVX2, plus one B vector and one
// broadcast A value -- 10 of 16 vector registers.  K-blocking (KC) keeps
// each packed B strip resident in L1/L2 while it is swept MR rows at a
// time; zero padding on both packings means the kernel never branches on
// edge tiles, only the writeback does.
//
// kTuned threads over ic blocks: each block writes a disjoint row band
// of C, and each worker packs its own A block (packed B is shared and
// read-only), so no synchronisation beyond the pool join is needed.

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "ookami/common/aligned.hpp"
#include "ookami/common/threadpool.hpp"
#include "ookami/simd/batch.hpp"
#include "ookami/simd/batch_avx2.hpp"
#include "ookami/simd/batch_avx512.hpp"

namespace ookami::hpcc::detail {

/// Micro-tile width per arch: always one batch, so the register kernel
/// keeps its MR accumulators in MR vector registers.  The 512-bit arch
/// takes NR=8 (one zmm per accumulator row — 8 accumulators + the B
/// vector + the A broadcast use 10 of 32 registers); AVX2 keeps the
/// 4-column tile that fits its 16 ymm registers.
template <class A>
struct GemmTile {
  static constexpr std::size_t NR = 4;
};
template <>
struct GemmTile<simd::arch::avx512> {
  static constexpr std::size_t NR = 8;
};

template <class A>
struct PackedGemm {
  static constexpr std::size_t MR = 8;   // micro-tile rows
  static constexpr std::size_t NR = GemmTile<A>::NR;  // micro-tile cols (one batch)
  static constexpr std::size_t KC = 256; // K block: Bp strip = 8-16 KB
  static constexpr std::size_t MC = 64;  // M block: Ap block = 128 KB max

  using V = simd::batch<double, NR, A>;

  /// Pack an mc x kc block of A (row-major, leading dim lda) into MR-row
  /// strips: ap[strip][k*MR + i] = A[i0+i, k], rows past mc zero-padded.
  static void pack_a(std::size_t mc, std::size_t kc, const double* a, std::size_t lda,
                     double* ap) {
    for (std::size_t i0 = 0; i0 < mc; i0 += MR) {
      const std::size_t mr = std::min(MR, mc - i0);
      for (std::size_t k = 0; k < kc; ++k) {
        for (std::size_t i = 0; i < mr; ++i) ap[k * MR + i] = a[(i0 + i) * lda + k];
        for (std::size_t i = mr; i < MR; ++i) ap[k * MR + i] = 0.0;
      }
      ap += kc * MR;
    }
  }

  /// Pack a kc x nc block of B (row-major, leading dim ldb) into NR-column
  /// strips: bp[strip][k*NR + j] = B[k, j0+j], cols past nc zero-padded.
  static void pack_b(std::size_t kc, std::size_t nc, const double* b, std::size_t ldb,
                     double* bp) {
    for (std::size_t j0 = 0; j0 < nc; j0 += NR) {
      const std::size_t nr = std::min(NR, nc - j0);
      for (std::size_t k = 0; k < kc; ++k) {
        for (std::size_t j = 0; j < nr; ++j) bp[k * NR + j] = b[k * ldb + j0 + j];
        for (std::size_t j = nr; j < NR; ++j) bp[k * NR + j] = 0.0;
      }
      bp += kc * NR;
    }
  }

  /// Register kernel: C[0:mr, 0:nr] += Ap strip x Bp strip over kc.
  /// Always computes the full padded MR x NR tile (padding contributes
  /// exact zeros); only the writeback respects the mr/nr edge.
  static void micro(std::size_t kc, const double* ap, const double* bp, double* c,
                    std::size_t ldc, std::size_t mr, std::size_t nr) {
    V acc[MR];
#pragma GCC unroll 8
    for (std::size_t i = 0; i < MR; ++i) acc[i] = V::dup(0.0);
    for (std::size_t k = 0; k < kc; ++k) {
      const V bv = V::load(bp + k * NR);
      const double* arow = ap + k * MR;
      // Full unroll keeps the 8 accumulators in registers at -O2.
#pragma GCC unroll 8
      for (std::size_t i = 0; i < MR; ++i) {
        acc[i] = simd::fma(V::dup(arow[i]), bv, acc[i]);
      }
    }
    if (mr == MR && nr == NR) {
      for (std::size_t i = 0; i < MR; ++i) {
        double* crow = c + i * ldc;
        (V::load(crow) + acc[i]).store(crow);
      }
    } else {
      double tmp[NR];
      for (std::size_t i = 0; i < mr; ++i) {
        acc[i].store(tmp);
        for (std::size_t j = 0; j < nr; ++j) c[i * ldc + j] += tmp[j];
      }
    }
  }

  /// One MC row block against the packed B panel for the current K block.
  static void block(std::size_t n, std::size_t ic, std::size_t mc, std::size_t kc,
                    const double* a, const double* bp, double* c, double* ap) {
    pack_a(mc, kc, a + ic * n, n, ap);
    for (std::size_t jr = 0; jr < n; jr += NR) {
      const std::size_t nr = std::min(NR, n - jr);
      const double* bstrip = bp + (jr / NR) * kc * NR;
      for (std::size_t ir = 0; ir < mc; ir += MR) {
        const std::size_t mr = std::min(MR, mc - ir);
        micro(kc, ap + (ir / MR) * kc * MR, bstrip, c + (ic + ir) * n + jr, n, mr, nr);
      }
    }
  }

  static void run(std::size_t n, const double* a, const double* b, double* c,
                  ThreadPool* pool) {
    std::memset(c, 0, n * n * sizeof(double));
    const std::size_t nc_pad = (n + NR - 1) / NR * NR;
    avec<double> bp(KC * nc_pad);
    for (std::size_t pc = 0; pc < n; pc += KC) {
      const std::size_t kc = std::min(KC, n - pc);
      pack_b(kc, n, b + pc * n, n, bp.data());
      const std::size_t nbi = (n + MC - 1) / MC;
      if (pool == nullptr) {
        avec<double> ap(MC * KC);
        for (std::size_t bi = 0; bi < nbi; ++bi) {
          const std::size_t ic = bi * MC;
          block(n, ic, std::min(MC, n - ic), kc, a + pc, bp.data(), c, ap.data());
        }
      } else {
        pool->parallel_for(0, nbi, [&](std::size_t b0, std::size_t e0, unsigned) {
          avec<double> ap(MC * KC);  // per-worker scratch
          for (std::size_t bi = b0; bi < e0; ++bi) {
            const std::size_t ic = bi * MC;
            block(n, ic, std::min(MC, n - ic), kc, a + pc, bp.data(), c, ap.data());
          }
        });
      }
    }
  }
};

}  // namespace ookami::hpcc::detail
