#pragma once
// Bit-exact emulation of the SVE FEXPA (floating-point exponential
// accelerator) instruction for float64, plus the FRECPE / FRSQRTE
// low-precision estimate instructions and their Newton-step companions
// FRECPS / FRSQRTS.
//
// FEXPA (double precision) interprets each 64-bit source lane as:
//     bits [5:0]   index i into a 64-entry table of the fraction bits
//                  of 2^(i/64)
//     bits [16:6]  an 11-bit biased exponent e
// and produces the double whose exponent field is e and whose fraction
// field is table[i] — i.e. 2^(e-1023) * 2^(i/64) for in-range inputs.
// This turns the scaling step of exp(x) = 2^(m + i/64) * exp(r) into a
// single instruction and is the key to the paper's 2-cycles-per-element
// exponential (Section IV).

#include <cstdint>

#include "ookami/sve/sve.hpp"

namespace ookami::sve {

/// The 64-entry FEXPA coefficient table: fraction bits (low 52 bits) of
/// the correctly rounded double 2^(i/64), i = 0..63.  A constant
/// expression, so every FEXPA loop reads it as an address, never through
/// a call (tests/sve_test.cpp checks each entry against std::exp2).
alignas(64) inline constexpr std::uint64_t kFexpaTable[64] = {
    0x0000000000000ull, 0x02c9a3e778061ull, 0x059b0d3158574ull, 0x0874518759bc8ull,
    0x0b5586cf9890full, 0x0e3ec32d3d1a2ull, 0x11301d0125b51ull, 0x1429aaea92de0ull,
    0x172b83c7d517bull, 0x1a35beb6fcb75ull, 0x1d4873168b9aaull, 0x2063b88628cd6ull,
    0x2387a6e756238ull, 0x26b4565e27cddull, 0x29e9df51fdee1ull, 0x2d285a6e4030bull,
    0x306fe0a31b715ull, 0x33c08b26416ffull, 0x371a7373aa9cbull, 0x3a7db34e59ff7ull,
    0x3dea64c123422ull, 0x4160a21f72e2aull, 0x44e086061892dull, 0x486a2b5c13cd0ull,
    0x4bfdad5362a27ull, 0x4f9b2769d2ca7ull, 0x5342b569d4f82ull, 0x56f4736b527daull,
    0x5ab07dd485429ull, 0x5e76f15ad2148ull, 0x6247eb03a5585ull, 0x6623882552225ull,
    0x6a09e667f3bcdull, 0x6dfb23c651a2full, 0x71f75e8ec5f74ull, 0x75feb564267c9ull,
    0x7a11473eb0187ull, 0x7e2f336cf4e62ull, 0x82589994cce13ull, 0x868d99b4492edull,
    0x8ace5422aa0dbull, 0x8f1ae99157736ull, 0x93737b0cdc5e5ull, 0x97d829fde4e50ull,
    0x9c49182a3f090ull, 0xa0c667b5de565ull, 0xa5503b23e255dull, 0xa9e6b5579fdbfull,
    0xae89f995ad3adull, 0xb33a2b84f15fbull, 0xb7f76f2fb5e47ull, 0xbcc1e904bc1d2ull,
    0xc199bdd85529cull, 0xc67f12e57d14bull, 0xcb720dcef9069ull, 0xd072d4a07897cull,
    0xd5818dcfba487ull, 0xda9e603db3285ull, 0xdfc97337b9b5full, 0xe502ee78b3ff6ull,
    0xea4afa2a490daull, 0xefa1bee615a27ull, 0xf50765b6e4540ull, 0xfa7c1819e90d8ull,
};
static_assert(kFexpaTable[32] == 0x6a09e667f3bcdull, "2^(1/2): fraction bits of sqrt(2)");

/// FEXPA on one 64-bit lane value.
std::uint64_t fexpa_scalar(std::uint64_t bits);

/// FEXPA on a vector of 64-bit lane values.
Vec fexpa(const VecU64& u);

// ---------------------------------------------------------------------------
// Reciprocal / reciprocal-sqrt estimate instructions
// ---------------------------------------------------------------------------

/// FRECPE: ~8-bit reciprocal estimate of each lane (the starting point
/// of the Newton division the Fujitsu/Cray compilers emit instead of the
/// blocking FDIV).
Vec frecpe(const Vec& a);

/// FRECPS: Newton step coefficient 2 - a*b (fused).
Vec frecps(const Vec& a, const Vec& b);

/// FRSQRTE: ~8-bit reciprocal square-root estimate of each lane.
Vec frsqrte(const Vec& a);

/// FRSQRTS: Newton step coefficient (3 - a*b) / 2 (fused).
Vec frsqrts(const Vec& a, const Vec& b);

}  // namespace ookami::sve
