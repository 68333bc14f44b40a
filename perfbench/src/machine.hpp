#pragma once
// The benchmark's own machine references: denominators for the
// per-layer fractions, measured on this host (never taken from the
// program's perf models).

#include <cstddef>

namespace perfbench {

/// Last-level cache size in bytes as the OS reports it (0 if unknown).
std::size_t llc_bytes();

struct TriadResult {
  double gbs = 0.0;              ///< median over repeats, 24 bytes per element
  std::size_t array_bytes = 0;   ///< size of each of the three arrays
};

/// STREAM triad a = b + s*c on `threads` threads of the benchmark's own,
/// each array at least 4x the last-level cache.
TriadResult triad(unsigned threads);

/// Peak double-precision FMA throughput of one core, GFLOP/s, from an
/// FMA loop with enough independent chains to hide the latency.
double fma_gflops();

}  // namespace perfbench
