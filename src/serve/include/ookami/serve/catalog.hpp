#pragma once
// Serving catalog: the kernels ookamid can execute by name.
//
// The dispatch registry (PR 5) makes every native kernel addressable,
// but its entries are *typed* call sites — each module owns its own
// argument marshalling.  Serving needs one uniform shape: given a
// problem size and a seed, build deterministic inputs, run the kernel,
// and reduce the output to a digest.  The catalog is that adapter
// layer: one entry per servable kernel, each with
//
//   * a deterministic input recipe (CounterRng streams keyed by the
//     request seed, so equal requests are bit-reproducible; the
//     npb.cg.spmv operator depends only on n and is shared read-only
//     by every job at that n, while the seed picks x),
//   * a batch runner that executes any number of admitted requests in
//     ONE blocked parallel_for over the requests — this is the request
//     coalescing mechanism: a batch of B element-wise jobs costs one
//     fork/join and spreads the B jobs across the pool's workers,
//     where serving them one at a time would pay B fork/joins and keep
//     at most one worker busy per request,
//   * a max problem size, so a single request cannot wedge the daemon.
//
// Batching invariant (tested): each job is computed entirely inside
// one worker chunk from inputs derived only from (kernel, n, seed), so
// a request's digest is bit-identical whether it ran alone or
// coalesced with any set of compatible neighbours.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ookami/common/threadpool.hpp"

namespace ookami::serve {

/// One admitted request's compute payload; `digest` is filled by the
/// batch runner.
struct BatchItem {
  std::size_t n = 0;
  std::uint64_t seed = 1;
  std::uint64_t digest = 0;
};

/// Run every item of the batch (each item self-contained; see the
/// batching invariant above).
using BatchFn = void (*)(std::span<BatchItem> items, ThreadPool& pool);

struct ServableKernel {
  std::string name;       ///< dispatch-registry kernel name
  BatchFn run = nullptr;
  std::size_t max_n = 0;  ///< inclusive problem-size cap per request
};

/// Immutable process-wide catalog.
class Catalog {
 public:
  static const Catalog& global();

  /// nullptr when the kernel is not servable.
  [[nodiscard]] const ServableKernel* find(std::string_view name) const;
  [[nodiscard]] const std::vector<ServableKernel>& kernels() const { return kernels_; }
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  Catalog();
  std::vector<ServableKernel> kernels_;
};

/// The digest reduction: a four-lane word-at-a-time hash over the bit
/// patterns of `n` doubles, with `n` folded in.  Any one changed word
/// changes the value.  The value is wire format: it appears in every
/// /run response.
std::uint64_t digest_doubles(const double* data, std::size_t n);

}  // namespace ookami::serve
