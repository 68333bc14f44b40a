#pragma once
// Runtime backend selection for the fixed-width SIMD layer.
//
// Which backends exist in the binary is a compile-time fact (the per-arch
// kernel TUs are only built when the toolchain supports the ISA); which
// of those the CPU can run is probed once via CPUID.  The active backend
// is, in priority order:
//
//   1. a ScopedBackend override (tests forcing a specific backend),
//   2. the OOKAMI_SIMD_BACKEND environment variable ("scalar", "avx2",
//      "avx512"), read once at first use; an unknown name is reported on
//      stderr and ignored,
//   3. the best compiled-in backend the CPU supports.
//
// Requests for a backend that is not compiled in or not supported by the
// CPU are clamped down to the best available one — never an error, so a
// BENCH job forced to "avx2" on an old machine still runs (and records
// the backend it actually used).

#include <string_view>

namespace ookami::simd {

enum class Backend : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// Stable lower-case name ("scalar", "avx2", "avx512") for env/JSON.
const char* backend_name(Backend b);

/// Every name parse_backend() accepts, for error messages.
inline constexpr const char* kBackendNames = "scalar, avx2, avx512";

/// Parse a backend name; returns false and leaves `out` untouched on an
/// unknown name.  Case-sensitive by design: these are JSON/env tokens.
bool parse_backend(std::string_view name, Backend& out);

/// True if this binary contains kernels for `b`.
bool backend_compiled(Backend b);

/// True if the CPU can execute `b` (CPUID probe; scalar is always true).
bool backend_supported(Backend b);

/// Best backend that is both compiled in and CPU-supported.
Backend detected_backend();

/// The backend dispatch should use right now, by the priority order
/// above.  The kernel registry (ookami::dispatch) walks each kernel down
/// from it to the best supported variant that kernel registered.
Backend active_backend();

/// Clamp `b` to the best available backend that does not exceed it.
Backend clamp_backend(Backend b);

/// RAII override for tests: forces `active_backend()` to (the clamp of)
/// `b` for the object's lifetime, then restores the previous state.
/// `effective()` reports what the override actually resolved to.
class ScopedBackend {
 public:
  explicit ScopedBackend(Backend b);
  ~ScopedBackend();
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;
  [[nodiscard]] Backend effective() const { return effective_; }

 private:
  int prev_;  // encoded previous override (-1 == none)
  Backend effective_;
};

}  // namespace ookami::simd
