#pragma once
// Wire protocol of the ookamid kernel-serving daemon.
//
// A request is one HTTP POST /run with a small JSON body:
//
//   {"kernel": "vecmath.exp", "n": 65536, "seed": 1, "backend": "avx2"}
//
// `kernel` must name an entry of the serving catalog (a subset of the
// dispatch registry with a deterministic input recipe per kernel),
// `n` is the problem size in the kernel's own units (elements, rows,
// matrix dimension), `seed` (optional, default 1) picks the
// deterministic input stream, and `backend` (optional) constrains the
// SIMD variant the way OOKAMI_SIMD_BACKEND would, clamped to what the
// machine supports.
//
// A success response carries the result digest — a 64-bit hash of the
// output bits (serve::digest_doubles), so two requests with equal
// (kernel, n, seed, effective backend) must report equal digests — plus
// the serving breakdown: time spent queued, time in the kernel batch,
// and how many coalesced requests shared that batch.
//
// Errors are *typed*: every failure mode the admission path can hit has
// a stable `error` token and a fixed HTTP status, so load generators
// and tests can count rejection kinds without parsing prose.
//
//   bad_request     400   malformed JSON / missing field / n out of range
//   unknown_kernel  404   kernel not in the serving catalog
//   not_found       404   no such resource (e.g. /trace/<id> not in ring)
//   overloaded      429   admission queue at capacity (backpressure)
//   draining        503   daemon is shutting down, no new admissions
//   internal        500   kernel execution threw

#include <cstddef>
#include <cstdint>
#include <string>

#include "ookami/simd/backend.hpp"

namespace ookami::serve {

enum class ErrorCode {
  kNone,
  kBadRequest,
  kUnknownKernel,
  kNotFound,
  kOverloaded,
  kDraining,
  kInternal,
};

/// Stable wire token for the error ("bad_request", "overloaded", ...).
const char* error_name(ErrorCode code);

/// HTTP status the error maps to (200 for kNone).
int http_status(ErrorCode code);

/// Parsed POST /run body.
struct Request {
  std::string kernel;
  std::size_t n = 0;
  std::uint64_t seed = 1;
  bool has_backend = false;               ///< was a backend constraint given?
  simd::Backend backend = simd::Backend::kScalar;
};

/// Parse and validate a /run body.  Returns kNone on success, else
/// kBadRequest with a human-readable reason in `error`.
ErrorCode parse_request(const std::string& body, Request& out, std::string& error);

/// One served request's result, as reported to the client.
struct Response {
  std::string kernel;
  std::size_t n = 0;
  std::uint64_t seed = 1;
  std::string backend;      ///< post-clamp SIMD variant the batch resolved
  std::string digest;       ///< hex digest_doubles of the output bits
  std::string trace;        ///< 16-hex per-request trace id (GET /trace/<id>)
  std::size_t batch = 1;    ///< requests coalesced into the same kernel run
  double queue_us = 0.0;    ///< admission -> dequeue
  double run_us = 0.0;      ///< kernel batch wall time
  double total_us = 0.0;    ///< admission -> response assembly
};

/// JSON body of a 200 response.
std::string ok_body(const Response& r);

/// JSON body of a typed error response:
/// {"status":"error","error":"<token>","message":"..."}.
std::string error_body(ErrorCode code, const std::string& message);

/// Format a 64-bit digest as fixed-width lowercase hex.
std::string digest_hex(std::uint64_t digest);

}  // namespace ookami::serve
