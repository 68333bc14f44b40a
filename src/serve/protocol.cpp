#include "ookami/serve/protocol.hpp"

#include <cmath>
#include <cstdio>

#include "ookami/common/json.hpp"

namespace ookami::serve {

const char* error_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone: return "ok";
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kUnknownKernel: return "unknown_kernel";
    case ErrorCode::kNotFound: return "not_found";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kDraining: return "draining";
    case ErrorCode::kInternal: return "internal";
  }
  return "internal";
}

int http_status(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone: return 200;
    case ErrorCode::kBadRequest: return 400;
    case ErrorCode::kUnknownKernel: return 404;
    case ErrorCode::kNotFound: return 404;
    case ErrorCode::kOverloaded: return 429;
    case ErrorCode::kDraining: return 503;
    case ErrorCode::kInternal: return 500;
  }
  return 500;
}

ErrorCode parse_request(const std::string& body, Request& out, std::string& error) {
  json::Value doc;
  try {
    doc = json::Value::parse(body);
  } catch (const json::ParseError& e) {
    error = std::string("malformed JSON: ") + e.what();
    return ErrorCode::kBadRequest;
  }
  if (!doc.is_object()) {
    error = "request body must be a JSON object";
    return ErrorCode::kBadRequest;
  }
  const json::Value* kernel = doc.find("kernel");
  if (kernel == nullptr || !kernel->is_string() || kernel->as_string().empty()) {
    error = "missing string field 'kernel'";
    return ErrorCode::kBadRequest;
  }
  out.kernel = kernel->as_string();
  const json::Value* n = doc.find("n");
  if (n == nullptr || !n->is_number() || !(n->as_number() >= 1.0) ||
      std::floor(n->as_number()) != n->as_number()) {
    error = "missing positive integer field 'n'";
    return ErrorCode::kBadRequest;
  }
  out.n = static_cast<std::size_t>(n->as_number());
  out.seed = 1;
  if (const json::Value* seed = doc.find("seed"); seed != nullptr) {
    if (!seed->is_number() || !(seed->as_number() >= 0.0)) {
      error = "'seed' must be a non-negative integer";
      return ErrorCode::kBadRequest;
    }
    out.seed = static_cast<std::uint64_t>(seed->as_number());
  }
  out.has_backend = false;
  if (const json::Value* backend = doc.find("backend"); backend != nullptr) {
    if (!backend->is_string() || !simd::parse_backend(backend->as_string(), out.backend)) {
      error = std::string("'backend' must be one of ") + simd::kBackendNames;
      return ErrorCode::kBadRequest;
    }
    out.has_backend = true;
  }
  return ErrorCode::kNone;
}

std::string ok_body(const Response& r) {
  json::Value doc = json::Value::object();
  doc.set("status", "ok");
  doc.set("kernel", r.kernel);
  doc.set("n", static_cast<unsigned long long>(r.n));
  doc.set("seed", static_cast<unsigned long long>(r.seed));
  doc.set("backend", r.backend);
  doc.set("digest", r.digest);
  if (!r.trace.empty()) doc.set("trace", r.trace);
  doc.set("batch", static_cast<unsigned long long>(r.batch));
  doc.set("queue_us", r.queue_us);
  doc.set("run_us", r.run_us);
  doc.set("total_us", r.total_us);
  return doc.dump(0);
}

std::string error_body(ErrorCode code, const std::string& message) {
  json::Value doc = json::Value::object();
  doc.set("status", "error");
  doc.set("error", error_name(code));
  doc.set("message", message);
  return doc.dump(0);
}

std::string digest_hex(std::uint64_t digest) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(digest));
  return buf;
}

}  // namespace ookami::serve
