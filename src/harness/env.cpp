// Machine/build environment capture for the harness result files.
// Build-configuration facts (flags, build type, git revision) arrive as
// compile definitions from src/harness/CMakeLists.txt; runtime facts
// come from uname/gethostname and the CPU affinity mask.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>

#include "ookami/common/threadpool.hpp"
#include "ookami/harness/harness.hpp"
#include "ookami/simd/backend.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/utsname.h>
#include <unistd.h>
#endif

#ifndef OOKAMI_CXX_FLAGS
#define OOKAMI_CXX_FLAGS ""
#endif
#ifndef OOKAMI_BUILD_TYPE
#define OOKAMI_BUILD_TYPE "unknown"
#endif
#ifndef OOKAMI_GIT_REV
#define OOKAMI_GIT_REV "unknown"
#endif

namespace ookami::harness {

namespace {

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." + std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return std::string("gcc ") + std::to_string(__GNUC__) + "." + std::to_string(__GNUC_MINOR__) +
         "." + std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

std::string iso8601_utc_now() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &now);
#else
  gmtime_r(&now, &tm);
#endif
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

}  // namespace

const std::string& harness_start_utc() {
  static const std::string start = iso8601_utc_now();
  return start;
}

double harness_uptime_s() {
  static const auto anchor = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - anchor).count();
}

Environment capture_environment() {
  // Anchor the process-wide start clock before any per-run capture so
  // the first result file already carries a meaningful duration.
  harness_start_utc();
  harness_uptime_s();
  Environment env;
  // Runtime variables that change what a run measures.  Only set
  // variables are archived; the harness separately records the
  // effective trace on/off state in the environment JSON.
  static const char* const kRelevantEnv[] = {
      "OOKAMI_THREADS",        "OOKAMI_TRACE",     "OOKAMI_SIMD_BACKEND",
      "OOKAMI_KERNEL_BACKEND", "OOKAMI_TASKGRAPH", "OOKAMI_TASKGRAPH_CHUNKS",
      "OOKAMI_SERVE_PORT",     "OOKAMI_SERVE_QUEUE_DEPTH", "OOKAMI_SERVE_BATCH",
      "OOKAMI_SERVE_THREADS",
      "OMP_NUM_THREADS",       "OMP_PROC_BIND",   "OMP_PLACES",
      "GOMP_CPU_AFFINITY",
  };
  for (const char* name : kRelevantEnv) {
    if (const char* value = std::getenv(name)) env.runtime_env.emplace_back(name, value);
  }
  env.compiler = compiler_id();
  env.simd_backend = simd::backend_name(simd::active_backend());
  env.cxx_flags = OOKAMI_CXX_FLAGS;
  env.build_type = OOKAMI_BUILD_TYPE;
  env.git_rev = OOKAMI_GIT_REV;
  env.timestamp_utc = iso8601_utc_now();
  env.hardware_threads = usable_cpus();
#if defined(__unix__) || defined(__APPLE__)
  char host[256] = {};
  if (gethostname(host, sizeof host - 1) == 0) env.host = host;
  utsname uts{};
  if (uname(&uts) == 0) {
    env.os = std::string(uts.sysname) + " " + uts.release;
    env.arch = uts.machine;
  }
#endif
  if (env.host.empty()) env.host = "unknown";
  if (env.os.empty()) env.os = "unknown";
  if (env.arch.empty()) env.arch = "unknown";
  return env;
}

}  // namespace ookami::harness
