#include "stamp.hpp"

#include <sched.h>

#include <cstring>
#include <thread>

#include "ookami/dispatch/autotune.hpp"
#include "ookami/dispatch/registry.hpp"
#include "ookami/harness/harness.hpp"
#include "ookami/simd/backend.hpp"

extern char** environ;

namespace perfbench {

unsigned available_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

Stamp capture_stamp(unsigned threads, const std::string& source_id) {
  const ookami::harness::Environment env = ookami::harness::capture_environment();
  Stamp s;
  s.nproc = available_threads();
  s.threads = threads;
  s.build_type = env.build_type;
  s.cxx_flags = env.cxx_flags;
  s.git_rev = env.git_rev;
  s.source_id = source_id;
  s.compiler = env.compiler;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "OOKAMI_", 7) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    if (eq == nullptr) continue;
    s.ookami_env.emplace_back(std::string(*e, static_cast<std::size_t>(eq - *e)), std::string(eq + 1));
  }
  return s;
}

void refresh_dispatch(Stamp& stamp) {
  stamp.backends.clear();
  for (const auto& k : ookami::dispatch::kernels()) {
    stamp.backends.emplace_back(
        k.name, ookami::simd::backend_name(ookami::dispatch::resolved_backend(k.name)));
  }
  stamp.autotune_table = ookami::dispatch::dump_tune_table();
}

std::vector<std::string> guard_problems(const Stamp& stamp) {
  std::vector<std::string> out;
  for (const auto& [name, value] : stamp.ookami_env) {
    out.push_back(name + "=" + value + " is set; the benchmark measures the program's defaults");
  }
  if (stamp.threads > stamp.nproc) {
    out.push_back("threads " + std::to_string(stamp.threads) + " exceed the " +
                  std::to_string(stamp.nproc) + " hardware threads");
  }
  const bool optimised = stamp.cxx_flags.find("-O2") != std::string::npos ||
                         stamp.cxx_flags.find("-O3") != std::string::npos;
  if (stamp.build_type == "Debug" || !optimised) {
    out.push_back("unoptimised build (type '" + stamp.build_type + "', flags '" +
                  stamp.cxx_flags + "')");
  }
  return out;
}

ookami::json::Value Stamp::to_json() const {
  using ookami::json::Value;
  Value doc = Value::object();
  doc.set("nproc", static_cast<unsigned long long>(nproc));
  doc.set("threads", static_cast<unsigned long long>(threads));
  doc.set("build_type", build_type);
  doc.set("cxx_flags", cxx_flags);
  doc.set("git_rev", git_rev);
  doc.set("source_id", source_id);
  doc.set("compiler", compiler);
  Value env = Value::object();
  for (const auto& [k, v] : ookami_env) env.set(k, v);
  doc.set("ookami_env", std::move(env));
  Value backends_doc = Value::object();
  for (const auto& [k, v] : backends) backends_doc.set(k, v);
  doc.set("backends", std::move(backends_doc));
  doc.set("autotune_table", autotune_table);
  return doc;
}

}  // namespace perfbench
