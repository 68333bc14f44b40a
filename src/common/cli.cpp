#include "ookami/common/cli.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace ookami {

Cli::Cli(int argc, char** argv, std::vector<std::string> switches)
    : switches_(std::move(switches)) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      options_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (std::find(switches_.begin(), switches_.end(), arg) == switches_.end() &&
               i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[arg] = argv[++i];
    } else {
      options_[arg] = "true";
    }
  }
}

Cli::Cli(int argc, char** argv) : Cli(argc, argv, {}) {}

bool Cli::has(const std::string& name) const { return options_.count(name) != 0; }

std::string Cli::get(const std::string& name, const std::string& fallback) const {
  const auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

std::vector<std::string> Cli::unknown(const std::vector<std::string>& known) const {
  std::vector<std::string> out;
  for (const auto& [name, value] : options_) {
    if (std::find(known.begin(), known.end(), name) == known.end() &&
        std::find(switches_.begin(), switches_.end(), name) == switches_.end()) {
      out.push_back(name);
    }
  }
  return out;
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

}  // namespace ookami
