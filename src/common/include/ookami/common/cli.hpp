#pragma once
// Tiny command-line option parser for the examples and bench binaries.
// Supports `--name value`, `--name=value` and boolean `--flag`.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ookami {

class Cli {
public:
  /// `switches` names the boolean flags: a switch never takes the next
  /// argument as its value, so `tool --strict A B` keeps A and B
  /// positional.  Any other `--name` followed by a non-option argument
  /// takes it as its value (a trailing one reads "true").
  Cli(int argc, char** argv, std::vector<std::string> switches);
  /// No switches: every `--name` may take the next argument.
  Cli(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name, const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;

  /// Option names given on the command line that are neither in `known`
  /// nor a switch, in name order, so a tool can refuse a flag it does
  /// not implement.
  [[nodiscard]] std::vector<std::string> unknown(const std::vector<std::string>& known) const;

  /// Positional (non --option) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

  [[nodiscard]] const std::string& program() const { return program_; }

private:
  std::string program_;
  std::vector<std::string> switches_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace ookami
