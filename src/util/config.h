// Tiny `key=value` command-line configuration parser.
//
// Bench harnesses and examples accept overrides like:
//   ./fig4_table1_vanilla_fl rounds=200 clients=50 seed=7
// so the paper's parameter sweeps can be re-run at other scales without
// recompiling.  A supplied key that no getter read is almost always a typo;
// warn_unused_keys() names each one on stderr, and the run goes on.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace cmfl::util {

class Config {
 public:
  Config() = default;

  /// Parses argv entries of the form key=value.  Throws
  /// std::invalid_argument on malformed entries.
  static Config from_args(int argc, const char* const* argv);

  /// Returns the value for `key`, or `fallback` if absent.  Typed getters
  /// throw std::invalid_argument when a present value does not parse.
  int get_int(const std::string& key, int fallback) const;
  long long get_int64(const std::string& key, long long fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;
  std::string get_string(const std::string& key, std::string fallback) const;

  /// After all getters ran, reports keys that were supplied but never read —
  /// almost always a typo.  Returns empty vector if everything was consumed.
  std::vector<std::string> unused_keys() const;

  /// Prints "warning: unknown config key '<key>'" on stderr for each of
  /// unused_keys().  Every binary that parses a Config calls it once it has
  /// read all its keys.
  void warn_unused_keys() const;

 private:
  const std::string* find(const std::string& key) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> used_;
};

}  // namespace cmfl::util
