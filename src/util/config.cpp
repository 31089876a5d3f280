#include "util/config.h"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace cmfl::util {

Config Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("Config: expected key=value, got '" + arg +
                                  "'");
    }
    cfg.values_[arg.substr(0, eq)] = arg.substr(eq + 1);
  }
  return cfg;
}

const std::string* Config::find(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return nullptr;
  used_.insert(key);
  return &it->second;
}

int Config::get_int(const std::string& key, int fallback) const {
  const std::string* v = find(key);
  if (!v) return fallback;
  std::size_t pos = 0;
  const int result = std::stoi(*v, &pos);
  if (pos != v->size()) {
    throw std::invalid_argument("Config: '" + key + "=" + *v +
                                "' is not an integer");
  }
  return result;
}

long long Config::get_int64(const std::string& key, long long fallback) const {
  const std::string* v = find(key);
  if (!v) return fallback;
  std::size_t pos = 0;
  const long long result = std::stoll(*v, &pos);
  if (pos != v->size()) {
    throw std::invalid_argument("Config: '" + key + "=" + *v +
                                "' is not an integer");
  }
  return result;
}

double Config::get_double(const std::string& key, double fallback) const {
  const std::string* v = find(key);
  if (!v) return fallback;
  std::size_t pos = 0;
  const double result = std::stod(*v, &pos);
  if (pos != v->size()) {
    throw std::invalid_argument("Config: '" + key + "=" + *v +
                                "' is not a number");
  }
  return result;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const std::string* v = find(key);
  if (!v) return fallback;
  if (*v == "1" || *v == "true" || *v == "yes" || *v == "on") return true;
  if (*v == "0" || *v == "false" || *v == "no" || *v == "off") return false;
  throw std::invalid_argument("Config: '" + key + "=" + *v +
                              "' is not a boolean");
}

std::string Config::get_string(const std::string& key,
                               std::string fallback) const {
  const std::string* v = find(key);
  return v ? *v : std::move(fallback);
}

std::vector<std::string> Config::unused_keys() const {
  std::vector<std::string> unused;
  for (const auto& [key, value] : values_) {
    (void)value;
    if (!used_.count(key)) unused.push_back(key);
  }
  return unused;
}

void Config::warn_unused_keys() const {
  for (const auto& key : unused_keys()) {
    std::fprintf(stderr, "warning: unknown config key '%s'\n", key.c_str());
  }
}

}  // namespace cmfl::util
