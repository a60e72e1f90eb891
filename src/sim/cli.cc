#include "sim/cli.h"

#include <algorithm>
#include <cstdlib>
#include <string_view>
#include <thread>

namespace bloc::sim {

CliArgs::CliArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!arg.starts_with("--")) continue;
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq == std::string_view::npos) {
      values_[std::string(arg)] = std::string("1");
    } else {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    }
  }
}

std::size_t CliArgs::SizeT(const std::string& key,
                           std::size_t fallback) const {
  const auto it = values_.find(key);
  return it == values_.end()
             ? fallback
             : static_cast<std::size_t>(std::strtoull(it->second.c_str(),
                                                      nullptr, 10));
}

std::uint64_t CliArgs::U64(const std::string& key,
                           std::uint64_t fallback) const {
  const auto it = values_.find(key);
  return it == values_.end()
             ? fallback
             : std::strtoull(it->second.c_str(), nullptr, 10);
}

double CliArgs::Double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback
                             : std::strtod(it->second.c_str(), nullptr);
}

std::string CliArgs::Str(const std::string& key,
                         const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

bool CliArgs::Flag(const std::string& key) const {
  const auto it = values_.find(key);
  return it != values_.end() && it->second != "0";
}

std::size_t CliArgs::Threads(const std::string& key) const {
  const std::size_t n = SizeT(key, 0);
  if (n > 0) return n;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace bloc::sim
