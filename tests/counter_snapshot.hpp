// Counter snapshot comparable across runs, for the tests that prove an
// optional output (run report, journal, tracer) leaves the run's work
// counters untouched.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace terrors::test {

/// Every registered counter except the names under `skip_prefixes`.
inline std::map<std::string, std::uint64_t> counter_snapshot(
    std::initializer_list<std::string_view> skip_prefixes) {
  std::map<std::string, std::uint64_t> out = obs::MetricsRegistry::instance().counter_values();
  std::erase_if(out, [&](const auto& entry) {
    for (const std::string_view prefix : skip_prefixes) {
      if (entry.first.starts_with(prefix)) return true;
    }
    return false;
  });
  return out;
}

}  // namespace terrors::test
