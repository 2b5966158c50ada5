#include "obs/profiler.hpp"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <ostream>
#include <set>
#include <stdexcept>

namespace terrors::obs {

namespace {

std::vector<std::string> split_frames(const std::string& stack) {
  std::vector<std::string> frames;
  std::size_t start = 0;
  while (start <= stack.size()) {
    const std::size_t semi = stack.find(';', start);
    if (semi == std::string::npos) {
      frames.push_back(stack.substr(start));
      break;
    }
    frames.push_back(stack.substr(start, semi - start));
    start = semi + 1;
  }
  return frames;
}

}  // namespace

std::map<std::string, std::uint64_t> parse_folded(std::istream& is) {
  std::map<std::string, std::uint64_t> out;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos || sp == 0 || sp + 1 >= line.size()) {
      throw std::runtime_error("folded stacks: malformed line " + std::to_string(lineno));
    }
    const std::string stack = line.substr(0, sp);
    std::uint64_t count = 0;
    for (std::size_t i = sp + 1; i < line.size(); ++i) {
      const char c = line[i];
      if (c == '\r' && i + 1 == line.size()) break;
      if (c < '0' || c > '9') {
        throw std::runtime_error("folded stacks: bad count on line " + std::to_string(lineno));
      }
      count = count * 10 + static_cast<std::uint64_t>(c - '0');
    }
    out[stack] += count;
  }
  return out;
}

std::vector<SpanHotspot> hotspots_from_folded(
    const std::map<std::string, std::uint64_t>& folded) {
  std::map<std::string, SpanHotspot> by_name;
  for (const auto& [stack, count] : folded) {
    const std::vector<std::string> frames = split_frames(stack);
    // Count each name once per stack (self-recursion must not double its
    // inclusive time).
    std::set<std::string> seen;
    for (const auto& frame : frames) {
      if (!seen.insert(frame).second) continue;
      auto& spot = by_name[frame];
      spot.name = frame;
      spot.inclusive += count;
    }
    if (!frames.empty()) by_name[frames.back()].exclusive += count;
  }
  std::vector<SpanHotspot> out;
  out.reserve(by_name.size());
  for (auto& [name, spot] : by_name) out.push_back(std::move(spot));
  std::sort(out.begin(), out.end(), [](const SpanHotspot& a, const SpanHotspot& b) {
    if (a.inclusive != b.inclusive) return a.inclusive > b.inclusive;
    return a.name < b.name;
  });
  return out;
}

void write_hotspots(const std::map<std::string, std::uint64_t>& folded, std::ostream& os,
                    std::size_t top) {
  std::uint64_t total = 0;
  for (const auto& [stack, count] : folded) total += count;
  const auto spots = hotspots_from_folded(folded);
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-32s %10s %7s %10s %7s\n", "span", "incl_us", "incl%",
                "excl_us", "excl%");
  os << buf;
  std::size_t shown = 0;
  for (const auto& spot : spots) {
    if (shown++ >= top) break;
    const double denom = total == 0 ? 1.0 : static_cast<double>(total);
    std::snprintf(buf, sizeof(buf), "%-32s %10llu %6.1f%% %10llu %6.1f%%\n", spot.name.c_str(),
                  static_cast<unsigned long long>(spot.inclusive),
                  100.0 * static_cast<double>(spot.inclusive) / denom,
                  static_cast<unsigned long long>(spot.exclusive),
                  100.0 * static_cast<double>(spot.exclusive) / denom);
    os << buf;
  }
  std::snprintf(buf, sizeof(buf), "%llu us across %zu span name(s)\n",
                static_cast<unsigned long long>(total), spots.size());
  os << buf;
}

}  // namespace terrors::obs
