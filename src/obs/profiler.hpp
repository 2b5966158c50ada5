// Folded-stack profiles (DESIGN §5g): where does analyze time go?
//
// `terrors analyze --profile FILE` turns the tracer on and writes
// Tracer::write_folded: one "root;child;leaf N" line per distinct span
// path, N being the path's self time in microseconds — the
// collapsed-stack format flamegraph.pl and speedscope consume directly.
// This header is the reading side: `terrors profile FILE` parses such a
// file and renders the top hotspots with inclusive/exclusive times.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace terrors::obs {

/// Parse folded-stack text (inverse of Tracer::write_folded; blank lines
/// are skipped).  Throws std::runtime_error on a malformed line.
[[nodiscard]] std::map<std::string, std::uint64_t> parse_folded(std::istream& is);

/// Per-span aggregate over a folded-stack map: inclusive = time of the
/// stacks with the span anywhere on them, exclusive = time with it on top.
struct SpanHotspot {
  std::string name;
  std::uint64_t inclusive = 0;
  std::uint64_t exclusive = 0;
};

/// Hotspots sorted by inclusive time (desc), ties by name.
[[nodiscard]] std::vector<SpanHotspot> hotspots_from_folded(
    const std::map<std::string, std::uint64_t>& folded);

/// Render the top-N hotspot table (`terrors profile`).
void write_hotspots(const std::map<std::string, std::uint64_t>& folded, std::ostream& os,
                    std::size_t top);

}  // namespace terrors::obs
