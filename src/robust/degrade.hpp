// Graceful-degradation entries (DESIGN §5f).
//
// When a peripheral subsystem fails mid-analysis — a cache read throws,
// an SCC system is singular, a worker task needs a serial retry — the
// framework keeps serving a best-effort estimate but must *say so*.  A
// run's degradation is part of what the run returns:
// ErrorRateFramework::analyze builds one entry per site, holding the
// first failure detail, into BenchmarkResult::degradation, and
// `terrors analyze` prints each entry as one warning line.
// note_degraded() is the one way to add to such a list; it also bumps
// the cumulative `robust.degraded` and `robust.degraded.<site>`
// counters.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace terrors::robust {

struct Degradation {
  std::string site;    ///< short site tag: "cache", "solver", "pool", "io"
  std::string detail;  ///< first failure detail recorded for this site
};

/// Record `events` degradation events at `site`: adds {site, detail} to
/// `entries` (kept sorted by site) unless the site already has an entry,
/// and bumps `robust.degraded` and `robust.degraded.<site>` by `events`.
void note_degraded(std::vector<Degradation>& entries, std::string_view site,
                   std::string_view detail, std::uint64_t events = 1);

}  // namespace terrors::robust
