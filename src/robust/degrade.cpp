#include "robust/degrade.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace terrors::robust {

DegradationLog& DegradationLog::instance() {
  static DegradationLog log;
  return log;
}

void DegradationLog::begin_run() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

void DegradationLog::note(std::string_view site, std::string_view detail) {
  static obs::Counter& total = obs::MetricsRegistry::instance().counter("robust.degraded");
  total.increment();
  obs::MetricsRegistry::instance()
      .counter("robust.degraded." + std::string(site))
      .increment();

  std::lock_guard<std::mutex> lock(mutex_);
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&](const Entry& e) { return e.site == site; });
  if (it == entries_.end()) {
    entries_.push_back({std::string(site), std::string(detail), 1});
  } else {
    ++it->events;
  }
}

bool DegradationLog::degraded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !entries_.empty();
}

std::vector<DegradationLog::Entry> DegradationLog::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_;
}

std::vector<std::string> DegradationLog::sites() const {
  std::vector<std::string> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(entries_.size());
    for (const auto& e : entries_) out.push_back(e.site);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void note_degraded(std::string_view site, std::string_view detail) {
  DegradationLog::instance().note(site, detail);
}

}  // namespace terrors::robust
