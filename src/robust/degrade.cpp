#include "robust/degrade.hpp"

#include <algorithm>
#include <utility>

#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace terrors::robust {

DegradationLog& DegradationLog::instance() {
  static DegradationLog log;
  return log;
}

void DegradationLog::begin_run(std::string run_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  run_id_ = std::move(run_id);
}

void DegradationLog::note(std::string_view site, std::string_view detail) {
  static obs::Counter& total = obs::MetricsRegistry::instance().counter("robust.degraded");
  total.increment();
  obs::MetricsRegistry::instance()
      .counter("robust.degraded." + std::string(site))
      .increment();

  bool first = false;
  std::string run;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = std::find_if(entries_.begin(), entries_.end(),
                           [&](const Entry& e) { return e.site == site; });
    if (it == entries_.end()) {
      entries_.push_back({std::string(site), std::string(detail), 1});
      first = true;
      run = run_id_;
    } else {
      ++it->events;
    }
  }
  if (first) {
    // Tag the warning with the run so a shared log file attributes
    // degradation to the analyze() call that suffered it.
    std::vector<obs::LogField> fields = {{"site", std::string(site)},
                                         {"detail", std::string(detail)}};
    if (!run.empty()) fields.push_back({"run", run});
    obs::log_warn("robust", "degraded mode: serving best-effort result", fields);
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
