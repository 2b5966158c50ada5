#include "report/journal_stats.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>

#include "robust/error.hpp"

namespace terrors::report {

obs::RunEvent event_from_json(const JsonValue& doc) {
  if (!doc.is_object())
    robust::raise(robust::Category::kArtifact, "journal event: not an object");
  const JsonValue* kind = doc.find("kind");
  if (kind == nullptr || !kind->is_string() || kind->as_string() != obs::kJournalKind) {
    robust::raise(robust::Category::kArtifact,
                  "journal event: not a terrors_run_event document");
  }
  const auto version = static_cast<int>(doc.at("schema_version").as_uint());
  if (version != obs::kJournalSchemaVersion) {
    robust::raise(robust::Category::kArtifact,
                  "journal event: unsupported schema_version " + std::to_string(version) +
                      " (expected " + std::to_string(obs::kJournalSchemaVersion) + ")");
  }

  obs::RunEvent e;
  e.schema_version = version;
  e.run_id = doc.at("run_id").as_string();
  e.unix_ms = doc.get_uint("unix_ms");
  e.program = doc.at("program").as_string();
  if (const JsonValue* v = doc.find("config_hash")) e.config_hash = v->as_string();
  if (const JsonValue* v = doc.find("program_hash")) e.program_hash = v->as_string();
  e.period_ps = doc.get_number("period_ps");
  e.threads = static_cast<std::size_t>(doc.get_uint("threads", 1));
  e.runs = doc.get_uint("runs");
  e.instructions = doc.get_uint("instructions");

  const JsonValue& phases = doc.at("phases");
  e.simulation_seconds = phases.get_number("simulation_seconds");
  e.training_seconds = phases.get_number("training_seconds");
  e.estimation_seconds = phases.get_number("estimation_seconds");

  if (const JsonValue* counters = doc.find("counters")) {
    for (const auto& [name, value] : counters->members()) {
      e.counters.emplace(name, value.as_uint());
    }
  }

  if (const JsonValue* pool = doc.find("pool")) {
    e.pool_tasks = pool->get_uint("tasks");
    e.pool_retries = pool->get_uint("retries");
  }

  const JsonValue& est = doc.at("estimate");
  e.lambda_mean = est.get_number("lambda_mean");
  e.rate_mean = est.get_number("rate_mean");
  e.rate_sd = est.get_number("rate_sd");

  if (const JsonValue* deg = doc.find("degraded")) e.degraded = deg->as_bool();
  if (const JsonValue* sites = doc.find("degraded_sites")) {
    for (const JsonValue& s : sites->items()) e.degraded_sites.push_back(s.as_string());
  }
  e.peak_rss_bytes = doc.get_uint("peak_rss_bytes");
  return e;
}

std::vector<obs::RunEvent> load_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) robust::raise(robust::Category::kResource, "cannot open journal '" + path + "'");
  std::vector<obs::RunEvent> events;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    try {
      events.push_back(event_from_json(JsonValue::parse(line)));
    } catch (const std::exception& e) {
      throw robust::Error::wrap(
          "journal '" + path + "' line " + std::to_string(lineno), e,
          robust::Category::kArtifact);
    }
  }
  return events;
}

JournalStats aggregate(const std::vector<obs::RunEvent>& events) {
  JournalStats s;
  s.events = events.size();
  std::vector<double> sim;
  std::vector<double> train;
  std::vector<double> est;
  std::vector<double> total;
  sim.reserve(events.size());
  train.reserve(events.size());
  est.reserve(events.size());
  total.reserve(events.size());
  std::map<std::string, std::vector<double>> per_program;
  std::map<std::string, const obs::RunEvent*> last_event;
  for (const obs::RunEvent& e : events) {
    sim.push_back(e.simulation_seconds);
    train.push_back(e.training_seconds);
    est.push_back(e.estimation_seconds);
    total.push_back(e.analyze_seconds());
    if (const auto it = e.counters.find("cache.hits"); it != e.counters.end()) {
      s.cache_hits += it->second;
    }
    if (const auto it = e.counters.find("cache.misses"); it != e.counters.end()) {
      s.cache_misses += it->second;
    }
    if (e.degraded) ++s.degraded_events;
    s.peak_rss_max = std::max(s.peak_rss_max, e.peak_rss_bytes);
    per_program[e.program].push_back(e.analyze_seconds());
    last_event[e.program] = &e;  // file order == append order
  }
  s.simulation_seconds = summarize(std::move(sim));
  s.training_seconds = summarize(std::move(train));
  s.estimation_seconds = summarize(std::move(est));
  s.analyze_seconds = summarize(std::move(total));
  if (s.cache_hits + s.cache_misses > 0) {
    s.cache_hit_rate = static_cast<double>(s.cache_hits) /
                       static_cast<double>(s.cache_hits + s.cache_misses);
  }
  for (auto& [program, seconds] : per_program) {
    ProgramStats p;
    p.program = program;
    p.events = seconds.size();
    p.last_analyze_seconds = seconds.back();
    p.analyze_seconds = summarize(std::move(seconds));
    p.last_vs_p50 = p.analyze_seconds.p50 > 0.0
                        ? p.last_analyze_seconds / p.analyze_seconds.p50
                        : 1.0;
    p.last_lambda_mean = last_event.at(program)->lambda_mean;
    s.programs.push_back(std::move(p));
  }
  return s;
}

namespace {

void rule(std::ostream& os) { os << std::string(72, '-') << "\n"; }

void phase_row(std::ostream& os, const char* name, const DistSummary& d) {
  os << "  " << std::setw(10) << std::left << name << std::right << "  " << std::fixed
     << std::setprecision(4) << std::setw(9) << d.p50 << "  " << std::setw(9) << d.p95 << "  "
     << std::setw(9) << d.mean << "  " << std::setw(9) << d.max << std::defaultfloat
     << std::setprecision(6) << "\n";
}

}  // namespace

void write_stats_text(const JournalStats& s, std::ostream& os) {
  const std::ios_base::fmtflags flags = os.flags();
  os << "journal stats: " << s.events << " run event(s)\n";
  rule(os);
  if (s.events == 0) {
    os.flags(flags);
    return;
  }
  os << "phase wall time (s)\n";
  os << "  phase             p50        p95       mean        max\n";
  phase_row(os, "simulation", s.simulation_seconds);
  phase_row(os, "training", s.training_seconds);
  phase_row(os, "estimation", s.estimation_seconds);
  phase_row(os, "analyze", s.analyze_seconds);
  os << "\ncache           " << s.cache_hits << " hit / " << s.cache_misses << " miss";
  if (s.cache_hits + s.cache_misses > 0) {
    os << " (" << std::fixed << std::setprecision(1) << 100.0 * s.cache_hit_rate << "% hit rate)"
       << std::defaultfloat << std::setprecision(6);
  }
  os << "\ndegraded        " << s.degraded_events << " of " << s.events << " event(s)\n";
  os << "peak rss        " << s.peak_rss_max / (1024 * 1024) << " MiB (max over events)\n";

  os << "\nper program (analyze seconds)\n";
  rule(os);
  os << "  program       events        p50       last   last/p50     lambda\n";
  for (const ProgramStats& p : s.programs) {
    os << "  " << std::setw(12) << std::left << p.program << std::right << "  " << std::setw(6)
       << p.events << "  " << std::fixed << std::setprecision(4) << std::setw(9)
       << p.analyze_seconds.p50 << "  " << std::setw(9) << p.last_analyze_seconds << "  "
       << std::setprecision(2) << std::setw(8) << p.last_vs_p50 << "x  " << std::scientific
       << std::setprecision(3) << p.last_lambda_mean << std::defaultfloat << std::setprecision(6)
       << "\n";
  }
  os.flags(flags);
}

}  // namespace terrors::report
