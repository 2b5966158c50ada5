#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "obs/json.hpp"

namespace terrors::obs {

void Histogram::reservoir_observe(double v) {
  if (seen_ % stride_ == 0) {
    if (reservoir_.size() == kReservoirDepth) {
      // Compact: keep every other sample (preserving the systematic
      // spacing) and double the stride going forward.
      for (std::size_t i = 1; 2 * i < reservoir_.size(); ++i) reservoir_[i] = reservoir_[2 * i];
      reservoir_.resize(kReservoirDepth / 2);
      stride_ *= 2;
      if (seen_ % stride_ == 0) reservoir_.push_back(v);
    } else {
      reservoir_.push_back(v);
    }
  }
  ++seen_;
}

double Histogram::quantile(double p) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (reservoir_.empty()) return 0.0;
  std::vector<double> sorted = reservoir_;
  std::sort(sorted.begin(), sorted.end());
  const auto idx = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(sorted.size()) - 1.0,
                       std::floor(p * static_cast<double>(sorted.size()))));
  return sorted[idx];
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.try_emplace(std::string(name)).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_.try_emplace(std::string(name)).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.try_emplace(std::string(name)).first->second;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

std::map<std::string, std::uint64_t> MetricsRegistry::counter_values() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, c] : counters_) out.emplace(name, c.value());
  return out;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ",";
    first = false;
    json_string(os, name);
    os << ":";
    json_number(os, c.value());
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ",";
    first = false;
    json_string(os, name);
    os << ":";
    json_number(os, g.value());
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ",";
    first = false;
    json_string(os, name);
    const auto& s = h.stats();
    os << ":{\"count\":";
    json_number(os, static_cast<std::uint64_t>(s.count()));
    os << ",\"mean\":";
    json_number(os, s.empty() ? 0.0 : s.mean());
    os << ",\"stddev\":";
    json_number(os, s.empty() ? 0.0 : s.stddev());
    os << ",\"min\":";
    json_number(os, s.empty() ? 0.0 : s.min());
    os << ",\"max\":";
    json_number(os, s.empty() ? 0.0 : s.max());
    os << ",\"p50\":";
    json_number(os, h.quantile(0.50));
    os << ",\"p95\":";
    json_number(os, h.quantile(0.95));
    os << ",\"p99\":";
    json_number(os, h.quantile(0.99));
    os << "}";
  }
  os << "}}\n";
}

std::string prometheus_escape_label(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string prometheus_sanitize_name(std::string_view name) {
  std::string out = "terrors_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string prometheus_escape_help(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

namespace {

void prom_number(std::ostream& os, double v) {
  if (std::isnan(v)) {
    os << "NaN";
  } else if (std::isinf(v)) {
    os << (v > 0 ? "+Inf" : "-Inf");
  } else {
    json_number(os, v);  // same round-trippable formatting
  }
}

}  // namespace

void MetricsRegistry::write_prometheus(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto help_line = [&os](const std::string& name, const std::string& prom) {
    os << "# HELP " << prom << " " << prometheus_escape_help(name) << "\n";
  };
  for (const auto& [name, c] : counters_) {
    const std::string prom = prometheus_sanitize_name(name);
    help_line(name, prom);
    os << "# TYPE " << prom << " counter\n";
    os << prom << " " << c.value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    const std::string prom = prometheus_sanitize_name(name);
    help_line(name, prom);
    os << "# TYPE " << prom << " gauge\n";
    os << prom << " ";
    prom_number(os, g.value());
    os << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const std::string prom = prometheus_sanitize_name(name);
    const auto& s = h.stats();
    help_line(name, prom);
    os << "# TYPE " << prom << " summary\n";
    for (const auto& [q, label] :
         {std::pair<double, const char*>{0.50, "0.5"}, {0.95, "0.95"}, {0.99, "0.99"}}) {
      os << prom << "{quantile=\"" << prometheus_escape_label(label) << "\"} ";
      prom_number(os, h.quantile(q));
      os << "\n";
    }
    os << prom << "_sum ";
    prom_number(os, s.empty() ? 0.0 : s.mean() * static_cast<double>(s.count()));
    os << "\n" << prom << "_count " << s.count() << "\n";
  }
}

}  // namespace terrors::obs
