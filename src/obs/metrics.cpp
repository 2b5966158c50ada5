#include "obs/metrics.hpp"

#include "obs/json.hpp"

namespace terrors::obs {

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

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c.reset();
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
  os << "}}\n";
}

std::uint64_t MetricsScope::delta(std::string_view name) const {
  // Not registry_->counter(name): that registers the counter, and a read
  // must not change what write_json() prints.
  const std::map<std::string, std::uint64_t> moved = deltas();
  const auto it = moved.find(std::string(name));
  return it == moved.end() ? 0 : it->second;
}

std::map<std::string, std::uint64_t> MetricsScope::deltas() const {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, now] : registry_->counter_values()) {
    const auto it = baseline_.find(name);
    const std::uint64_t before = it == baseline_.end() ? 0 : it->second;
    if (now > before) out.emplace(name, now - before);
  }
  return out;
}

std::string format_run_id(std::uint64_t key) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string id(16, '0');
  for (int i = 15; i >= 0; --i) {
    id[static_cast<std::size_t>(i)] = kHex[key & 0xF];
    key >>= 4;
  }
  return id;
}

}  // namespace terrors::obs
