#include "obs/run_context.hpp"

namespace terrors::obs {

namespace {
// The installed context.  A plain atomic pointer: installation happens on
// the analyzing thread, readers (pool workers, the degradation log) only
// dereference immutable members.
std::atomic<RunContext*> g_current{nullptr};
}  // namespace

std::uint64_t MetricsScope::delta(std::string_view name) const {
  const std::uint64_t now = registry_->counter(name).value();
  const auto it = baseline_.find(std::string(name));
  const std::uint64_t before = it == baseline_.end() ? 0 : it->second;
  return now >= before ? now - before : 0;
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

RunContext::RunContext(std::uint64_t key, std::string label)
    : key_(key), id_(format_run_id(key)), label_(std::move(label)),
      metrics_(MetricsRegistry::instance()) {}

void RunContext::set_phase_seconds(std::string_view phase, double seconds) {
  for (auto& [name, value] : phases_) {
    if (name == phase) {
      value = seconds;
      return;
    }
  }
  phases_.emplace_back(std::string(phase), seconds);
}

RunContext* RunContext::current() { return g_current.load(std::memory_order_acquire); }

RunContext::Scope::Scope(RunContext& ctx)
    : previous_(g_current.exchange(&ctx, std::memory_order_acq_rel)) {}

RunContext::Scope::~Scope() { g_current.store(previous_, std::memory_order_release); }

std::string current_run_id() {
  const RunContext* ctx = RunContext::current();
  return ctx == nullptr ? std::string() : ctx->id();
}

}  // namespace terrors::obs
