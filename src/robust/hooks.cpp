#include "robust/hooks.hpp"

#include <mutex>
#include <string>

#include "obs/metrics.hpp"
#include "robust/degrade.hpp"
#include "robust/fault_injection.hpp"
#include "support/thread_pool.hpp"

namespace terrors::robust {

void install_pool_hooks() {
  static std::once_flag once;
  std::call_once(once, [] {
    support::PoolHooks hooks;
    // The pool.task injection site: keyed by loop index, so the set of
    // failing tasks is identical at any thread count.
    hooks.task_enter = [](std::size_t index) {
      maybe_fault("pool.task", static_cast<std::uint64_t>(index));
    };
    hooks.task_retry = [](std::size_t index, const char* what) {
      static obs::Counter& retries =
          obs::MetricsRegistry::instance().counter("pool.task_retries");
      retries.increment();
      note_degraded("pool", "task index " + std::to_string(index) +
                                " retried serially after: " + what);
    };
    support::set_pool_hooks(std::move(hooks));
  });
}

}  // namespace terrors::robust
