// Fixed-size worker pool with a chunked parallel_for, built for the
// estimation engine's embarrassing parallelism (per-edge control
// characterisation, datapath training measurements, Monte-Carlo shards).
//
// Design constraints, in order:
//  * Determinism: parallel_for only distributes *indices*; callers write
//    results into pre-sized slots keyed by index, so the output is
//    bit-identical regardless of worker count or scheduling.  The pool
//    itself never reorders observable results.
//  * One code path at every size: a pool of size 1 runs every index
//    inline on the calling thread, in order, with no locking, so callers
//    need no separate serial branch.
//  * Exception containment: an index that throws is recorded (it does
//    not cancel the remaining indices) and retried ONCE, serially, on
//    the calling thread after the loop quiesces — transient failures
//    therefore leave the result identical to an all-serial run.  If the
//    retry throws again, that exception propagates to the caller (so
//    deterministic task bugs still surface exactly as before).
//
// The process-wide pool size comes from set_global_threads() (the CLI /
// bench `--threads` flag) or, if never set, the TERRORS_THREADS
// environment variable; the default is 1 so library behaviour is serial
// unless explicitly asked otherwise.  `0` means "all hardware threads".
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace terrors::support {

struct PoolHooks;

class ThreadPool {
 public:
  /// fn(index, worker): one loop index, executed by worker `worker` in
  /// [0, size()).  The calling thread participates as worker 0.
  using Task = std::function<void(std::size_t index, std::size_t worker)>;

  /// `threads` is the total worker count including the calling thread;
  /// 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return threads_; }

  /// Run fn over [0, n), distributing contiguous chunks of `grain`
  /// indices to workers.  Blocks until every index ran (or was skipped
  /// after an exception).  Nested calls from inside a task run inline.
  void parallel_for(std::size_t n, std::size_t grain, const Task& fn);
  void parallel_for(std::size_t n, const Task& fn) { parallel_for(n, 1, fn); }

  /// Cumulative scheduling counters (exported as pool.* metrics).
  struct Stats {
    std::uint64_t tasks = 0;          ///< chunks executed
    std::uint64_t steal_or_wait = 0;  ///< wake-ups that found no chunk left
    std::uint64_t retries = 0;        ///< failed indices re-run serially
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Job;
  struct Failure;
  void worker_main(std::size_t worker);
  void run_chunks(Job& job, std::size_t worker);
  /// Serially re-run failed indices (sorted) once; rethrows on a second
  /// failure of the same index.
  void retry_failures(std::vector<Failure>& failures, const PoolHooks* hooks, const Task& fn);

  std::size_t threads_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers: a new job was published
  std::condition_variable done_cv_;  ///< caller: job finished and quiesced
  Job* job_ = nullptr;
  std::uint64_t generation_ = 0;
  bool stop_ = false;

  std::atomic<std::uint64_t> tasks_{0};
  std::atomic<std::uint64_t> waits_{0};
  std::atomic<std::uint64_t> retries_{0};
};

/// Process-wide pool, sized by set_global_threads() / TERRORS_THREADS
/// (see above).  Resized lazily: the pool is (re)built on the next
/// global_pool() call after the configured size changes.
ThreadPool& global_pool();

/// Configure the global pool size (0 = hardware concurrency).  Takes
/// effect on the next global_pool() call; not safe to call from inside a
/// parallel_for.
void set_global_threads(std::size_t threads);

/// The currently configured global pool size (after env / flag resolution).
std::size_t global_threads();

/// Cross-cutting hooks, installed once by the robust layer (support is
/// the bottom of the link order and cannot call obs/robust directly).
///
///  * task_enter(index) runs immediately before each loop index, on the
///    worker that owns it.  A throw from the hook is treated exactly like
///    the task itself throwing — this is the `pool.task` fault-injection
///    site.  Must be deterministic in `index` (never in worker/arrival
///    order), or chaos runs lose reproducibility.
///  * task_retry(index, what) runs before the serial retry of a failed
///    index (degradation metering).
///
/// Both must be thread-safe; either may be empty.
struct PoolHooks {
  std::function<void(std::size_t index)> task_enter;
  std::function<void(std::size_t index, const char* what)> task_retry;
};
void set_pool_hooks(PoolHooks hooks);

}  // namespace terrors::support
