#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>

#include "support/check.hpp"

namespace terrors::support {

namespace {

thread_local std::size_t tl_worker = 0;
thread_local bool tl_in_parallel = false;

using TaskHook = std::function<void(std::size_t)>;
std::mutex g_hook_mutex;
std::shared_ptr<const TaskHook> g_hook;

std::shared_ptr<const TaskHook> hook_snapshot() {
  std::lock_guard<std::mutex> lock(g_hook_mutex);
  return g_hook;
}

}  // namespace

void set_task_hook(std::function<void(std::size_t index)> hook) {
  std::lock_guard<std::mutex> lock(g_hook_mutex);
  g_hook = std::make_shared<const TaskHook>(std::move(hook));
}

/// One published parallel_for: an atomic chunk cursor plus completion and
/// quiescence accounting.  Lives on the caller's stack; `refs` (mutated
/// under the pool mutex) keeps workers from touching it after retirement.
struct ThreadPool::Job {
  const Task* fn = nullptr;
  const TaskHook* hook = nullptr;  ///< per-job snapshot (may be null)
  std::size_t n = 0;
  std::size_t grain = 1;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::vector<std::size_t> failed;  ///< indices whose task threw (guarded by mutex_)
  std::size_t refs = 0;           ///< workers currently attached (guarded by mutex_)
};

ThreadPool::ThreadPool(std::size_t threads)
    : threads_(threads == 0 ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
                            : threads) {
  workers_.reserve(threads_ - 1);
  for (std::size_t w = 1; w < threads_; ++w)
    workers_.emplace_back([this, w] { worker_main(w); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.tasks = tasks_.load(std::memory_order_relaxed);
  s.steal_or_wait = waits_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  return s;
}

void ThreadPool::run_chunks(Job& job, std::size_t worker) {
  bool got_work = false;
  for (;;) {
    const std::size_t begin = job.next.fetch_add(job.grain, std::memory_order_relaxed);
    if (begin >= job.n) break;
    got_work = true;
    const std::size_t end = std::min(job.n, begin + job.grain);
    for (std::size_t i = begin; i < end; ++i) {
      // A failing index never cancels its siblings: it is recorded and
      // retried serially by the caller after the loop quiesces, so a
      // transient fault leaves every slot identical to a serial run.
      try {
        if (job.hook != nullptr && *job.hook) (*job.hook)(i);
        (*job.fn)(i, worker);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        job.failed.push_back(i);
      }
    }
    tasks_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t finished =
        job.done.fetch_add(end - begin, std::memory_order_acq_rel) + (end - begin);
    if (finished == job.n) {
      std::lock_guard<std::mutex> lock(mutex_);
      done_cv_.notify_all();
    }
  }
  if (!got_work) waits_.fetch_add(1, std::memory_order_relaxed);
}

void ThreadPool::retry_failures(std::vector<std::size_t>& failed, const Task& fn) {
  std::sort(failed.begin(), failed.end());
  for (const std::size_t index : failed) {
    retries_.fetch_add(1, std::memory_order_relaxed);
    // The retry runs the task directly — deliberately NOT through the
    // task hook, so an injected fault at this index fires exactly once.
    // A second failure propagates to the caller.
    fn(index, tl_worker);
  }
}

void ThreadPool::worker_main(std::size_t worker) {
  tl_worker = worker;
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    Job* job = job_;
    if (job == nullptr) continue;
    ++job->refs;
    lock.unlock();
    tl_in_parallel = true;
    run_chunks(*job, worker);
    tl_in_parallel = false;
    lock.lock();
    --job->refs;
    done_cv_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t n, std::size_t grain, const Task& fn) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const std::shared_ptr<const TaskHook> hook = hook_snapshot();

  // Serial fallback and nested calls: run inline, in index order, with
  // the same catch-and-retry-once contract as the pooled path.
  if (threads_ == 1 || n == 1 || tl_in_parallel) {
    std::vector<std::size_t> failed;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        if (hook && *hook) (*hook)(i);
        fn(i, tl_worker);
      } catch (...) {
        failed.push_back(i);
      }
    }
    tasks_.fetch_add((n + grain - 1) / grain, std::memory_order_relaxed);
    if (!failed.empty()) retry_failures(failed, fn);
    return;
  }

  Job job;
  job.fn = &fn;
  job.hook = hook.get();
  job.n = n;
  job.grain = grain;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    TE_CHECK(job_ == nullptr, "concurrent parallel_for on one ThreadPool");
    job_ = &job;
    ++generation_;
  }
  work_cv_.notify_all();

  tl_in_parallel = true;
  run_chunks(job, /*worker=*/0);
  tl_in_parallel = false;

  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Wait for all indices to finish AND all workers to detach before the
    // stack-allocated job can be retired.
    done_cv_.wait(lock, [&] {
      return job.done.load(std::memory_order_acquire) == job.n && job.refs == 0;
    });
    job_ = nullptr;
  }
  if (!job.failed.empty()) {
    // Retries happen outside the pool region but must keep the nested-call
    // semantics the task saw the first time (nested parallel_for inlines).
    tl_in_parallel = true;
    try {
      retry_failures(job.failed, fn);
    } catch (...) {
      tl_in_parallel = false;
      throw;
    }
    tl_in_parallel = false;
  }
}

// ---------------------------------------------------------------------------

namespace {

std::size_t env_default_threads() {
  if (const char* env = std::getenv("TERRORS_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 0) return static_cast<std::size_t>(v);
  }
  return 1;
}

std::mutex g_pool_mutex;
std::size_t g_threads = static_cast<std::size_t>(-1);  ///< -1 = env not read yet
std::unique_ptr<ThreadPool> g_pool;

std::size_t resolve(std::size_t threads) {
  return threads == 0 ? std::max<std::size_t>(1, std::thread::hardware_concurrency()) : threads;
}

}  // namespace

void set_global_threads(std::size_t threads) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  g_threads = resolve(threads);
}

std::size_t global_threads() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (g_threads == static_cast<std::size_t>(-1)) g_threads = resolve(env_default_threads());
  return g_threads;
}

ThreadPool& global_pool() {
  const std::size_t want = global_threads();
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool || g_pool->size() != want) g_pool = std::make_unique<ThreadPool>(want);
  return *g_pool;
}

}  // namespace terrors::support
