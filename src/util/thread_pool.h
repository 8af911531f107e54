// Fixed-size worker pool for fan-out of independent work, plus the chunked
// fork-join loop every caller in the repo uses on it.
//
// Each experiment (seed x scenario x CCA) owns its Network and EventQueue, so
// simulations parallelize per run, never inside one: submitting N runs to the
// pool preserves bitwise determinism while using every core. The one
// intra-task fan-out is the PPO update's actor and critic passes, which share
// no mutable state. `submit` returns a std::future (exceptions propagate
// through it); `parallel_for_chunked` blocks until a whole index range has
// been processed.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace libra {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means default_thread_count().
  explicit ThreadPool(std::size_t threads = 0) {
    if (threads == 0) threads = default_thread_count();
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// LIBRA_THREADS env var if set (>=1), else the hardware concurrency.
  static std::size_t default_thread_count() {
    if (const char* env = std::getenv("LIBRA_THREADS")) {
      long n = std::strtol(env, nullptr, 10);
      if (n >= 1) return static_cast<std::size_t>(n);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
  }

  /// Enqueues `fn(args...)`; the returned future delivers the result or
  /// rethrows whatever the task threw.
  template <typename F, typename... Args>
  auto submit(F&& fn, Args&&... args)
      -> std::future<std::invoke_result_t<std::decay_t<F>, std::decay_t<Args>...>> {
    using R = std::invoke_result_t<std::decay_t<F>, std::decay_t<Args>...>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        [f = std::forward<F>(fn),
         tup = std::make_tuple(std::forward<Args>(args)...)]() mutable -> R {
          return std::apply(std::move(f), std::move(tup));
        });
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after shutdown");
      tasks_.push([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
        if (tasks_.empty()) return;  // stopping_ set and queue drained
        task = std::move(tasks_.front());
        tasks_.pop();
      }
      task();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> tasks_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

namespace detail {

// Shared state of one chunked loop. Helpers hold it by shared_ptr: a helper
// task that only gets scheduled after the loop finished finds no work and
// exits without touching freed memory.
struct ChunkLoop {
  std::function<void(std::size_t)> fn;
  std::size_t end = 0;
  std::size_t chunk = 1;
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> completed{0};
  std::mutex mu;
  std::condition_variable done_cv;
  std::exception_ptr error;
  std::size_t error_index = static_cast<std::size_t>(-1);

  // Claim-and-run until the cursor passes the end. Exceptions are recorded
  // (lowest index wins) and the loop keeps going: drain everything, then
  // rethrow the first.
  void drain() {
    for (;;) {
      std::size_t i0 = cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (i0 >= end) return;
      std::size_t i1 = std::min(i0 + chunk, end);
      for (std::size_t i = i0; i < i1; ++i) {
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu);
          if (i < error_index) {
            error_index = i;
            error = std::current_exception();
          }
        }
      }
      std::size_t done =
          completed.fetch_add(i1 - i0, std::memory_order_acq_rel) + (i1 - i0);
      if (done >= end) {
        std::lock_guard<std::mutex> lock(mu);
        done_cv.notify_all();
      }
    }
  }
};

}  // namespace detail

/// Runs fn(i) for every i in [begin, end), claimed in chunks of `chunk`
/// indices from a shared atomic cursor (work-stealing style: fast workers
/// take more chunks). The caller drains chunks too, so the loop makes
/// progress — and cannot deadlock — even when invoked from inside a pool
/// task with every worker busy. Every index runs exactly once; the exception
/// from the lowest-claimed chunk is rethrown after the range drains, so `fn`
/// may reference the caller's stack.
inline void parallel_for_chunked(ThreadPool& pool, std::size_t begin,
                                 std::size_t end, std::size_t chunk,
                                 const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  if (chunk == 0) throw std::invalid_argument("parallel_for_chunked: chunk must be > 0");

  auto loop = std::make_shared<detail::ChunkLoop>();
  loop->fn = [&fn, begin](std::size_t i) { fn(begin + i); };
  loop->end = end - begin;  // work in [0, end-begin); offset restored in fn
  loop->chunk = chunk;

  // One helper per worker, capped by the chunk count (fewer chunks than
  // workers means the extras would find nothing to claim anyway). Futures are
  // deliberately dropped: if the pool is saturated — e.g. this call is nested
  // inside a pool task — the helpers may never run, and the caller's own
  // drain below still finishes the range.
  std::size_t chunks = (loop->end + chunk - 1) / chunk;
  std::size_t helpers = std::min(pool.thread_count(), chunks);
  for (std::size_t h = 1; h < helpers; ++h) pool.submit([loop] { loop->drain(); });

  loop->drain();

  // The cursor is exhausted, but helpers may still be mid-chunk; wait for
  // every index to complete before touching the error slot or returning
  // (fn may reference caller stack state).
  std::unique_lock<std::mutex> lock(loop->mu);
  loop->done_cv.wait(lock, [&] {
    return loop->completed.load(std::memory_order_acquire) >= loop->end;
  });
  // Rethrow through a pointer only the caller holds: a helper may drop the
  // last reference to `loop` while the caller still handles the exception,
  // and the exception must not be destroyed on that thread.
  if (std::exception_ptr error = std::exchange(loop->error, nullptr))
    std::rethrow_exception(error);
}

}  // namespace libra
