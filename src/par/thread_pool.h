#ifndef LAMP_PAR_THREAD_POOL_H_
#define LAMP_PAR_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

/// \file
/// lamp::par — deterministic parallel execution.
///
/// A fixed-size worker pool plus ParallelFor / ParallelChunks with *static*
/// chunking: the split of [begin, end) into contiguous chunks depends only
/// on the range size and the chunk count, never on timing or scheduling.
/// Callers that keep per-chunk results separate and merge them in ascending
/// chunk order therefore observe the same result bytes at every thread
/// count — the property the MPC simulator's communication phase leans on
/// (DESIGN.md §lamp::par).
///
/// Nested ParallelFor/ParallelChunks calls issued from inside a worker run
/// inline on the calling worker (no tasks are enqueued), so nesting cannot
/// deadlock the fixed-size pool. A caller waiting on its chunks helps run
/// only its own call's chunks, never another caller's, so callers on
/// different threads sharing one pool (mesh ranks in one process) cannot
/// end up waiting on each other through it. Exceptions thrown by chunk
/// bodies are captured and the one from the lowest-indexed failing chunk
/// is rethrown in the calling thread once every chunk has finished.

namespace lamp::par {

class ThreadPool {
 public:
  /// A pool with \p num_threads execution lanes. The caller participates,
  /// so only num_threads - 1 worker threads are started; 1 means fully
  /// inline execution (no threads at all).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return num_threads_; }

  /// Calls body(i) for every i in [begin, end), the range split into
  /// NumChunks(end - begin) contiguous chunks. Blocks until every call has
  /// returned; rethrows the lowest-chunk exception, if any.
  void ParallelFor(std::size_t begin, std::size_t end,
                   const std::function<void(std::size_t)>& body);

  /// Static chunking with explicit chunk identity: calls
  /// body(chunk, lo, hi) once per chunk, the chunks covering [begin, end)
  /// contiguously in ascending order. Chunk boundaries are a pure function
  /// of (end - begin, num_threads()).
  void ParallelChunks(std::size_t begin, std::size_t end,
                      const std::function<void(std::size_t chunk,
                                               std::size_t lo,
                                               std::size_t hi)>& body);

  /// Number of chunks ParallelChunks uses for a range of \p n items:
  /// min(num_threads(), n).
  std::size_t NumChunks(std::size_t n) const;

  /// True when the calling thread is one of this process's pool workers
  /// (any pool). Parallel entry points use this to degrade to inline
  /// execution instead of deadlocking on nested use.
  static bool OnWorkerThread();

 private:
  /// One ParallelChunks call (thread_pool.cc).
  struct Call;
  /// A queued chunk: chunk \p chunk of \p call.
  struct Task {
    Call* call = nullptr;
    std::size_t chunk = 0;
  };

  void WorkerLoop();

  std::size_t num_threads_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_ready_;
  std::deque<Task> tasks_;
  bool stopping_ = false;
};

/// Threads components use when the caller does not pass a pool explicitly:
/// the value set by SetDefaultThreads, else the LAMP_THREADS environment
/// variable, else 1 (serial). Parallel results are bit-identical to serial
/// runs, so this setting only affects wall-clock.
std::size_t DefaultThreads();

/// Overrides DefaultThreads (clamped to >= 1). Later GlobalPool calls hand
/// out the pool of the new lane count.
void SetDefaultThreads(std::size_t n);

/// The process-wide pool of DefaultThreads() lanes. There is one such pool
/// per lane count, built on first request and kept for the life of the
/// process, so a thread still running on a pool survives another thread
/// changing the default.
ThreadPool& GlobalPool();

/// Reads \p text as a whole number >= 1 with nothing before or after it;
/// nullopt otherwise. The one rule for "--threads N", LAMP_THREADS and a
/// bench's "--repeat N".
std::optional<std::size_t> ParseCount(std::string_view text);

/// Strips "--threads N" / "--threads=N" from argv (so the flag parsers
/// after it never see it) and applies the value via SetDefaultThreads.
/// Without the flag, LAMP_THREADS decides (the DefaultThreads fallback).
/// A flag value or a set LAMP_THREADS that ParseCount rejects exits 2 with
/// a usage message. Every binary under bench/ calls this first.
void ConfigureFromCommandLine(int* argc, char** argv);

}  // namespace lamp::par

#endif  // LAMP_PAR_THREAD_POOL_H_
