#include "par/thread_pool.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "common/check.h"

namespace lamp::par {

namespace {

/// Set for the lifetime of every pool worker; nested parallel entry points
/// consult it to run inline instead of enqueueing (which could deadlock a
/// fully busy fixed-size pool).
thread_local bool t_on_worker = false;

void RethrowLowestChunkError(const std::vector<std::exception_ptr>& errors) {
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace

/// Book-keeping for one ParallelChunks call. Chunks decrement `remaining`
/// as they finish; the caller waits for zero. Errors are kept per chunk so
/// the *lowest-indexed* failure is rethrown regardless of which chunk
/// happened to fail first in wall-clock order.
struct ThreadPool::Call {
  Call(std::size_t begin, std::size_t n, std::size_t chunks,
       const std::function<void(std::size_t, std::size_t, std::size_t)>&
           body)
      : begin(begin),
        n(n),
        chunks(chunks),
        body(body),
        remaining(chunks),
        errors(chunks) {}

  std::size_t Lo(std::size_t c) const { return begin + (n * c) / chunks; }

  /// Runs chunk \p c and counts it done. The call may be destroyed as soon
  /// as the last chunk is counted, so nothing touches it after that.
  void Run(std::size_t c) {
    try {
      body(c, Lo(c), Lo(c + 1));
    } catch (...) {
      errors[c] = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(m);
    if (--remaining == 0) done.notify_one();
  }

  const std::size_t begin;
  const std::size_t n;
  const std::size_t chunks;
  const std::function<void(std::size_t, std::size_t, std::size_t)>& body;
  std::mutex m;
  std::condition_variable done;
  std::size_t remaining;
  std::vector<std::exception_ptr> errors;
};

ThreadPool::ThreadPool(std::size_t num_threads) : num_threads_(num_threads) {
  LAMP_CHECK(num_threads_ > 0);
  workers_.reserve(num_threads_ - 1);
  for (std::size_t i = 0; i + 1 < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  t_on_worker = true;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping_ and drained.
      task = tasks_.front();
      tasks_.pop_front();
    }
    task.call->Run(task.chunk);
  }
}

std::size_t ThreadPool::NumChunks(std::size_t n) const {
  return n < num_threads_ ? n : num_threads_;
}

bool ThreadPool::OnWorkerThread() { return t_on_worker; }

void ThreadPool::ParallelChunks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t chunks = NumChunks(n);
  Call call(begin, n, chunks, body);

  if (chunks == 1 || OnWorkerThread()) {
    // Inline path (serial pool, tiny range, or nested call from a worker):
    // same chunk boundaries, same ascending order, same error policy.
    for (std::size_t c = 0; c < chunks; ++c) call.Run(c);
    RethrowLowestChunkError(call.errors);
    return;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t c = 1; c < chunks; ++c) tasks_.push_back({&call, c});
  }
  work_ready_.notify_all();
  call.Run(0);

  // Help with this call's own chunks while waiting: on machines with fewer
  // cores than lanes the caller doing chunk work is what keeps wall-clock
  // flat. It never runs another call's chunk, which could block on work
  // only this caller's thread will do (another mesh rank's frames).
  for (;;) {
    std::size_t chunk = chunks;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto it = tasks_.begin(); it != tasks_.end(); ++it) {
        if (it->call == &call) {
          chunk = it->chunk;
          tasks_.erase(it);
          break;
        }
      }
    }
    if (chunk == chunks) break;
    call.Run(chunk);
  }
  // Every chunk has left the queue, so once the running ones are counted
  // no task refers to the call any more.
  {
    std::unique_lock<std::mutex> lock(call.m);
    call.done.wait(lock, [&call] { return call.remaining == 0; });
  }
  RethrowLowestChunkError(call.errors);
}

void ThreadPool::ParallelFor(std::size_t begin, std::size_t end,
                             const std::function<void(std::size_t)>& body) {
  ParallelChunks(begin, end,
                 [&body](std::size_t, std::size_t lo, std::size_t hi) {
                   for (std::size_t i = lo; i < hi; ++i) body(i);
                 });
}

namespace {

std::mutex g_config_mu;
// One pool per lane count ever asked for, alive for the life of the
// process: switching the default never deletes a pool another thread may
// still be running on.
std::map<std::size_t, std::unique_ptr<ThreadPool>> g_pools;
std::size_t g_default_threads = 0;  // 0 = unset; fall back to LAMP_THREADS.

constexpr const char* kThreadsEnvVar = "LAMP_THREADS";

/// LAMP_THREADS, or nullptr when unset or empty.
const char* ThreadsEnv() {
  const char* env = std::getenv(kThreadsEnvVar);
  return (env == nullptr || *env == '\0') ? nullptr : env;
}

std::size_t EnvThreads() {
  const char* env = ThreadsEnv();
  return env == nullptr ? 1 : ParseCount(env).value_or(1);
}

std::size_t DefaultThreadsLocked() {
  return g_default_threads != 0 ? g_default_threads : EnvThreads();
}

}  // namespace

std::size_t DefaultThreads() {
  std::lock_guard<std::mutex> lock(g_config_mu);
  return DefaultThreadsLocked();
}

void SetDefaultThreads(std::size_t n) {
  std::lock_guard<std::mutex> lock(g_config_mu);
  g_default_threads = n < 1 ? 1 : n;
}

ThreadPool& GlobalPool() {
  std::lock_guard<std::mutex> lock(g_config_mu);
  const std::size_t want = DefaultThreadsLocked();
  std::unique_ptr<ThreadPool>& pool = g_pools[want];
  if (pool == nullptr) pool = std::make_unique<ThreadPool>(want);
  return *pool;
}

std::optional<std::size_t> ParseCount(std::string_view text) {
  std::size_t n = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, n);
  if (ec != std::errc() || ptr != end || n == 0) return std::nullopt;
  return n;
}

void ConfigureFromCommandLine(int* argc, char** argv) {
  int out = 1;
  std::optional<std::size_t> threads;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (std::strncmp(arg, "--threads=", 10) == 0) {
      value = arg + 10;
    } else if (std::strcmp(arg, "--threads") == 0 && i + 1 < *argc) {
      value = argv[++i];
    }
    if (value == nullptr) {
      argv[out++] = argv[i];
      continue;
    }
    threads = ParseCount(value);
    if (!threads.has_value()) {
      std::fprintf(stderr,
                   "usage: --threads N, a whole number >= 1 (got '%s')\n",
                   value);
      std::exit(2);
    }
  }
  argv[out] = nullptr;
  *argc = out;
  if (threads.has_value()) {
    SetDefaultThreads(*threads);
    return;
  }
  const char* env = ThreadsEnv();
  if (env != nullptr && !ParseCount(env).has_value()) {
    std::fprintf(stderr, "usage: %s=N, a whole number >= 1 (got '%s')\n",
                 kThreadsEnvVar, env);
    std::exit(2);
  }
}

}  // namespace lamp::par
