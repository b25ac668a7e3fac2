// Unit tests for lamp::par (src/par/thread_pool.h): static chunking,
// full-range coverage at every thread count, deterministic exception
// selection (lowest failing chunk wins), inline nested ParallelFor (no
// deadlock on the fixed-size pool), and the DefaultThreads /
// ParseCount / ConfigureFromCommandLine configuration surface.

#include "par/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace lamp::par {
namespace {

TEST(ThreadPoolTest, ParallelForCoversExactlyTheRange) {
  for (std::size_t threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    const std::size_t n = 97;  // Deliberately not a multiple of any count.
    std::vector<std::atomic<int>> hits(n);
    pool.ParallelFor(0, n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "i=" << i << " threads=" << threads;
    }
  }
}

TEST(ThreadPoolTest, EmptyAndSingletonRanges) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.ParallelFor(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, ChunksAreContiguousAscendingAndStatic) {
  ThreadPool pool(4);
  const std::size_t n = 10;
  // Record (chunk, lo, hi) triples; chunk identity makes order checkable
  // regardless of execution interleaving.
  std::vector<std::pair<std::size_t, std::size_t>> bounds(pool.NumChunks(n));
  pool.ParallelChunks(0, n, [&](std::size_t chunk, std::size_t lo,
                                std::size_t hi) {
    bounds[chunk] = {lo, hi};
  });
  std::size_t expect_lo = 0;
  for (const auto& [lo, hi] : bounds) {
    EXPECT_EQ(lo, expect_lo);
    EXPECT_LT(lo, hi);
    expect_lo = hi;
  }
  EXPECT_EQ(expect_lo, n);

  // Boundaries are a pure function of (range, thread count): a second run
  // over the same range reproduces them exactly.
  std::vector<std::pair<std::size_t, std::size_t>> again(pool.NumChunks(n));
  pool.ParallelChunks(0, n, [&](std::size_t chunk, std::size_t lo,
                                std::size_t hi) {
    again[chunk] = {lo, hi};
  });
  EXPECT_EQ(bounds, again);
}

TEST(ThreadPoolTest, NumChunksNeverExceedsRangeOrThreads) {
  ThreadPool pool(8);
  EXPECT_EQ(pool.NumChunks(0), 0u);
  EXPECT_EQ(pool.NumChunks(3), 3u);
  EXPECT_EQ(pool.NumChunks(8), 8u);
  EXPECT_EQ(pool.NumChunks(1000), 8u);
}

TEST(ThreadPoolTest, LowestChunkExceptionWins) {
  for (std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    // Several failing indices: the one in the lowest chunk (index 3) must
    // be the one observed, at every thread count.
    try {
      pool.ParallelFor(0, 64, [](std::size_t i) {
        if (i == 3 || i == 40 || i == 63) {
          throw std::runtime_error("boom at " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception (threads=" << threads << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 3") << "threads=" << threads;
    }
  }
}

TEST(ThreadPoolTest, PoolSurvivesAnException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 8, [](std::size_t) { throw std::logic_error("x"); }),
      std::logic_error);
  // The pool must still execute work afterwards.
  std::atomic<int> sum{0};
  pool.ParallelFor(0, 8, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 28);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  const std::size_t outer = 8, inner = 16;
  std::vector<std::atomic<int>> hits(outer * inner);
  pool.ParallelFor(0, outer, [&](std::size_t i) {
    // Nested call from (potentially) a worker thread: must complete inline
    // rather than enqueue onto the already-busy fixed-size pool.
    pool.ParallelFor(0, inner, [&](std::size_t j) {
      hits[i * inner + j].fetch_add(1);
    });
  });
  for (std::size_t k = 0; k < outer * inner; ++k) {
    EXPECT_EQ(hits[k].load(), 1) << "k=" << k;
  }
}

TEST(ThreadPoolTest, SingleThreadPoolRunsEverythingInline) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  pool.ParallelFor(0, 5, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
}

TEST(ParConfigTest, SetDefaultThreadsClampsAndSwitchesGlobalPool) {
  SetDefaultThreads(3);
  EXPECT_EQ(DefaultThreads(), 3u);
  EXPECT_EQ(GlobalPool().num_threads(), 3u);
  SetDefaultThreads(0);  // Clamped to serial.
  EXPECT_EQ(DefaultThreads(), 1u);
  EXPECT_EQ(GlobalPool().num_threads(), 1u);
  SetDefaultThreads(1);
}

// GlobalPool keeps one pool per lane count for the life of the process:
// a thread still inside a ParallelFor on the 2-lane pool must survive
// another thread switching the default to 4 and fetching that pool, and a
// switch back hands out the same 2-lane pool again.
TEST(ParConfigTest, SwitchingTheDefaultNeverDeletesAPoolInUse) {
  SetDefaultThreads(2);
  ThreadPool& two = GlobalPool();
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::thread user([&two, &entered, released] {
    two.ParallelFor(0, 2, [&entered, released](std::size_t i) {
      if (i != 0) return;  // Chunk 0 runs on this (the calling) thread.
      entered.set_value();
      released.wait();
    });
  });
  entered.get_future().wait();
  SetDefaultThreads(4);
  ThreadPool& four = GlobalPool();
  EXPECT_EQ(four.num_threads(), 4u);
  EXPECT_NE(&four, &two);
  release.set_value();
  user.join();
  SetDefaultThreads(2);
  EXPECT_EQ(&GlobalPool(), &two);
  SetDefaultThreads(1);
}

TEST(ParConfigTest, ParseCountTakesOnlyWholeNumbersFromOne) {
  EXPECT_EQ(ParseCount("1"), 1u);
  EXPECT_EQ(ParseCount("16"), 16u);
  for (const char* bad : {"", "0", "-2", "abc", "4x", " 4", "4 ", "+4"}) {
    EXPECT_FALSE(ParseCount(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(ParConfigTest, ConfigureFromCommandLineStripsThreadsFlag) {
  char arg0[] = "bench";
  char arg1[] = "--threads=5";
  char arg2[] = "--repeat=3";
  char* argv[] = {arg0, arg1, arg2, nullptr};
  int argc = 3;
  ConfigureFromCommandLine(&argc, argv);
  EXPECT_EQ(DefaultThreads(), 5u);
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(argv[0], "bench");
  EXPECT_STREQ(argv[1], "--repeat=3");

  char barg0[] = "bench";
  char barg1[] = "--threads";
  char barg2[] = "2";
  char* bargv[] = {barg0, barg1, barg2, nullptr};
  int bargc = 3;
  ConfigureFromCommandLine(&bargc, bargv);
  EXPECT_EQ(DefaultThreads(), 2u);
  EXPECT_EQ(bargc, 1);
  SetDefaultThreads(1);
}

}  // namespace
}  // namespace lamp::par
