// Unit tests for the common substrate: PRNG, thread pool, error macros,
// text tables, timers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gala/common/error.hpp"
#include "gala/common/prng.hpp"
#include "gala/common/table.hpp"
#include "gala/common/thread_pool.hpp"
#include "gala/common/timer.hpp"

namespace gala {
namespace {

TEST(Prng, DeterministicForSameSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Prng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a() == b();
  EXPECT_LT(equal, 3);
}

TEST(Prng, NextDoubleInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Prng, NextBelowRespectsBound) {
  Xoshiro256 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t x = rng.next_below(7);
    EXPECT_LT(x, 7u);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Prng, NextBelowIsRoughlyUniform) {
  Xoshiro256 rng(11);
  constexpr int kBuckets = 10, kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(kBuckets)];
  for (const int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Prng, SplitProducesIndependentStream) {
  Xoshiro256 a(5);
  Xoshiro256 child = a.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a() == child();
  EXPECT_LT(equal, 3);
}

TEST(Prng, SplitmixIsConstexprAndStable) {
  static_assert(splitmix64(0) == 0xe220a8397b1dcdafULL);
  EXPECT_EQ(splitmix64(1), splitmix64(1));
  EXPECT_NE(splitmix64(1), splitmix64(2));
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for_chunked(
      0, hits.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      },
      /*grain=*/1);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for_chunked(5, 5,
                            [](std::size_t, std::size_t) { FAIL() << "body must not run"; });
}

TEST(ThreadPool, ChunkedCoversRangeContiguously) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(5000);
  pool.parallel_for_chunked(0, hits.size(), [&](std::size_t lo, std::size_t hi) {
    EXPECT_LE(lo, hi);
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, WorkerExceptionPropagatesToCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for_chunked(
          0, 100,
          [](std::size_t lo, std::size_t hi) {
            if (lo <= 37 && 37 < hi) throw Error("boom");
          },
          1),
      Error);
  // The pool must remain usable afterwards.
  std::atomic<int> count{0};
  pool.parallel_for_chunked(0, 10, [&](std::size_t lo, std::size_t hi) {
    count.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(count.load(), 10);
}

// Two threads share one pool; only one of them throws. Each caller must see
// exactly its own outcome, every trial.
TEST(ThreadPool, ConcurrentCallersSeeOnlyTheirOwnException) {
  ThreadPool pool(4);
  int stolen = 0;  // the clean caller threw
  int lost = 0;    // the throwing caller returned normally
  for (int trial = 0; trial < 200; ++trial) {
    std::atomic<int> ready{0};
    const auto start_together = [&ready] {
      ready.fetch_add(1);
      while (ready.load() < 2) std::this_thread::yield();
    };
    bool clean_threw = false;
    bool failing_threw = false;
    std::thread failing([&] {
      start_together();
      try {
        pool.parallel_for_chunked(
            0, 4096, [](std::size_t, std::size_t) { throw Error("boom"); }, 64);
      } catch (const Error&) {
        failing_threw = true;
      }
    });
    start_together();
    std::atomic<std::size_t> sum{0};
    try {
      pool.parallel_for_chunked(
          0, 4096,
          [&sum](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) sum.fetch_add(i);
          },
          64);
    } catch (const Error&) {
      clean_threw = true;
    }
    failing.join();
    stolen += clean_threw ? 1 : 0;
    lost += failing_threw ? 0 : 1;
    if (!clean_threw) {
      EXPECT_EQ(sum.load(), 4095u * 4096u / 2);
    }
  }
  EXPECT_EQ(stolen, 0) << "a caller caught another caller's exception";
  EXPECT_EQ(lost, 0) << "a throwing caller returned normally";
}

// A body may call parallel_for on its own pool. The wait is bounded so that
// a deadlock fails the test instead of hanging it.
TEST(ThreadPool, NestedParallelForFromABodyCompletes) {
  auto pool = std::make_unique<ThreadPool>(4);
  std::atomic<std::size_t> sum{0};
  std::packaged_task<void()> task([&pool, &sum] {
    pool->parallel_for_chunked(
        0, 64,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            pool->parallel_for_chunked(
                0, 1000,
                [&](std::size_t jlo, std::size_t jhi) {
                  for (std::size_t j = jlo; j < jhi; ++j) sum.fetch_add(j);
                },
                16);
          }
        },
        1);
  });
  std::future<void> done = task.get_future();
  std::thread caller(std::move(task));
  if (done.wait_for(std::chrono::seconds(20)) != std::future_status::ready) {
    // A deadlocked pool can be neither joined nor destroyed: leave the
    // caller and the pool behind so the failure is reported, not hung on.
    caller.detach();
    (void)pool.release();
    FAIL() << "nested parallel_for did not complete";
  }
  caller.join();
  done.get();
  EXPECT_EQ(sum.load(), 64u * (999u * 1000u / 2));
}

/// Threads of this process, from /proc/self/status; 0 where unavailable.
std::size_t process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  }
  return 0;
}

// A size-1 pool starts no worker thread: each call runs on the caller, as
// the single chunk [begin, end), whatever the grain.
TEST(ThreadPool, SizeOnePoolRunsInlineAsOneChunk) {
  const std::size_t threads_before = process_threads();
  if (threads_before == 0) GTEST_SKIP() << "no /proc/self/status";
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(process_threads(), threads_before) << "a size-1 pool started a worker";
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  std::vector<std::thread::id> ids;
  pool.parallel_for_chunked(
      3, 100000,
      [&](std::size_t lo, std::size_t hi) {
        chunks.emplace_back(lo, hi);
        ids.push_back(std::this_thread::get_id());
      },
      /*grain=*/1);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], std::make_pair(std::size_t{3}, std::size_t{100000}));
  EXPECT_EQ(ids[0], std::this_thread::get_id());
}

TEST(ErrorMacros, CheckThrowsWithMessage) {
  try {
    GALA_CHECK(1 == 2, "value was " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(ErrorMacros, CheckPassesSilently) {
  GALA_CHECK(2 + 2 == 4, "never");
}

TEST(TextTable, AlignsColumnsAndPrintsAllRows) {
  TextTable t({"a", "long-header", "c"});
  t.row().cell("x").cell(3.14159, 2).cell(7);
  t.row().cell("longer-value").cell(1).cell("z");
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_NE(out.find("longer-value"), std::string::npos);
  // Header + separator + 2 rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(TextTable, CellBeforeRowThrows) {
  TextTable t({"a"});
  EXPECT_THROW(t.cell("x"), Error);
}

TEST(Timer, MeasuresElapsedTimeMonotonically) {
  Timer t;
  const double a = t.seconds();
  const double b = t.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

TEST(PhaseTimer, AccumulatesAcrossStartStop) {
  PhaseTimer t;
  t.start();
  t.stop();
  t.start();
  t.stop();
  EXPECT_EQ(t.count(), 2u);
  EXPECT_GE(t.total_seconds(), 0.0);
  t.reset();
  EXPECT_EQ(t.count(), 0u);
}

TEST(PhaseTimer, DoubleStartClosesOpenInterval) {
  PhaseTimer t;
  t.start();
  t.start();  // must bank the first interval, not discard it
  t.stop();
  EXPECT_EQ(t.count(), 2u);
}

TEST(PhaseTimer, ScopedPhaseStartsAndStops) {
  PhaseTimer t;
  {
    ScopedPhase phase(t);
    EXPECT_EQ(t.count(), 0u);  // interval still open
  }
  EXPECT_EQ(t.count(), 1u);
  {
    ScopedPhase phase(t);
  }
  EXPECT_EQ(t.count(), 2u);
  EXPECT_GE(t.total_seconds(), 0.0);
}

}  // namespace
}  // namespace gala
