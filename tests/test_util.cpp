#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "util/expect.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace ibvs {
namespace {

TEST(SplitMix64, DeterministicForSeed) {
  SplitMix64 a(12345);
  SplitMix64 b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(SplitMix64, BelowRespectsBound) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(SplitMix64, BetweenInclusive) {
  SplitMix64 rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.between(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);  // all three values appear
  EXPECT_THROW(rng.between(5, 3), std::invalid_argument);
}

TEST(SplitMix64, UniformInUnitInterval) {
  SplitMix64 rng(99);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(SplitMix64, ForkIsIndependentStream) {
  SplitMix64 a(42);
  SplitMix64 forked = a.fork();
  // The fork and the parent should not produce identical sequences.
  int same = 0;
  for (int i = 0; i < 32; ++i) {
    if (a() == forked()) ++same;
  }
  EXPECT_LT(same, 2);
}

/// A work estimate that always fans out.
constexpr std::size_t kBigWork = ThreadPool::kParallelMinWork;

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for_shards(hits.size(), kBigWork,
                           [&](std::size_t, std::size_t b, std::size_t e) {
                             for (std::size_t i = b; i < e; ++i) {
                               hits[i].fetch_add(1);
                             }
                           });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for_shards(0, kBigWork,
                           [&](std::size_t, std::size_t, std::size_t) {
                             ran = true;
                           });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ChunksPartitionRange) {
  ThreadPool pool(3);
  std::mutex m;
  std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> shards;
  pool.parallel_for_shards(
      103, kBigWork, [&](std::size_t shard, std::size_t b, std::size_t e) {
        std::lock_guard<std::mutex> lock(m);
        shards.emplace_back(b, e, shard);
      });
  ASSERT_EQ(shards.size(), pool.shard_count(103));
  std::sort(shards.begin(), shards.end());
  std::size_t expect_begin = 0;
  std::set<std::size_t> indices;
  for (const auto& [b, e, shard] : shards) {
    EXPECT_EQ(b, expect_begin);
    EXPECT_GT(e, b);
    EXPECT_LE(e - b, 103u / shards.size() + 1);  // balanced
    indices.insert(shard);
    expect_begin = e;
  }
  EXPECT_EQ(expect_begin, 103u);
  EXPECT_EQ(indices.size(), shards.size());  // dense, distinct indices
  EXPECT_EQ(*indices.rbegin(), shards.size() - 1);
}

TEST(ThreadPool, ExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for_shards(100, kBigWork,
                               [&](std::size_t, std::size_t b, std::size_t e) {
                                 if (b <= 37 && 37 < e) {
                                   throw std::runtime_error("x");
                                 }
                               }),
      std::runtime_error);
}

TEST(ThreadPool, SmallWorkRunsInlineOnCaller) {
  ThreadPool pool(4);
  std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> calls;
  std::thread::id ran_on;
  pool.parallel_for_shards(
      100, ThreadPool::kParallelMinWork - 1,
      [&](std::size_t shard, std::size_t b, std::size_t e) {
        calls.emplace_back(shard, b, e);
        ran_on = std::this_thread::get_id();
      });
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0],
            std::make_tuple(std::size_t{0}, std::size_t{0}, std::size_t{100}));
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPool, SizeOnePoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.shard_count(100), 1u);
  std::size_t calls = 0;
  std::thread::id ran_on;
  pool.parallel_for_shards(100, kBigWork,
                           [&](std::size_t shard, std::size_t b,
                               std::size_t e) {
                             EXPECT_EQ(shard, 0u);
                             EXPECT_EQ(b, 0u);
                             EXPECT_EQ(e, 100u);
                             ran_on = std::this_thread::get_id();
                             ++calls;
                           });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPool, CallerShardRunsAndItsExceptionPropagates) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  // Every shard waits until all of them started, so the caller is sure to
  // claim one: a pool of 4 runs 4 shards on 3 workers plus the caller.
  std::atomic<std::size_t> started{0};
  std::atomic<bool> caller_ran{false};
  EXPECT_THROW(
      pool.parallel_for_shards(4, kBigWork,
                               [&](std::size_t, std::size_t, std::size_t) {
                                 started.fetch_add(1);
                                 while (started.load() < 4) {
                                   std::this_thread::yield();
                                 }
                                 if (std::this_thread::get_id() == caller) {
                                   caller_ran = true;
                                   throw std::runtime_error("caller shard");
                                 }
                               }),
      std::runtime_error);
  EXPECT_TRUE(caller_ran.load());
  // The pool is reusable after the failed fan-out.
  std::atomic<std::size_t> covered{0};
  pool.parallel_for_shards(1000, kBigWork,
                           [&](std::size_t, std::size_t b, std::size_t e) {
                             covered.fetch_add(e - b);
                           });
  EXPECT_EQ(covered.load(), 1000u);
}

TEST(ThreadPool, NestedFanOutRunsInline) {
  ThreadPool pool(4);
  std::atomic<std::size_t> inner_calls{0};
  std::atomic<std::size_t> covered{0};
  pool.parallel_for_shards(
      8, kBigWork, [&](std::size_t, std::size_t b, std::size_t e) {
        const std::thread::id outer = std::this_thread::get_id();
        pool.parallel_for_shards(
            (e - b) * 10, kBigWork,
            [&](std::size_t shard, std::size_t ib, std::size_t ie) {
              EXPECT_EQ(shard, 0u);
              EXPECT_EQ(std::this_thread::get_id(), outer);
              inner_calls.fetch_add(1);
              covered.fetch_add(ie - ib);
            });
      });
  EXPECT_EQ(inner_calls.load(), pool.shard_count(8));
  EXPECT_EQ(covered.load(), 80u);
}

TEST(ThreadPool, GlobalPoolIsReused) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

TEST(Stopwatch, MeasuresElapsed) {
  Stopwatch w;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GT(w.elapsed().count(), 0);
  EXPECT_GE(w.elapsed_seconds(), 0.0);
  EXPECT_GE(w.elapsed_ms(), 0.0);
  w.reset();
  EXPECT_LT(w.elapsed_seconds(), 1.0);
}

TEST(Expect, RequireThrowsInvalidArgument) {
  EXPECT_THROW(IBVS_REQUIRE(false, "boom"), std::invalid_argument);
  EXPECT_NO_THROW(IBVS_REQUIRE(true, "fine"));
}

TEST(Expect, EnsureThrowsLogicError) {
  EXPECT_THROW(IBVS_ENSURE(false, "bug"), std::logic_error);
  EXPECT_NO_THROW(IBVS_ENSURE(true, "fine"));
}

TEST(ThreadPool, SetGlobalThreadsResizes) {
  ThreadPool::set_global_threads(3);
  EXPECT_EQ(ThreadPool::global_thread_count(), 3u);
  EXPECT_EQ(ThreadPool::global().size(), 3u);
  // The resized pool still does work.
  std::atomic<int> sum{0};
  ThreadPool::global().parallel_for_shards(
      100, kBigWork, [&](std::size_t, std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) sum += int(i);
      });
  EXPECT_EQ(sum.load(), 4950);
  // 0 restores the default sizing chain.
  ThreadPool::set_global_threads(0);
  EXPECT_GE(ThreadPool::global_thread_count(), 1u);
}

TEST(Expect, MessageContainsContext) {
  try {
    IBVS_REQUIRE(1 == 2, "one is not two");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("one is not two"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

}  // namespace
}  // namespace ibvs
