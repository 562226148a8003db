// Tests for parallel/: thread-pool correctness under contention, coverage of
// the iteration space, deterministic reductions.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/task_arena.hpp"
#include "parallel/thread_pool.hpp"

namespace cpart {
namespace {

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  std::vector<int> hits(100, 0);
  pool.parallel_for(100, [&](idx_t i) { ++hits[static_cast<std::size_t>(i)]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const idx_t n = 100000;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  pool.parallel_for(n, [&](idx_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
  });
  for (idx_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ReduceMatchesSerialSum) {
  ThreadPool pool(8);
  const idx_t n = 50000;
  const wgt_t parallel_sum =
      pool.parallel_reduce<wgt_t>(n, 0, [](idx_t i) { return wgt_t{i}; });
  const wgt_t serial = static_cast<wgt_t>(n) * (n - 1) / 2;
  EXPECT_EQ(parallel_sum, serial);
}

TEST(ThreadPool, ReduceDeterministicAcrossCalls) {
  ThreadPool pool(8);
  const idx_t n = 30000;
  auto run = [&] {
    return pool.parallel_reduce<double>(
        n, 0.0, [](idx_t i) { return 1.0 / (1.0 + static_cast<double>(i)); });
  };
  const double a = run();
  const double b = run();
  EXPECT_EQ(a, b);  // bitwise equal: chunk combination order is fixed
}

TEST(ThreadPool, EmptyAndTinyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&](idx_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](idx_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, RepeatedDispatchesDoNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(5000, [&](idx_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 200L * 5000);
}

TEST(ThreadPool, ChunkIndicesAreDisjointAndOrdered) {
  ThreadPool pool(4);
  std::mutex m;
  std::vector<std::pair<idx_t, idx_t>> ranges;
  pool.parallel_for_chunks(100000, [&](unsigned, idx_t b, idx_t e) {
    std::lock_guard<std::mutex> lock(m);
    ranges.emplace_back(b, e);
  });
  std::sort(ranges.begin(), ranges.end());
  idx_t covered = 0;
  for (auto [b, e] : ranges) {
    EXPECT_EQ(b, covered);
    EXPECT_GT(e, b);
    covered = e;
  }
  EXPECT_EQ(covered, 100000);
}

TEST(ThreadPool, ParallelTasksRunsEachExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(37);
  pool.parallel_tasks(37, [&](idx_t t) {
    hits[static_cast<std::size_t>(t)].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelTasksHandlesFewerTasksThanWorkers) {
  ThreadPool pool(8);
  std::atomic<int> calls{0};
  pool.parallel_tasks(3, [&](idx_t) { ++calls; });
  EXPECT_EQ(calls.load(), 3);
  pool.parallel_tasks(0, [&](idx_t) { ++calls; });
  EXPECT_EQ(calls.load(), 3);
}

TEST(ThreadPool, ParallelTasksOnSingleThreadRunsInline) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.parallel_tasks(5, [&](idx_t t) { order.push_back(static_cast<int>(t)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ParallelTasksUnevenWork) {
  // Tasks with wildly different costs must all complete.
  ThreadPool pool(4);
  std::atomic<long> total{0};
  pool.parallel_tasks(13, [&](idx_t t) {
    long local = 0;
    for (long i = 0; i < (t + 1) * 10000; ++i) local += i % 7;
    total.fetch_add(local + 1, std::memory_order_relaxed);
  });
  EXPECT_GT(total.load(), 13);
}

TEST(ThreadPool, GlobalPoolUsable) {
  const wgt_t s = ThreadPool::global().parallel_reduce<wgt_t>(
      1000, 0, [](idx_t) { return wgt_t{1}; });
  EXPECT_EQ(s, 1000);
}

TEST(ThreadPool, SetGlobalThreadsSwapsThePool) {
  ThreadPool::set_global_threads(3);
  // Requests above the hardware concurrency are honored: worker count is
  // part of the execution shape (gang-dispatched SPMD), not just a speed
  // knob, so a 3-worker request yields 3 workers on any host.
  EXPECT_EQ(ThreadPool::global().num_threads(), 3u);
  const wgt_t s = ThreadPool::global().parallel_reduce<wgt_t>(
      5000, 0, [](idx_t) { return wgt_t{1}; });
  EXPECT_EQ(s, 5000);
  ThreadPool::set_global_threads(0);
  EXPECT_GE(ThreadPool::global().num_threads(), 1u);
}

TEST(ThreadPool, ExclusiveScanMatchesSerial) {
  ThreadPool pool(4);
  const idx_t n = 100000;
  std::vector<idx_t> data(static_cast<std::size_t>(n));
  for (idx_t i = 0; i < n; ++i) {
    data[static_cast<std::size_t>(i)] = (i * 7 + 3) % 11;
  }
  std::vector<idx_t> expected(data);
  idx_t running = 0;
  for (auto& x : expected) {
    const idx_t v = x;
    x = running;
    running += v;
  }
  const idx_t total = pool.parallel_exclusive_scan(std::span<idx_t>(data));
  EXPECT_EQ(total, running);
  EXPECT_EQ(data, expected);
}

TEST(ThreadPool, ExclusiveScanIdenticalAcrossThreadCounts) {
  const idx_t n = 65536;
  std::vector<std::vector<wgt_t>> results;
  std::vector<wgt_t> totals;
  for (unsigned threads : {1u, 2u, 5u, 8u}) {
    ThreadPool pool(threads);
    std::vector<wgt_t> data(static_cast<std::size_t>(n));
    for (idx_t i = 0; i < n; ++i) {
      data[static_cast<std::size_t>(i)] = (i % 13) - 6;  // negatives too
    }
    totals.push_back(pool.parallel_exclusive_scan(std::span<wgt_t>(data)));
    results.push_back(std::move(data));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0], results[i]);
    EXPECT_EQ(totals[0], totals[i]);
  }
}

TEST(ThreadPool, ExclusiveScanEmptyAndTiny) {
  ThreadPool pool(4);
  std::vector<idx_t> empty;
  EXPECT_EQ(pool.parallel_exclusive_scan(std::span<idx_t>(empty)), 0);
  std::vector<idx_t> one{5};
  EXPECT_EQ(pool.parallel_exclusive_scan(std::span<idx_t>(one)), 5);
  EXPECT_EQ(one[0], 0);
}

TEST(ThreadPool, SingleFailingTaskRethrowsOriginalException) {
  ThreadPool pool(4);
  try {
    pool.parallel_tasks(8, [](idx_t i) {
      if (i == 3) throw InputError("rank 3 failed");
    });
    FAIL() << "expected InputError";
  } catch (const InputError& e) {
    EXPECT_STREQ(e.what(), "rank 3 failed");
  }
}

TEST(ThreadPool, MultipleFailingTasksAggregateEveryRank) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> ran(16);
  try {
    pool.parallel_tasks(16, [&](idx_t i) {
      ran[static_cast<std::size_t>(i)].fetch_add(1);
      if (i % 5 == 2) {  // tasks 2, 7, 12 fail
        throw InputError("rank " + std::to_string(i) + " failed");
      }
    });
    FAIL() << "expected ParallelGroupError";
  } catch (const ParallelGroupError& e) {
    ASSERT_EQ(e.failures().size(), 3u);
    // Failures are sorted by task index (== rank id) with the original
    // messages preserved.
    EXPECT_EQ(e.failures()[0].index, 2);
    EXPECT_EQ(e.failures()[1].index, 7);
    EXPECT_EQ(e.failures()[2].index, 12);
    EXPECT_EQ(e.failures()[1].message, "rank 7 failed");
    EXPECT_NE(std::string(e.what()).find("rank 12 failed"),
              std::string::npos);
  }
  // BSP semantics: every task completed its superstep despite the failures.
  for (auto& r : ran) EXPECT_EQ(r.load(), 1);
}

TEST(ThreadPool, MultipleFailingTasksAggregateInline) {
  // The single-thread inline path must aggregate identically.
  ThreadPool pool(1);
  std::vector<int> ran(6, 0);
  try {
    pool.parallel_tasks(6, [&](idx_t i) {
      ++ran[static_cast<std::size_t>(i)];
      if (i == 1 || i == 4) throw InputError("boom");
    });
    FAIL() << "expected ParallelGroupError";
  } catch (const ParallelGroupError& e) {
    ASSERT_EQ(e.failures().size(), 2u);
    EXPECT_EQ(e.failures()[0].index, 1);
    EXPECT_EQ(e.failures()[1].index, 4);
  }
  for (int r : ran) EXPECT_EQ(r, 1);
}

TEST(ThreadPool, NonStdExceptionAggregatesAsUnknown) {
  ThreadPool pool(1);
  try {
    pool.parallel_tasks(4, [](idx_t i) {
      if (i == 0) throw 42;
      if (i == 2) throw InputError("typed");
    });
    FAIL() << "expected ParallelGroupError";
  } catch (const ParallelGroupError& e) {
    ASSERT_EQ(e.failures().size(), 2u);
    EXPECT_EQ(e.failures()[0].message, "unknown exception");
    EXPECT_EQ(e.failures()[1].message, "typed");
  }
}

TEST(TaskArena, SubmitAndDrainRunsEveryJob) {
  ThreadPool pool(3);
  TaskArena arena(pool.workers());
  std::atomic<int> runs{0};
  for (int i = 0; i < 50; ++i) {
    arena.submit([&] { runs.fetch_add(1, std::memory_order_relaxed); });
  }
  arena.drain();
  EXPECT_EQ(runs.load(), 50);
  EXPECT_EQ(arena.stats().queue_depth, 0);
  EXPECT_EQ(arena.stats().jobs_failed, 0);
}

TEST(TaskArena, ThrowingJobIsCountedNotPropagated) {
  ThreadPool pool(2);
  TaskArena arena(pool.workers());
  std::atomic<int> runs{0};
  arena.submit([] { throw std::runtime_error("boom"); });
  arena.submit([&] { runs.fetch_add(1, std::memory_order_relaxed); });
  arena.drain();
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(arena.stats().jobs_failed, 1);
}

TEST(TaskArena, MaxParallelismCapsWidth) {
  ThreadPool pool(8);
  ArenaOptions opts;
  opts.max_parallelism = 2;
  TaskArena arena(pool.workers(), opts);
  // The uncapped width already folds in hardware concurrency (this may be
  // a 1-core machine); the cap can only lower it further.
  TaskArena uncapped(pool.workers());
  EXPECT_EQ(arena.width(), std::min(2u, uncapped.width()));
  EXPECT_LE(arena.width(), 2u);
  EXPECT_EQ(arena.stats().width, arena.width());
  // The cap changes only the dispatch width, never the results.
  std::vector<std::atomic<int>> hits(10000);
  arena.parallel_for(10000, [&](idx_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskArena, DeficitRoundRobinHonorsWeights) {
  // One worker, two arenas with weights 3:1, the worker parked on a latch
  // while both queues fill. On release the scheduler's deficit round-robin
  // must interleave 3 heavy items per light one, deterministically.
  ThreadPool pool(1);
  TaskArena parking(pool.workers());
  ArenaOptions heavy_opts;
  heavy_opts.weight = 3;
  TaskArena heavy(pool.workers(), heavy_opts);
  TaskArena light(pool.workers());

  std::mutex m;
  std::condition_variable cv;
  bool go = false;
  parking.submit([&] {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return go; });
  });

  std::vector<char> order;
  std::mutex order_m;
  const auto record = [&](char tag) {
    std::lock_guard<std::mutex> lock(order_m);
    order.push_back(tag);
  };
  for (int i = 0; i < 6; ++i) {
    heavy.submit([&] { record('H'); });
  }
  for (int i = 0; i < 2; ++i) {
    light.submit([&] { record('L'); });
  }
  {
    std::lock_guard<std::mutex> lock(m);
    go = true;
  }
  cv.notify_all();
  heavy.drain();
  light.drain();
  ASSERT_EQ(order.size(), 8u);
  const auto heavy_in_first = [&](std::size_t n) {
    return std::count(order.begin(),
                      order.begin() + static_cast<std::ptrdiff_t>(n), 'H');
  };
  EXPECT_EQ(heavy_in_first(4), 3);  // 3 heavy per round trip of the ring
  EXPECT_EQ(heavy_in_first(8), 6);
  EXPECT_EQ(heavy.stats().items_run, 6);
  EXPECT_EQ(light.stats().items_run, 2);
}

TEST(TaskArena, ArenaScopeRoutesFacadeDispatch) {
  ThreadPool pool(4);
  ArenaOptions opts;
  opts.max_parallelism = 1;  // observable: bound dispatch runs inline
  TaskArena arena(pool.workers(), opts);
  ArenaScope scope(arena);
  ASSERT_EQ(ArenaScope::current(), &arena);
  // With the width-1 arena bound, the facade must run the whole range
  // inline on the calling thread, even though the pool has 4 workers and
  // the range is far past the inline threshold.
  const std::thread::id caller = std::this_thread::get_id();
  const idx_t n = 10000;
  std::vector<std::thread::id> ran_on(static_cast<std::size_t>(n));
  pool.parallel_for(n, [&](idx_t i) {
    ran_on[static_cast<std::size_t>(i)] = std::this_thread::get_id();
  });
  for (const auto& id : ran_on) EXPECT_EQ(id, caller);
}

TEST(WorkerPool, GangRunsWithDistinctParticipants) {
  ThreadPool pool(4);
  const unsigned granted = pool.run_gang(4, [&](idx_t w, unsigned width) {
    EXPECT_LT(static_cast<unsigned>(w), width);
  });
  EXPECT_GE(granted, 1u);
  EXPECT_LE(granted, 4u);
}

TEST(WorkerPool, GangParticipantsCanBlockOnEachOther) {
  // The gang guarantee: every granted participant is backed by a distinct
  // thread, so SPMD bodies may rendezvous. Each participant spins until all
  // of them arrive — with any two participants sharing a thread this hangs
  // (and the suite's ctest timeout would flag it).
  ThreadPool pool(4);
  std::atomic<unsigned> arrived{0};
  pool.run_gang(4, [&](idx_t, unsigned width) {
    arrived.fetch_add(1, std::memory_order_acq_rel);
    while (arrived.load(std::memory_order_acquire) < width) {
      std::this_thread::yield();
    }
  });
  EXPECT_GT(arrived.load(), 0u);
}

TEST(WorkerPool, GangInsideWorkerRunsInline) {
  ThreadPool pool(4);
  std::atomic<unsigned> inner_width{0};
  pool.run_gang(2, [&](idx_t w, unsigned) {
    if (w != 0) return;
    // Nested gang from inside a worker must not wait for helpers that
    // could never be granted.
    pool.run_gang(4, [&](idx_t, unsigned width) {
      inner_width.store(width, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_width.load(), 1u);
}

TEST(SchedulerStats, CountsWorkAndArenas) {
  ThreadPool pool(3);
  const SchedulerStats before = pool.scheduler_stats();
  EXPECT_EQ(before.total_workers, 3);
  EXPECT_EQ(before.registered_arenas, 1);  // the facade's default arena
  {
    TaskArena arena(pool.workers());
    EXPECT_EQ(pool.scheduler_stats().registered_arenas, 2);
    for (int i = 0; i < 20; ++i) {
      arena.submit([] {});
    }
    arena.drain();
    EXPECT_GE(pool.scheduler_stats().items_executed, before.items_executed + 20);
  }
  EXPECT_EQ(pool.scheduler_stats().registered_arenas, 1);
  // Gang helpers are granted only from parked workers, so freshly woken
  // pools may grant none on the first try — retry until one lands.
  for (int attempt = 0; attempt < 1000; ++attempt) {
    pool.run_gang(3, [](idx_t, unsigned) {});
    if (pool.scheduler_stats().gang_slots_executed > 0) break;
    std::this_thread::yield();
  }
  EXPECT_GT(pool.scheduler_stats().gang_slots_executed, 0);
  EXPECT_EQ(pool.scheduler_stats().queued_items, 0);
}

}  // namespace
}  // namespace cpart
