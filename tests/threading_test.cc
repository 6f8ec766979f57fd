// Tests of the deterministic task-parallel core: the work-stealing
// ThreadPool and its fork-join primitives, the CostCacheOverlay and
// ProbeCacheOverlay snapshot/merge protocols, and the batch-structured
// RRS — the pieces whose contract is "any thread count, any steal
// schedule, identical bits".

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <thread>
#include <vector>

#include "common/threading.h"
#include "cost/cost_cache.h"
#include "optimizer/rrs.h"
#include "reuse/probe_cache.h"

namespace stubby {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    constexpr size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, HandlesEdgeSizes) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.ParallelFor(0, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
  pool.ParallelFor(1, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1);
  // Fewer tasks than threads.
  pool.ParallelFor(2, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPoolTest, ClampsThreadCountAndReportsHardware) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.threads(), 1);
  ThreadPool pool2(-5);
  EXPECT_EQ(pool2.threads(), 1);
  EXPECT_GE(ThreadPool::HardwareThreads(), 1);
}

TEST(ThreadPoolTest, ParallelMapPreservesSubmissionOrder) {
  for (int threads : {1, 3, 8}) {
    ThreadPool pool(threads);
    auto out =
        pool.ParallelMap<int>(257, [](size_t i) { return static_cast<int>(i) * 3; });
    ASSERT_EQ(out.size(), 257u);
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], static_cast<int>(i) * 3);
    }
  }
}

TEST(ThreadPoolTest, NestedParallelForExecutesInlineWithoutDeadlock) {
  ThreadPool pool(4);
  EXPECT_FALSE(ThreadPool::InParallelRegion());
  std::vector<int> outer_sums(16, 0);
  pool.ParallelFor(16, [&](size_t i) {
    EXPECT_TRUE(ThreadPool::InParallelRegion());
    // The nested call must run inline on this thread — a fixed pool whose
    // workers all block on inner batches would deadlock here.
    int sum = 0;
    pool.ParallelFor(64, [&](size_t j) { sum += static_cast<int>(j); });
    outer_sums[i] = sum;
  });
  EXPECT_FALSE(ThreadPool::InParallelRegion());
  for (int s : outer_sums) EXPECT_EQ(s, 64 * 63 / 2);
}

TEST(ThreadPoolTest, ConcurrentTopLevelCallsSerialize) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  auto submit = [&] {
    for (int k = 0; k < 20; ++k) {
      pool.ParallelFor(50, [&](size_t) { total.fetch_add(1); });
    }
  };
  std::thread a(submit), b(submit);
  a.join();
  b.join();
  EXPECT_EQ(total.load(), 2 * 20 * 50);
}

TEST(ThreadPoolTest, SkewedTaskDurationsStillRunEveryIndexOnce) {
  // Adversarial skew: a handful of tasks are orders of magnitude heavier
  // than the rest, and the heavy indices land in the same deque under the
  // round-robin deal. Correctness must not depend on who ends up running
  // what.
  for (bool stealing : {true, false}) {
    ThreadPool::Options opts;
    opts.work_stealing = stealing;
    ThreadPool pool(8, opts);
    constexpr size_t kN = 512;
    std::vector<std::atomic<int>> hits(kN);
    pool.ParallelFor(kN, [&](size_t i) {
      // Indices 0 and 1 spin ~100x longer than the rest.
      volatile uint64_t sink = 0;
      const uint64_t spins = (i < 2) ? 200000 : 2000;
      for (uint64_t s = 0; s < spins; ++s) sink += s;
      hits[i].fetch_add(1);
    });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "stealing=" << stealing << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, SkewedDurationsAreBitIdenticalAcrossSchedules) {
  // The ordered-merge sum must not depend on thread count, on stealing
  // being on or off, or on which chunks got stolen — duration skew makes
  // the steal schedule maximally timing-dependent, so run it both ways at
  // several widths and demand the serial bits every time.
  constexpr size_t kN = 300;
  auto run = [&](int threads, bool stealing) {
    ThreadPool::Options opts;
    opts.work_stealing = stealing;
    ThreadPool pool(threads, opts);
    std::vector<double> slots(kN);
    pool.ParallelFor(kN, [&](size_t i) {
      volatile uint64_t sink = 0;
      const uint64_t spins = (i % 67 == 0) ? 150000 : 500;
      for (uint64_t s = 0; s < spins; ++s) sink += s;
      slots[i] = std::sin(static_cast<double>(i)) * 1e-3 + 1.0 / (i + 1.0);
    });
    double sum = 0.0;
    for (double v : slots) sum += v;
    return sum;
  };
  const double serial = run(1, false);
  for (int threads : {1, 2, 4, 8}) {
    for (bool stealing : {true, false}) {
      EXPECT_EQ(run(threads, stealing), serial)
          << "threads=" << threads << " stealing=" << stealing;
    }
  }
}

TEST(ThreadPoolTest, StragglerChunksAreStolen) {
  // One task blocks until every other task has finished. The blocked
  // participant still owns undealt chunks in its deque, so the batch can
  // only complete if the other participants steal them — this test both
  // proves the steal path runs and exercises batch completion by a thief.
  ThreadPool::Options opts;
  opts.work_stealing = true;
  opts.chunks_per_thread = 8;
  ThreadPool pool(4, opts);
  pool.ResetStats();
  constexpr size_t kN = 256;
  // Chunk size is a pure function of (n, threads, chunks_per_thread); the
  // blocked chunk's other indices live nowhere else, so the wait target
  // must exclude the whole chunk, not just the blocked index.
  constexpr size_t kChunk = kN / (4 * 8);
  std::atomic<size_t> finished{0};
  std::atomic<bool> timed_out{false};
  // Block the *caller's first task*: the caller claims the back chunk of
  // its own deque before any worker can, so blocking there pins a deque
  // that still holds chunks only thieves can reach.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> caller_blocked{false};
  pool.ParallelFor(kN, [&](size_t i) {
    (void)i;
    if (std::this_thread::get_id() == caller &&
        !caller_blocked.exchange(true)) {
      auto deadline = std::chrono::steady_clock::now() +
                      std::chrono::seconds(30);
      while (finished.load() < kN - kChunk) {
        if (std::chrono::steady_clock::now() > deadline) {
          timed_out.store(true);
          break;
        }
        std::this_thread::yield();
      }
    }
    finished.fetch_add(1);
  });
  EXPECT_FALSE(timed_out.load())
      << "other participants never drained the blocked deque";
  EXPECT_EQ(finished.load(), kN);
  EXPECT_GE(pool.stats().steals, 1u);
}

TEST(ThreadPoolTest, StatsCountBatchesTasksAndChunks) {
  ThreadPool::Options opts;
  opts.chunks_per_thread = 4;
  ThreadPool pool(4, opts);
  constexpr size_t kN = 1000;
  pool.ParallelFor(kN, [](size_t) {});
  pool.ParallelFor(kN, [](size_t) {});
  ThreadPool::Stats s = pool.stats();
  EXPECT_EQ(s.batches, 2u);
  EXPECT_EQ(s.tasks, 2 * kN);
  // 4 threads x 4 chunks/thread target -> many chunks per batch.
  EXPECT_GE(s.chunks, 2 * 4u);
  pool.ResetStats();
  s = pool.stats();
  EXPECT_EQ(s.batches, 0u);
  EXPECT_EQ(s.tasks, 0u);
}

// stats() right after ParallelFor returns must already count every task:
// workers record their counters before the completion count that releases
// the caller, so no read can land between the two. More workers than cores
// get workers descheduled inside that window often enough that a pool
// recording its counters late fails within a few hundred rounds.
TEST(ThreadPoolTest, StatsCountEveryTaskAsSoonAsParallelForReturns) {
  ThreadPool pool(16);
  constexpr size_t kN = 64;
  for (uint64_t round = 1; round <= 2000; ++round) {
    pool.ParallelFor(kN, [](size_t) {});
    ASSERT_EQ(pool.stats().tasks, round * kN) << "round " << round;
  }
}

TEST(ThreadPoolTest, StealingOffNeverSteals) {
  ThreadPool::Options opts;
  opts.work_stealing = false;
  ThreadPool pool(8, opts);
  for (int round = 0; round < 20; ++round) {
    pool.ParallelFor(333, [](size_t i) {
      volatile uint64_t sink = 0;
      for (uint64_t s = 0; s < (i % 5) * 1000; ++s) sink += s;
    });
  }
  EXPECT_EQ(pool.stats().steals, 0u);
  EXPECT_EQ(pool.stats().tasks, 20u * 333u);
}

TEST(RunTasksTest, NullPoolRunsInlineInIndexOrder) {
  std::vector<size_t> order;
  RunTasks(nullptr, 10, [&](size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 10u);
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(RunTasksTest, OrderedMergeIsBitIdenticalAcrossThreadCounts) {
  // The idiom all call sites use: pure tasks fill their own slot, a serial
  // in-order merge accumulates. Float accumulation order is then fixed, so
  // the sum is bit-identical at every thread count.
  constexpr size_t kN = 500;
  auto run = [&](ThreadPool* pool) {
    std::vector<double> slots(kN);
    RunTasks(pool, kN, [&](size_t i) {
      slots[i] = std::sin(static_cast<double>(i)) * 1e-3 + 1.0 / (i + 1.0);
    });
    double sum = 0.0;
    for (double v : slots) sum += v;
    return sum;
  };
  const double serial = run(nullptr);
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(run(&pool), serial) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// CostCacheOverlay

CostKey Key(uint64_t n) { return {n, ~n}; }

/// A job-memo entry whose only distinguishing field is its map task time.
CostJobEntry Entry(double map_sec) {
  CostJobEntry e;
  e.times.map_avg_sec = map_sec;
  return e;
}

double MapSec(const CostJobEntry* e) { return e->times.map_avg_sec; }

TEST(CostCacheOverlayTest, ReadsFallThroughWritesStayLocal) {
  CostCache cache;
  cache.InsertJob(Key(1), Entry(10.0));

  CostCacheOverlay overlay(&cache);
  const CostJobEntry* hit = overlay.FindJob(Key(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(MapSec(hit), 10.0);
  EXPECT_EQ(overlay.FindJob(Key(2)), nullptr);

  overlay.InsertJob(Key(2), Entry(20.0));
  ASSERT_NE(overlay.FindJob(Key(2)), nullptr);
  EXPECT_EQ(MapSec(overlay.FindJob(Key(2))), 20.0);
  // The shared store must not see the overlay's write until the merge.
  EXPECT_EQ(cache.PeekJob(Key(2)), nullptr);
}

TEST(CostCacheOverlayTest, LocalWriteShadowsParent) {
  CostCache cache;
  cache.InsertJob(Key(1), Entry(10.0));
  CostCacheOverlay overlay(&cache);
  overlay.InsertJob(Key(1), Entry(99.0));
  EXPECT_EQ(MapSec(overlay.FindJob(Key(1))), 99.0);
  EXPECT_EQ(MapSec(overlay.PeekJob(Key(1))), 99.0);
  EXPECT_EQ(MapSec(cache.PeekJob(Key(1))), 10.0);
}

TEST(CostCacheOverlayTest, MergeReplaysInsertsAndRecency) {
  // job_capacity 2 → a single shard with exact global LRU order, so the
  // journaled Touch must decide the eviction victim after the merge.
  CostCache cache(CostCache::Options{.job_capacity = 2});
  cache.InsertJob(Key(1), Entry(1.0));
  cache.InsertJob(Key(2), Entry(2.0));  // LRU order now: 2 (fresh), 1

  CostCacheOverlay overlay(&cache);
  ASSERT_NE(overlay.FindJob(Key(1)), nullptr);  // journals a touch of 1
  std::move(overlay).MergeInto(&cache);         // LRU order now: 1, 2

  cache.InsertJob(Key(3), Entry(3.0));  // evicts 2, the least recent
  EXPECT_NE(cache.PeekJob(Key(1)), nullptr);
  EXPECT_EQ(cache.PeekJob(Key(2)), nullptr);
  EXPECT_NE(cache.PeekJob(Key(3)), nullptr);
}

TEST(CostCacheOverlayTest, MergeWritesLocalInsertsIntoStore) {
  CostCache cache;
  CostCacheOverlay overlay(&cache);
  overlay.InsertJob(Key(7), Entry(7.0));
  CostJobEntry job = Entry(3.5);
  job.dataflow.job_id = "J8";
  job.outputs.emplace_back("D8", PredictedDataset{});
  overlay.InsertJob(Key(8), job);
  std::move(overlay).MergeInto(&cache);
  ASSERT_NE(cache.PeekJob(Key(7)), nullptr);
  EXPECT_EQ(MapSec(cache.PeekJob(Key(7))), 7.0);
  // The merge moves whole entries, every field intact.
  const CostJobEntry* merged = cache.PeekJob(Key(8));
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(MapSec(merged), 3.5);
  EXPECT_EQ(merged->dataflow.job_id, "J8");
  ASSERT_EQ(merged->outputs.size(), 1u);
  EXPECT_EQ(merged->outputs[0].first, "D8");
  EXPECT_EQ(cache.job_entries(), 2u);
}

TEST(CostCacheOverlayTest, OverlaysNestOverOverlays) {
  CostCache cache;
  cache.InsertJob(Key(1), Entry(1.0));
  CostCacheOverlay outer(&cache);
  outer.InsertJob(Key(2), Entry(2.0));

  CostCacheOverlay inner(&outer);
  EXPECT_EQ(MapSec(inner.FindJob(Key(1))), 1.0);  // through both layers
  EXPECT_EQ(MapSec(inner.FindJob(Key(2))), 2.0);  // from the outer overlay
  inner.InsertJob(Key(3), Entry(3.0));
  EXPECT_EQ(outer.PeekJob(Key(3)), nullptr);

  std::move(inner).MergeInto(&outer);
  ASSERT_NE(outer.PeekJob(Key(3)), nullptr);
  EXPECT_EQ(MapSec(outer.PeekJob(Key(3))), 3.0);
  std::move(outer).MergeInto(&cache);
  ASSERT_NE(cache.PeekJob(Key(3)), nullptr);
  EXPECT_EQ(MapSec(cache.PeekJob(Key(2))), 2.0);
}

TEST(CostCacheOverlayTest, NullParentMissesUntilWritten) {
  CostCacheOverlay overlay(nullptr);
  EXPECT_EQ(overlay.FindJob(Key(1)), nullptr);
  overlay.InsertJob(Key(1), Entry(5.0));
  EXPECT_EQ(MapSec(overlay.FindJob(Key(1))), 5.0);
}

TEST(CostCacheOverlayTest, SnapshotMergeMatchesSerialExecution) {
  // Two identical runs, one routing all memo traffic through per-task
  // overlays merged in submission order, one writing the shared memo
  // directly in the same order — the final memo contents must agree.
  auto direct = std::make_unique<CostCache>();
  auto overlaid = std::make_unique<CostCache>();
  for (uint64_t task = 0; task < 4; ++task) {
    // Direct, serial.
    for (uint64_t k = 0; k < 3; ++k) {
      if (direct->FindJob(Key(task * 3 + k)) == nullptr) {
        direct->InsertJob(Key(task * 3 + k), Entry(double(task * 3 + k)));
      }
    }
  }
  std::vector<std::unique_ptr<CostCacheOverlay>> overlays;
  for (uint64_t task = 0; task < 4; ++task) {
    overlays.push_back(std::make_unique<CostCacheOverlay>(overlaid.get()));
    for (uint64_t k = 0; k < 3; ++k) {
      if (overlays.back()->FindJob(Key(task * 3 + k)) == nullptr) {
        overlays.back()->InsertJob(Key(task * 3 + k),
                                   Entry(double(task * 3 + k)));
      }
    }
  }
  for (const auto& o : overlays) std::move(*o).MergeInto(overlaid.get());
  EXPECT_EQ(direct->job_entries(), overlaid->job_entries());
  for (uint64_t n = 0; n < 12; ++n) {
    const CostJobEntry* a = direct->PeekJob(Key(n));
    const CostJobEntry* b = overlaid->PeekJob(Key(n));
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(MapSec(a), MapSec(b));
  }
}

// ---------------------------------------------------------------------------
// ProbeCacheOverlay

TEST(ProbeCacheTest, InsertIsFirstWriteWins) {
  ReuseProbeCache cache;
  EXPECT_EQ(cache.Peek(Key(1)), nullptr);
  cache.Insert(Key(1), Key(10));
  cache.Insert(Key(1), Key(99));  // loses: signatures are content-addressed
  ASSERT_NE(cache.Peek(Key(1)), nullptr);
  EXPECT_EQ(*cache.Peek(Key(1)), Key(10));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ProbeCacheOverlayTest, ReadsFallThroughWritesStayLocal) {
  ReuseProbeCache cache;
  cache.Insert(Key(1), Key(10));
  ProbeCacheOverlay overlay(&cache);
  ASSERT_NE(overlay.Peek(Key(1)), nullptr);
  EXPECT_EQ(*overlay.Peek(Key(1)), Key(10));
  overlay.Insert(Key(2), Key(20));
  ASSERT_NE(overlay.Peek(Key(2)), nullptr);
  // The shared memo must not see the overlay's write until the merge.
  EXPECT_EQ(cache.Peek(Key(2)), nullptr);
  overlay.MergeInto(&cache);
  ASSERT_NE(cache.Peek(Key(2)), nullptr);
  EXPECT_EQ(*cache.Peek(Key(2)), Key(20));
}

TEST(ProbeCacheOverlayTest, MergedContentsMatchSerialExecution) {
  // Overlapping inserts from overlay tasks, merged in submission order,
  // must leave exactly the contents a serial run writing the shared memo
  // directly would have produced (insert-only makes any order agree).
  ReuseProbeCache direct;
  for (uint64_t task = 0; task < 4; ++task) {
    for (uint64_t k = 0; k < 3; ++k) {
      if (direct.Peek(Key(k + task)) == nullptr) {
        direct.Insert(Key(k + task), Key(100 + k + task));
      }
    }
  }
  ReuseProbeCache merged;
  std::vector<std::unique_ptr<ProbeCacheOverlay>> overlays;
  for (uint64_t task = 0; task < 4; ++task) {
    overlays.push_back(std::make_unique<ProbeCacheOverlay>(&merged));
    for (uint64_t k = 0; k < 3; ++k) {
      if (overlays.back()->Peek(Key(k + task)) == nullptr) {
        overlays.back()->Insert(Key(k + task), Key(100 + k + task));
      }
    }
  }
  for (const auto& o : overlays) o->MergeInto(&merged);
  EXPECT_EQ(merged.size(), direct.size());
  for (uint64_t n = 0; n < 6; ++n) {
    const CostKey* a = direct.Peek(Key(n));
    const CostKey* b = merged.Peek(Key(n));
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(*a, *b);
  }
}

// ---------------------------------------------------------------------------
// Batch-structured RRS

TEST(RrsBatchTest, MinimizeMatchesMinimizeBatchesBitForBit) {
  auto f = [](const std::vector<double>& x) {
    double v = 0.0;
    for (size_t i = 0; i < x.size(); ++i) {
      double d = x[i] - (0.2 + 0.1 * static_cast<double>(i));
      v += d * d;
    }
    return v;
  };
  RrsOptions opts;
  std::vector<std::vector<double>> seeds = {{0.5, 0.5, 0.5}, {0.9, 0.1, 0.9}};

  RecursiveRandomSearch serial(opts, 42);
  auto [p1, v1] = serial.Minimize(3, f, seeds);

  RecursiveRandomSearch batched(opts, 42);
  auto [p2, v2] = batched.MinimizeBatches(
      3,
      [&](const std::vector<std::vector<double>>& batch) {
        std::vector<double> values(batch.size());
        for (size_t i = 0; i < batch.size(); ++i) values[i] = f(batch[i]);
        return values;
      },
      seeds);

  EXPECT_EQ(p1, p2);
  EXPECT_EQ(v1, v2);
  EXPECT_LT(v2, f(seeds[0]));  // it actually optimized
}

TEST(RrsBatchTest, TrajectoryIsAPureFunctionOfSeedAndValues) {
  // The sequence of evaluated points must depend only on the RNG seed and
  // the values returned so far — never on batch timing. Record both runs'
  // full point streams and compare bit-for-bit.
  auto f = [](const std::vector<double>& x) {
    return std::abs(x[0] - 0.3) + std::abs(x[1] - 0.6);
  };
  auto run = [&] {
    std::vector<std::vector<double>> stream;
    RecursiveRandomSearch rrs(RrsOptions{}, 7);
    rrs.MinimizeBatches(
        2,
        [&](const std::vector<std::vector<double>>& batch) {
          std::vector<double> values(batch.size());
          for (size_t i = 0; i < batch.size(); ++i) {
            stream.push_back(batch[i]);
            values[i] = f(batch[i]);
          }
          return values;
        },
        {{0.5, 0.5}});
    return stream;
  };
  EXPECT_EQ(run(), run());
}

TEST(RrsBatchTest, BatchesRespectTheEvaluationBudget) {
  RrsOptions opts;
  opts.budget = 23;
  size_t evaluated = 0;
  RecursiveRandomSearch rrs(opts, 3);
  rrs.MinimizeBatches(
      2,
      [&](const std::vector<std::vector<double>>& batch) {
        evaluated += batch.size();
        std::vector<double> values(batch.size(), 1.0);
        for (size_t i = 0; i < batch.size(); ++i) values[i] = batch[i][0];
        return values;
      },
      {{0.5, 0.5}});
  EXPECT_EQ(evaluated, 23u);
}

}  // namespace
}  // namespace stubby
