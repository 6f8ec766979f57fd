#include "common/threading.h"

#include <algorithm>
#include <chrono>
#include <memory>

namespace stubby {

namespace {
thread_local bool t_in_parallel_region = false;

uint64_t UsecSince(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}
}  // namespace

bool ThreadPool::InParallelRegion() { return t_in_parallel_region; }

int ThreadPool::HardwareThreads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

ThreadPool::ThreadPool(int threads, Options options)
    : threads_(std::max(1, threads)), options_(options) {
  if (options_.chunks_per_thread < 1) options_.chunks_per_thread = 1;
  workers_.reserve(static_cast<size_t>(threads_ - 1));
  for (int i = 1; i < threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(static_cast<size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.batches = stat_batches_.load(std::memory_order_relaxed);
  s.chunks = stat_chunks_.load(std::memory_order_relaxed);
  s.tasks = stat_tasks_.load(std::memory_order_relaxed);
  s.steals = stat_steals_.load(std::memory_order_relaxed);
  s.busy_usec = stat_busy_usec_.load(std::memory_order_relaxed);
  s.wall_usec = stat_wall_usec_.load(std::memory_order_relaxed);
  return s;
}

void ThreadPool::ResetStats() {
  stat_batches_.store(0, std::memory_order_relaxed);
  stat_chunks_.store(0, std::memory_order_relaxed);
  stat_tasks_.store(0, std::memory_order_relaxed);
  stat_steals_.store(0, std::memory_order_relaxed);
  stat_busy_usec_.store(0, std::memory_order_relaxed);
  stat_wall_usec_.store(0, std::memory_order_relaxed);
}

bool ThreadPool::ClaimChunk(Batch* batch, size_t self, Chunk* out,
                            bool* stolen) {
  {
    Deque& own = *batch->deques[self];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.chunks.empty()) {
      *out = own.chunks.back();
      own.chunks.pop_back();
      *stolen = false;
      return true;
    }
  }
  if (!options_.work_stealing) return false;
  const size_t k = batch->deques.size();
  for (size_t off = 1; off < k; ++off) {
    Deque& victim = *batch->deques[(self + off) % k];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.chunks.empty()) {
      // Steal from the front: the owner works from the back, so thief and
      // victim touch opposite ends and the stolen chunk is the one the
      // owner would have reached last.
      *out = victim.chunks.front();
      victim.chunks.pop_front();
      *stolen = true;
      return true;
    }
  }
  return false;
}

void ThreadPool::DrainBatch(Batch* batch, size_t self) {
  const bool was_in_region = t_in_parallel_region;
  t_in_parallel_region = true;
  const auto t0 = std::chrono::steady_clock::now();
  uint64_t busy_recorded = 0;
  for (;;) {
    Chunk c;
    bool stolen = false;
    if (!ClaimChunk(batch, self, &c, &stolen)) break;
    const size_t count = c.end - c.begin;
    batch->unclaimed.fetch_sub(count, std::memory_order_relaxed);
    for (size_t i = c.begin; i < c.end; ++i) (*batch->fn)(i);
    // Stats land before the completion count below: the final increment
    // releases the caller, whose stats() must already see this chunk.
    stat_tasks_.fetch_add(count, std::memory_order_relaxed);
    if (stolen) stat_steals_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t busy = UsecSince(t0);
    stat_busy_usec_.fetch_add(busy - busy_recorded, std::memory_order_relaxed);
    busy_recorded = busy;
    // Release pairs with the caller's acquire load in the done_cv_ wait,
    // ordering every task's writes before the caller observes completion.
    if (batch->done.fetch_add(count, std::memory_order_acq_rel) + count ==
        batch->n) {
      // Take the lock (empty critical section) so the notify cannot slip
      // between the caller's predicate check and its wait.
      { std::lock_guard<std::mutex> lock(mutex_); }
      done_cv_.notify_all();
    }
  }
  t_in_parallel_region = was_in_region;
}

void ThreadPool::WorkerLoop(size_t self) {
  for (;;) {
    // Hold a shared reference while draining so the batch outlives any
    // straggler worker that is between chunks when the caller returns.
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return stop_ ||
               (batch_ != nullptr &&
                batch_->unclaimed.load(std::memory_order_relaxed) > 0);
      });
      if (stop_) return;
      batch = batch_;
    }
    DrainBatch(batch.get(), self);
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // Nested (or single-threaded) execution is inline: identical semantics,
  // and a task blocking on its own pool can never deadlock.
  if (threads_ == 1 || t_in_parallel_region) {
    const bool was_in_region = t_in_parallel_region;
    t_in_parallel_region = true;
    for (size_t i = 0; i < n; ++i) fn(i);
    t_in_parallel_region = was_in_region;
    return;
  }

  std::lock_guard<std::mutex> submit(submit_mutex_);
  const auto w0 = std::chrono::steady_clock::now();
  const size_t k = static_cast<size_t>(threads_);
  auto batch = std::make_shared<Batch>();
  batch->n = n;
  batch->fn = &fn;
  batch->deques.reserve(k);
  for (size_t q = 0; q < k; ++q) {
    batch->deques.push_back(std::make_unique<Deque>());
  }
  // Chunk size is a pure function of (n, threads, chunks_per_thread) —
  // never of load or timing. Chunking cannot affect results (every index
  // runs exactly once, into its own slot); it only trades scheduling
  // overhead against steal granularity.
  const size_t target = k * options_.chunks_per_thread;
  const size_t chunk = std::max<size_t>(1, (n + target - 1) / target);
  size_t dealt = 0;
  uint64_t nchunks = 0;
  for (size_t begin = 0; begin < n; begin += chunk) {
    Chunk c{begin, std::min(n, begin + chunk)};
    // Dealt round-robin before the batch is published: no locks needed.
    batch->deques[dealt % k]->chunks.push_back(c);
    ++dealt;
    ++nchunks;
  }
  batch->unclaimed.store(n, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    batch_ = batch;
  }
  work_cv_.notify_all();
  DrainBatch(batch.get(), 0);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] {
      return batch->done.load(std::memory_order_acquire) == batch->n;
    });
    batch_ = nullptr;
  }
  stat_batches_.fetch_add(1, std::memory_order_relaxed);
  stat_chunks_.fetch_add(nchunks, std::memory_order_relaxed);
  stat_wall_usec_.fetch_add(UsecSince(w0), std::memory_order_relaxed);
}

void RunTasks(ThreadPool* pool, size_t n,
              const std::function<void(size_t)>& fn) {
  if (pool != nullptr) {
    pool->ParallelFor(n, fn);
  } else {
    for (size_t i = 0; i < n; ++i) fn(i);
  }
}

}  // namespace stubby
