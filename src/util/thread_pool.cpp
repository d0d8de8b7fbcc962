#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <memory>
#include <utility>

namespace ibvs {

namespace {

/// Set while this thread runs a shard: a fan-out issued from inside one
/// runs inline instead of waiting on workers that may all be busy.
thread_local bool t_in_shard = false;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads)
    : size_(threads != 0 ? threads
                         : std::max<std::size_t>(
                               1, std::thread::hardware_concurrency())) {
  workers_.reserve(size_ - 1);
  for (std::size_t i = 1; i < size_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  t_in_shard = true;  // a worker runs nothing but shards
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [this] { return stopping_ || next_ < shards_; });
    if (stopping_) return;
    run_shards(lock);
  }
}

void ThreadPool::run_shards(std::unique_lock<std::mutex>& lock) {
  // Balanced split: the first `items_ % shards_` shards get one extra item,
  // so shard sizes differ by at most one.
  const std::size_t base = items_ / shards_;
  const std::size_t extra = items_ % shards_;
  const ShardBody& body = *body_;
  while (next_ < shards_) {
    const std::size_t shard = next_++;
    const std::size_t begin = shard * base + std::min(shard, extra);
    const std::size_t end = begin + base + (shard < extra ? 1 : 0);
    lock.unlock();
    std::exception_ptr error;
    const bool was_in_shard = std::exchange(t_in_shard, true);
    try {
      body(shard, begin, end);
    } catch (...) {
      error = std::current_exception();
    }
    t_in_shard = was_in_shard;
    lock.lock();
    if (error && !error_) error_ = error;
    if (++finished_ == shards_) done_.notify_one();
  }
}

void ThreadPool::parallel_for_shards(std::size_t items, std::size_t work,
                                     const ShardBody& body) {
  if (items == 0) return;
  const std::size_t shards = shard_count(items);
  std::unique_lock<std::mutex> caller(caller_mutex_, std::defer_lock);
  if (shards <= 1 || work < kParallelMinWork || t_in_shard ||
      !caller.try_lock()) {
    body(0, 0, items);
    return;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  body_ = &body;
  items_ = items;
  shards_ = shards;
  next_ = 0;
  finished_ = 0;
  wake_.notify_all();
  run_shards(lock);
  // Every shard is claimed now (next_ == shards_), so a worker that wakes
  // late finds nothing to run and the job needs no closing.
  done_.wait(lock, [&] { return finished_ == shards_; });
  const std::exception_ptr error = std::exchange(error_, nullptr);
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

namespace {

/// IBVS_THREADS=N sizes the global pool without touching code — the knob
/// the scaling benches and CI use for reproducible curves. 0/garbage means
/// "no override".
std::size_t env_threads() {
  const char* value = std::getenv("IBVS_THREADS");
  if (value == nullptr || *value == '\0') return 0;
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(value, &end, 10);
  if (end == value || *end != '\0') return 0;
  return static_cast<std::size_t>(parsed);
}

struct GlobalPool {
  std::mutex mutex;
  std::unique_ptr<ThreadPool> pool;
  std::size_t override_threads = 0;  ///< 0 = IBVS_THREADS/hardware default
};

GlobalPool& global_slot() {
  static GlobalPool g;
  return g;
}

}  // namespace

ThreadPool& ThreadPool::global() {
  GlobalPool& g = global_slot();
  std::lock_guard<std::mutex> lock(g.mutex);
  if (!g.pool) {
    g.pool = std::make_unique<ThreadPool>(
        g.override_threads != 0 ? g.override_threads : env_threads());
  }
  return *g.pool;
}

void ThreadPool::set_global_threads(std::size_t threads) {
  GlobalPool& g = global_slot();
  std::lock_guard<std::mutex> lock(g.mutex);
  g.override_threads = threads;
  g.pool.reset();  // rebuilt lazily at the requested size
}

std::size_t ThreadPool::global_thread_count() {
  GlobalPool& g = global_slot();
  std::lock_guard<std::mutex> lock(g.mutex);
  if (g.pool) return g.pool->size();
  const std::size_t threads =
      g.override_threads != 0 ? g.override_threads : env_threads();
  return threads != 0
             ? threads
             : std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace ibvs
