// Fixed-size thread pool with one blocking fan-out, parallel_for_shards.
//
// A fan-out splits [0, items) into contiguous, balanced shards and runs
// `body(shard, begin, end)` once per shard. The caller states the fan-out's
// work in inner-loop steps; below kParallelMinWork the body runs once on
// the calling thread as shard 0 of 1, because waking the workers costs more
// than such a phase takes. Above it the calling thread runs shards itself
// next to the size() - 1 workers, which are woken once per fan-out and
// claim shards from that one job until none is left. The pool is created
// on demand and reused (thread creation would otherwise dominate small
// runs).
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ibvs {

class ThreadPool {
 public:
  /// Work, in inner-loop steps (edge checks, table entries, LFT words),
  /// below which a fan-out runs serially on the calling thread. Measured on
  /// a 4-core box: the switch hop matrix, the LFT diff, the checker and
  /// both fat-tree phases of the 324- and 648-node trees (at most 0.12 M
  /// steps) lose to serial at 4 threads, while DFSSSP's 256-destination
  /// waves (0.17 M) and Min-Hop and Up*/Down* (0.23 M) on the 324-node tree
  /// already gain.
  static constexpr std::size_t kParallelMinWork = std::size_t{1} << 17;

  /// Shards per thread of a fan-out. Threads claim shards as they free up,
  /// so a thread that starts late or is descheduled holds up a quarter of
  /// its share rather than all of it: with one shard per thread, Min-Hop on
  /// the 648-node tree with 4 VF LIDs per host ran 10-25% slower on a
  /// shared 4-core box.
  static constexpr std::size_t kShardsPerThread = 4;

  using ShardBody = std::function<void(std::size_t, std::size_t, std::size_t)>;

  /// Creates a pool that runs up to `threads` shards at once: the caller
  /// plus `threads - 1` workers. 0 means hardware_concurrency; 1 starts no
  /// thread and runs every fan-out inline.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Upper bound on the shards parallel_for_shards() splits `total` items
  /// into: kShardsPerThread per thread, never more than items. Callers use
  /// it to pre-size per-shard result slots before fanning out.
  [[nodiscard]] std::size_t shard_count(std::size_t total) const noexcept {
    return std::min(total, size_ == 1 ? 1 : kShardsPerThread * size_);
  }

  /// Runs `body(shard, shard_begin, shard_end)` over contiguous, balanced
  /// ranges covering [0, items), with dense shard indices, and blocks until
  /// every shard finished. `work` is the fan-out's cost in inner-loop
  /// steps: below kParallelMinWork, inside another fan-out's shard, or while
  /// the pool serves another caller, the body runs once inline as
  /// body(0, 0, items). The first exception thrown by any shard, the
  /// caller's own included, is rethrown after all shards finished.
  void parallel_for_shards(std::size_t items, std::size_t work,
                           const ShardBody& body);

  /// Process-wide shared pool. Sized, in priority order, by the last
  /// set_global_threads() call, the IBVS_THREADS environment variable, or
  /// hardware_concurrency.
  static ThreadPool& global();

  /// Resizes the global pool: the current one (if any) is torn down and the
  /// next global() call builds a pool of `threads`. 0 restores the
  /// IBVS_THREADS/hardware default. Must not be called while another
  /// thread is inside a global-pool fan-out — the benches use it between
  /// measurements to sweep thread counts within one process.
  static void set_global_threads(std::size_t threads);

  /// Size the current (or next) global pool has (resolves the
  /// override/environment/hardware chain without forcing pool creation).
  static std::size_t global_thread_count();

 private:
  void worker_loop();
  /// Claims and runs shards of the current job until none is left; called
  /// and returns with `lock` held.
  void run_shards(std::unique_lock<std::mutex>& lock);

  const std::size_t size_;
  std::mutex caller_mutex_;  ///< held by the one caller whose job is open
  std::mutex mutex_;         ///< guards the job fields below
  std::condition_variable wake_;
  std::condition_variable done_;
  const ShardBody* body_ = nullptr;
  std::size_t items_ = 0;
  std::size_t shards_ = 0;
  std::size_t next_ = 0;      ///< next unclaimed shard of the open job
  std::size_t finished_ = 0;  ///< shards of the open job that returned
  std::exception_ptr error_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ibvs
