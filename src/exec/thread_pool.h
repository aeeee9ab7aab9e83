// Fixed-size thread pool with work-stealing task deques and a
// deterministic ParallelFor.
//
// The exec layer is relser's multi-core substrate: analysis sweeps (the
// Figure 5 census, the exponential relative-consistency search, the
// differential online harness) fan embarrassingly-parallel shards out
// over a ThreadPool, and the sharded admission front-end
// (src/shard/sharded_admitter.h) uses its queues. Everything above this
// layer keeps a hard determinism contract — parallel results are
// bit-identical to the serial run — which the pool supports by never
// deciding *what* a shard computes, only *where* it runs: shards draw
// their randomness from Rng::Split and write into pre-sized slots, and
// reductions happen in shard order on the caller (docs/parallelism.md).
//
// Scheduling: each worker owns a deque; Submit round-robins tasks over
// the deques; a worker pops its own deque LIFO and, when empty, steals
// the oldest task of a sibling (FIFO) — the classic work-stealing shape.
// Deques are mutex-guarded (one tiny critical section per push/pop);
// tasks are expected to be chunky (a census shard, a search branch), so
// queue overhead is noise and the implementation stays trivially
// race-free under TSan.
#ifndef RELSER_EXEC_THREAD_POOL_H_
#define RELSER_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace relser {

/// A fixed set of worker threads consuming submitted tasks.
/// `ThreadPool(0)` is the *inline* pool: Submit and ParallelFor run on
/// the calling thread — the serial reference every parallel sweep is
/// compared against.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t thread_count);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 = inline mode).
  std::size_t thread_count() const { return workers_.size(); }

  /// Enqueues `task`; inline pools run it before returning. Tasks must
  /// not throw (the repo is exception-free by design).
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void WaitIdle();

  /// std::thread::hardware_concurrency with a floor of 1.
  static std::size_t HardwareConcurrency();

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(std::size_t self);
  bool TryTake(std::size_t self, std::function<void()>* task);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex mu_;                  // guards sleeping workers + idle waiters
  std::condition_variable wake_;   // workers sleep here when starved
  std::condition_variable idle_;   // WaitIdle sleeps here
  std::size_t pending_ = 0;        // submitted but not yet finished
  std::size_t next_queue_ = 0;     // Submit round-robin cursor
  bool stopping_ = false;
};

/// Runs `body(chunk_begin, chunk_end)` over a partition of [begin, end)
/// into chunks of at most `grain` indices. Chunks are claimed from a
/// shared cursor by the pool's workers — idle workers steal whatever
/// chunks remain, so an uneven shard does not serialize the sweep — and
/// the call returns only when every chunk has run. With a null or inline
/// pool the whole range runs on the caller. The chunk partition is a
/// pure function of (begin, end, grain): identical for every pool, which
/// is what lets callers keep per-chunk state in pre-sized slots and
/// reduce in order.
void ParallelFor(ThreadPool* pool, std::size_t begin, std::size_t end,
                 std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace relser

#endif  // RELSER_EXEC_THREAD_POOL_H_
