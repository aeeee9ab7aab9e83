// Bounded multi-producer / single-consumer queue.
//
// The sharded admission front-end (src/shard/sharded_admitter.h) funnels
// the operation requests that find a shard busy from N client threads
// into that shard's core; this queue is that funnel. The ring is Dmitry
// Vyukov's bounded MPMC design — one atomic sequence stamp per cell,
// producers claim cells with a CAS on the tail, the (single) consumer
// walks the head without contention — restricted here to one consumer
// at a time, which keeps Dequeue a plain load/store pair on the claimed
// cell.
//
// "One consumer at a time", not "one consumer thread": the consumer role
// may move between threads as long as the hand-over is ordered by a
// lock (the admitter's per-shard ownership token). The head index is a
// relaxed atomic for that reason — the lock orders its updates, and
// Peek may read it from a thread that does not hold the lock (a stale
// head only makes the peek spuriously true or false while another
// thread consumes).
//
// Blocking behavior: TryEnqueue/TryDequeue never block, and the queue
// has no consumer-side wait: whoever takes the consumer role drains it.
// Enqueue spins with yields while the ring is full (bounded queues are
// the backpressure mechanism — a full ring means the consumer is the
// bottleneck and producers *should* stall). The steady-state enqueue
// path is one CAS and one release store.
#ifndef RELSER_EXEC_MPSC_QUEUE_H_
#define RELSER_EXEC_MPSC_QUEUE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

#include "util/check.h"

namespace relser {

template <typename T>
class MpscQueue {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit MpscQueue(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap *= 2;
    cells_ = std::vector<Cell>(cap);
    mask_ = cap - 1;
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].sequence.store(i, std::memory_order_relaxed);
    }
  }

  std::size_t capacity() const { return mask_ + 1; }

  /// Attempts to enqueue without blocking; false when the ring is full.
  bool TryEnqueue(const T& value) {
    Cell* cell;
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->sequence.load(std::memory_order_acquire);
      const std::ptrdiff_t dif = static_cast<std::ptrdiff_t>(seq) -
                                 static_cast<std::ptrdiff_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    cell->value = value;
    cell->sequence.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// Enqueues, spinning (with yields) while the ring is full.
  void Enqueue(const T& value) {
    std::size_t spins = 0;
    while (!TryEnqueue(value)) {
      if (++spins < 64) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  }

  /// Single-consumer dequeue; false when the ring is empty. Callers that
  /// hand the consumer role between threads must serialize the calls.
  bool TryDequeue(T* out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    Cell& cell = cells_[head & mask_];
    const std::size_t seq = cell.sequence.load(std::memory_order_acquire);
    if (static_cast<std::ptrdiff_t>(seq) -
            static_cast<std::ptrdiff_t>(head + 1) <
        0) {
      return false;  // empty (or the producer is mid-write)
    }
    *out = cell.value;
    cell.sequence.store(head + mask_ + 1, std::memory_order_release);
    head_.store(head + 1, std::memory_order_relaxed);
    return true;
  }

  /// True when the head cell is (probably) published. Safe from any
  /// thread; spurious answers either way are possible while another
  /// thread consumes.
  bool Peek() const {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const Cell& cell = cells_[head & mask_];
    const std::size_t seq = cell.sequence.load(std::memory_order_acquire);
    return static_cast<std::ptrdiff_t>(seq) -
               static_cast<std::ptrdiff_t>(head + 1) >=
           0;
  }

 private:
  struct Cell {
    std::atomic<std::size_t> sequence{0};
    T value{};
  };

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  std::atomic<std::size_t> tail_{0};  // producers
  std::atomic<std::size_t> head_{0};  // the current consumer's
};

}  // namespace relser

#endif  // RELSER_EXEC_MPSC_QUEUE_H_
