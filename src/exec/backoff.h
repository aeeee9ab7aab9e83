// Jittered exponential backoff for clients of the admission front-end.
//
// When ShardedAdmitter::SubmitAndWait returns kRetry (bounded-queue
// backpressure), naive immediate retries from N clients re-saturate the
// shard inbox in lockstep. The standard remedy — full jitter over an
// exponentially growing window, capped — decorrelates the retry storm:
// attempt k sleeps uniform[0, min(cap, base << k)). Deterministic given
// its seed (driven by util/rng.h), so fault-injection runs replay the
// same backoff schedule.
#ifndef RELSER_EXEC_BACKOFF_H_
#define RELSER_EXEC_BACKOFF_H_

#include <chrono>
#include <cstdint>

#include "util/rng.h"

namespace relser {

/// Full-jitter exponential backoff policy. Not thread-safe; one per
/// client thread.
class Backoff {
 public:
  explicit Backoff(std::uint64_t seed,
                   std::chrono::microseconds base = std::chrono::microseconds(
                       50),
                   std::chrono::microseconds cap = std::chrono::microseconds(
                       5000))
      : rng_(seed), base_(base), cap_(cap) {}

  /// The sleep before the next retry; grows the attempt window.
  std::chrono::microseconds Next() {
    std::uint64_t window = static_cast<std::uint64_t>(base_.count())
                           << attempt_;
    const auto cap = static_cast<std::uint64_t>(cap_.count());
    if (window > cap) {
      window = cap;
    } else if (attempt_ < 63) {
      ++attempt_;
    }
    const std::uint64_t jittered =
        rng_.UniformIndex(static_cast<std::size_t>(window) + 1);
    return std::chrono::microseconds(static_cast<std::int64_t>(jittered));
  }

  /// Call after a non-kRetry outcome: the next burst starts small again.
  void Reset() { attempt_ = 0; }

  std::uint32_t attempts() const { return attempt_; }

 private:
  Rng rng_;
  std::chrono::microseconds base_;
  std::chrono::microseconds cap_;
  std::uint32_t attempt_ = 0;
};

}  // namespace relser

#endif  // RELSER_EXEC_BACKOFF_H_
