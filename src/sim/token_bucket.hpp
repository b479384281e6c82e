// Deterministic token-bucket rate limiter.
//
// The bucket refills lazily from elapsed simulated time -- no periodic
// refill events, so an idle bucket costs the event queue nothing and two
// identically seeded runs stay bit-identical.  Acquirers serialize through
// a capacity-1 FIFO gate: when the bucket is short, the head waiter sleeps
// exactly until its deficit has accrued, so a saturated bucket emits grants
// at precisely the configured rate.
//
// Used by the recovery orchestrator (src/ha) to cap rebuild-sweep
// bandwidth so redundancy restoration does not starve foreground I/O
// (Thomasian: rebuild *rate control* dominates realized MTTR vs. degraded
// performance trade-offs).
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace raidx::sim {

class TokenBucket {
 public:
  /// `tokens_per_second` is the sustained rate (tokens are bytes for the
  /// rebuild throttle); `burst` caps how much an idle bucket can save up.
  TokenBucket(Simulation& sim, double tokens_per_second, double burst)
      : sim_(sim),
        gate_(sim, 1),
        rate_(tokens_per_second),
        burst_(std::max(burst, 1.0)),
        tokens_(std::max(burst, 1.0)),
        last_(sim.now()) {}
  TokenBucket(const TokenBucket&) = delete;
  TokenBucket& operator=(const TokenBucket&) = delete;

  /// Take `n` tokens, sleeping until they have accrued.  Requests larger
  /// than the burst are still granted (the bucket drains to empty); they
  /// just wait for a full bucket first, so the long-run rate holds.
  Task<> acquire(std::uint64_t n) {
    const double need = static_cast<double>(n);
    auto turn = co_await gate_.acquire();  // FIFO among throttled tasks
    refill();
    const double want = std::min(need, burst_);
    if (tokens_ < want) {
      const Time wait = seconds((want - tokens_) / rate_) + 1;
      throttled_ns_ += wait;
      co_await sim_.delay(wait);
      refill();
    }
    tokens_ = std::max(0.0, tokens_ - need);
    granted_tokens_ += n;
    ++grants_;
  }

  /// Tokens available right now (after lazy refill).
  double available() {
    refill();
    return tokens_;
  }

  double rate() const { return rate_; }
  double burst() const { return burst_; }
  std::uint64_t granted_tokens() const { return granted_tokens_; }
  std::uint64_t grants() const { return grants_; }
  /// Total time acquirers spent waiting on the bucket (not the gate).
  Time throttled_ns() const { return throttled_ns_; }

 private:
  void refill() {
    const Time now = sim_.now();
    if (now > last_) {
      tokens_ = std::min(
          burst_, tokens_ + rate_ * to_seconds(now - last_));
      last_ = now;
    }
  }

  Simulation& sim_;
  Resource gate_;
  double rate_;
  double burst_;
  double tokens_;
  Time last_;
  Time throttled_ns_ = 0;
  std::uint64_t granted_tokens_ = 0;
  std::uint64_t grants_ = 0;
};

}  // namespace raidx::sim
