// Conservative time-window synchronizer over per-shard Simulations.
//
// A ShardGroup owns S independent Simulations -- each with its own event
// queue, coroutine frame pool, and (by caller convention) RNG streams --
// and advances them in lockstep windows on a worker pool:
//
//   1. global_min = min over shards *with foreground work* of the earliest
//      pending timestamp, one next_event_time() peek per shard (a peek
//      never moves a clock, so a shard's clock stays at the last event it
//      dispatched)
//   2. window_end = max(global_min + lookahead, previous window_end)
//      (monotone: a just-woken shard's parked daemons may sit below a
//      passed end; the clamp lets that backlog drain in order)
//   3. every shard dispatches its events with timestamp < window_end,
//      shards running in parallel, events within a shard in exact order
//   4. cross-shard messages posted during the window are delivered at the
//      barrier, then the next window starts
//
// Daemon liveness is per shard: run_window() fires daemon events only
// while the shard's own foreground work remains, mirroring the plain
// Simulation::run() contract.  A foreground-idle shard parks -- its
// watchdog daemons wait, its clock stays put, the census skips it --
// until a cross-shard delivery (always foreground) wakes it.  Widening
// liveness to "any shard in the group has foreground" was tried and
// reverted: watchdog daemons spawn foreground probe work of their own, so
// two groups' watchdogs would sustain each other forever once their probe
// rounds interleave.
//
// Safety argument: a cross-shard message posted by a shard at local time t
// must be stamped deliver_at >= t + lookahead (post() asserts it), and any
// shard dispatching inside the window has clock >= global_min, so every
// message lands at deliver_at >= window_end.  Nothing that happens inside a
// window can create work another shard should have seen within that same
// window, hence each shard can drain its window without looking at peers.
//
// Determinism: each barrier sorts the gathered messages by
// (deliver_at, src_shard, src_seq) before scheduling them into their
// destination, so destination sequence numbers -- and therefore
// equal-timestamp tie-breaks -- come out identical regardless of how the
// worker threads interleaved.  Results are a function of (seed, shard
// count) only, never of the worker count or the OS thread schedule.
//
// Threading: during a window each Simulation is touched only by the one
// worker driving it (which installs the shard's FramePool via Scope);
// mailboxes are written only by the posting shard's worker and drained
// only between windows on the coordinator.  The phase barrier's mutex
// provides every happens-before edge, so the engine objects themselves
// stay lock-free and byte-for-byte unchanged.
//
// Single-shard groups bypass all of the above: run() degenerates to the
// plain Simulation::run() drain loop, so `--shards=1` is bit-identical to
// the pre-shard engine by construction, not by luck.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace raidx::sim {

class ShardGroup {
 public:
  /// `lookahead` must be positive: it is the minimum cross-shard latency
  /// (the src/net switch hop) that keeps conservative windows non-empty.
  ShardGroup(int shards, Time lookahead);
  ~ShardGroup();
  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  int shards() const { return static_cast<int>(sims_.size()); }
  Time lookahead() const { return lookahead_; }
  Simulation& sim(int shard) { return *sims_[static_cast<std::size_t>(shard)]; }

  /// Install shard `s`'s frame pool as the calling thread's current pool
  /// (returned scope restores on destruction).  Wrap any task creation
  /// targeting shard `s` from outside its window -- world construction,
  /// workload spawning -- so the frames recycle through the right pool.
  FramePool::Scope frame_scope(int shard) {
    return FramePool::Scope(&sim(shard).frame_pool());
  }

  /// Post `fn` from shard `src` to shard `dst`, to run at the absolute
  /// instant `deliver_at`; requires deliver_at >= sim(src).now() +
  /// lookahead().  Legal only from src's worker during a window (or from
  /// the coordinating thread while no window is in flight).
  void post(int src, int dst, Time deliver_at, std::function<void()> fn);

  /// Advance the group to global completion -- no foreground work on any
  /// shard, all mailboxes drained -- using `threads` workers (clamped to
  /// [1, shards]; the calling thread is worker 0).  Daemon events stay
  /// parked at exit, exactly like Simulation::run().  The first exception
  /// thrown by any shard's processes aborts the run and is rethrown in
  /// shard order.  Simulated results are independent of `threads`.
  void run(int threads);

  struct Stats {
    std::uint64_t windows = 0;   // synchronization rounds executed
    std::uint64_t messages = 0;  // cross-shard deliveries
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Msg {
    Time at = 0;
    std::uint64_t seq = 0;
    int src = 0;
    std::function<void()> fn;
  };
  /// One per (src, dst) pair; written only by src's worker during windows,
  /// drained only between windows, so no lock is needed beyond the barrier.
  struct Mailbox {
    std::uint64_t next_seq = 0;
    std::vector<Msg> msgs;
  };

  Mailbox& box(int src, int dst) {
    return boxes_[static_cast<std::size_t>(src) * sims_.size() +
                  static_cast<std::size_t>(dst)];
  }
  void deliver_pending();
  void run_windowed(int threads);

  Time lookahead_;
  std::vector<std::unique_ptr<Simulation>> sims_;
  std::vector<Mailbox> boxes_;
  std::vector<Msg> merge_scratch_;
  Stats stats_;
};

}  // namespace raidx::sim
