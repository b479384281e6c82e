// Lock-group table of the CDD consistency module.
//
// The paper: "Each record in this table corresponds to a group of data
// blocks that have been granted to a specific CDD client with write
// permissions.  The write locks in each record are granted and released
// atomically."  A group's lock is exclusive and waiters are served FIFO.
// Each node manages the groups that hash to it (home-node partitioning) and
// mirrors every grant/release to its peers so the table stays replicated.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace raidx::cdd {

class LockGroupTable {
 public:
  explicit LockGroupTable(sim::Simulation& sim) : sim_(sim) {}

  /// Completes once `owner` holds the exclusive write lock on `group`.
  /// Owners are unique requester tokens (0 = free sentinel), not node ids:
  /// two writers on one node must still exclude each other.  Idempotent:
  /// re-acquiring a group the owner already holds succeeds immediately, so
  /// a retried kLock whose grant reply was lost never deadlocks on itself.
  sim::Task<> acquire(std::uint64_t group, std::uint64_t owner);

  /// Uncontended fast path: grab the lock without spinning up a coroutine
  /// frame.  Returns false (and takes nothing) if the group is held by
  /// someone else or has waiters; fall back to acquire() then.  Returns
  /// true when `owner` already holds the group (idempotent re-acquire).
  bool try_acquire_now(std::uint64_t group, std::uint64_t owner);

  /// Release; ownership passes atomically to the oldest waiter, if any.
  /// Idempotent: releasing a group `owner` does not hold is a no-op (a
  /// duplicate unlock after a lost reply must not steal the lock).
  void release(std::uint64_t group, std::uint64_t owner);

  bool held(std::uint64_t group) const;
  std::uint64_t owner(std::uint64_t group) const;  // 0 if free
  std::size_t waiters(std::uint64_t group) const;
  std::size_t records() const { return table_.size(); }

  /// Replica bookkeeping (applied when a kLockSync message arrives).
  void apply_replica_update(std::uint64_t group, std::uint64_t owner);
  std::uint64_t replica_owner(std::uint64_t group) const;  // 0 if free/unknown
  std::uint64_t replica_updates() const { return replica_updates_; }
  /// Groups the replica has seen held (freed ones included).
  std::size_t replica_groups() const { return replica_.size(); }

 private:
  struct Waiter {
    std::uint64_t owner;
    std::unique_ptr<sim::Trigger> granted;
  };
  struct Entry {
    std::uint64_t owner = 0;
    std::deque<Waiter> queue;
  };

  /// group -> replicated owner: open addressing with linear probing, so
  /// an update allocates nothing per group (the table doubles at half
  /// load).  A freed group keeps its slot with owner 0, as replica_owner()
  /// treats free and unknown alike and grant/free flips then never churn.
  class ReplicaMap {
   public:
    /// The owner slot of `group`, inserted (owner 0) when `insert`.
    /// Null when the group is unknown and `insert` is false.
    std::uint64_t* find(std::uint64_t group, bool insert);
    std::uint64_t get(std::uint64_t group) const;
    std::size_t size() const { return used_; }

   private:
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
    struct Slot {
      std::uint64_t group = kEmpty;
      std::uint64_t owner = 0;
    };
    std::size_t home(std::uint64_t group) const {
      const auto mixed = (group * 0x9E3779B97F4A7C15ull) >> 32;
      return static_cast<std::size_t>(mixed) & (slots_.size() - 1);
    }
    void grow();

    std::vector<Slot> slots_;
    std::size_t used_ = 0;
  };

  sim::Simulation& sim_;
  std::unordered_map<std::uint64_t, Entry> table_;
  ReplicaMap replica_;
  std::uint64_t replica_updates_ = 0;
};

}  // namespace raidx::cdd
