// FIFO counted resource with priority classes.
//
// A Resource models anything with finite concurrent capacity: a disk arm
// (capacity 1), a SCSI bus, a NIC port, a node CPU.  Waiters are served
// strictly FIFO within a priority class; lower class number = higher
// priority.  The disk layer uses two classes so foreground I/O overtakes
// queued background mirror updates -- the mechanism behind RAID-x's
// "mirroring hidden in the background" claim.
//
// Waiters are intrusive list nodes embedded in the acquire() awaiter, which
// lives in the suspended coroutine's frame -- stable storage for exactly as
// long as the wait lasts.  Parking and waking a waiter therefore never
// touches the heap.  A frameless awaitable that has more to do between the
// grant and its coroutine's resumption parks a CallbackWaiter instead; its
// grant runs from the same same-instant event a resume would take.
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"

namespace raidx::sim {

class Resource {
 public:
  /// Move-only RAII grant.  Releases the slot when destroyed.
  class Guard {
   public:
    Guard() = default;
    explicit Guard(Resource* r) : resource_(r) {}
    Guard(Guard&& other) noexcept
        : resource_(std::exchange(other.resource_, nullptr)) {}
    Guard& operator=(Guard&& other) noexcept {
      if (this != &other) {
        release();
        resource_ = std::exchange(other.resource_, nullptr);
      }
      return *this;
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    ~Guard() { release(); }

    void release() {
      if (resource_) {
        resource_->release();
        resource_ = nullptr;
      }
    }
    bool held() const { return resource_ != nullptr; }

   private:
    Resource* resource_ = nullptr;
  };

  Resource(Simulation& sim, int capacity, int priority_levels = 1);

  /// Awaitable acquisition; resumes (or completes immediately) holding one
  /// slot.  `priority` must be < priority_levels (0 = most urgent).
  auto acquire(int priority = 0) {
    struct Awaiter {
      Resource* res;
      int priority;
      Waiter node;
      bool await_ready() const noexcept { return res->try_acquire(); }
      void await_suspend(std::coroutine_handle<> h) {
        node.handle = h;
        res->enqueue(priority, &node);
      }
      Guard await_resume() const noexcept { return Guard{res}; }
    };
    return Awaiter{this, priority, {}};
  }

  /// Non-blocking attempt; returns true and takes a slot if available.
  bool try_acquire();

  /// Return one slot; hands it to the oldest highest-priority waiter.
  void release();

  int in_use() const { return in_use_; }
  int capacity() const { return capacity_; }
  std::size_t queued() const;

  /// Total slot-nanoseconds consumed (for utilization reporting).
  Time busy_time() const;

  /// Intrusive wait-list node; lives in the acquire() awaiter.
  struct Waiter {
    std::coroutine_handle<> handle{};
    Waiter* next = nullptr;
  };

  /// A waiter whose grant calls `on_grant` instead of resuming a
  /// coroutine.  Its `handle` stays null, which is how release() tells the
  /// two kinds apart, so a plain Waiter does not grow.
  struct CallbackWaiter : Waiter {
    void (*on_grant)(CallbackWaiter*) = nullptr;
  };

  /// Queue `w` behind every most-urgent waiter after try_acquire() has
  /// failed.  The slot is handed over in arrival order, exactly as to an
  /// acquire() awaiter; `w` must stay valid until its grant runs.
  void park(CallbackWaiter* w) { enqueue(0, w); }

  /// A callback chain's acquire: take a slot (true), or park `w` behind
  /// the most-urgent waiters (false) for its grant to continue the chain.
  bool acquire_or_park(CallbackWaiter* w) {
    if (try_acquire()) return true;
    park(w);
    return false;
  }

 private:
  struct WaitQueue {
    Waiter* head = nullptr;
    Waiter* tail = nullptr;
    std::size_t count = 0;
  };

  void enqueue(int priority, Waiter* w);
  void note_busy_change();

  Simulation& sim_;
  int capacity_;
  int in_use_ = 0;
  std::vector<WaitQueue> waiters_;  // one FIFO per priority class
  // Utilization accounting.
  Time busy_accum_ = 0;
  Time last_change_ = 0;
};

}  // namespace raidx::sim
