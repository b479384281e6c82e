// Synchronization primitives: Barrier, Latch, Trigger.
//
// Barrier reproduces the MPI_Barrier() the paper's clients use to start
// parallel I/O simultaneously.  Latch is a countdown join used for stripe
// fan-out (wait for all per-disk sub-requests).  Trigger is a one-shot
// broadcast condition (e.g. "rebuild complete").
//
// All three park waiters on intrusive lists whose nodes live in the
// awaiter (and therefore in the suspended coroutine's frame), so waiting
// and waking never allocate.  Release walks the list in arrival order, so
// wakeups keep FIFO determinism.
#pragma once

#include <coroutine>
#include <cstddef>

#include "sim/event_queue.hpp"

namespace raidx::sim {

namespace detail {

/// Intrusive FIFO of suspended coroutines; nodes are owned by awaiters.
struct WaitList {
  struct Node {
    std::coroutine_handle<> handle{};
    Node* next = nullptr;
  };

  Node* head = nullptr;
  Node* tail = nullptr;
  std::size_t count = 0;

  void append(Node* n) {
    n->next = nullptr;
    if (tail) {
      tail->next = n;
    } else {
      head = n;
    }
    tail = n;
    ++count;
  }

  /// Detach every node and schedule its resume at the current instant, in
  /// arrival order.  Node memory stays valid: each frame remains suspended
  /// until its scheduled resume fires.
  void release_all(Simulation& sim) {
    Node* n = head;
    head = tail = nullptr;
    count = 0;
    while (n != nullptr) {
      Node* next = n->next;
      sim.schedule_resume(0, n->handle);
      n = next;
    }
  }
};

}  // namespace detail

/// Reusable cyclic barrier for `parties` processes.
class Barrier {
 public:
  Barrier(Simulation& sim, int parties);

  /// Awaitable: suspends until all parties have arrived in this generation.
  auto arrive_and_wait() {
    struct Awaiter {
      Barrier* b;
      detail::WaitList::Node node;
      bool await_ready() const noexcept { return b->parties_ <= 1; }
      bool await_suspend(std::coroutine_handle<> h) {
        node.handle = h;
        return b->arrive(&node);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, {}};
  }

  int parties() const { return parties_; }
  int arrived() const { return arrived_; }

 private:
  // Returns false (do not suspend) for the last arriver.
  bool arrive(detail::WaitList::Node* n);

  Simulation& sim_;
  int parties_;
  int arrived_ = 0;
  detail::WaitList waiting_;
};

/// Countdown latch: wait() resumes once the count reaches zero.
class Latch {
 public:
  Latch(Simulation& sim, int count);

  void count_down(int n = 1);
  /// Raise the count (register more outstanding work before waiting).
  void add(int n = 1) { count_ += n; }

  auto wait() {
    struct Awaiter {
      Latch* l;
      detail::WaitList::Node node;
      bool await_ready() const noexcept { return l->count_ <= 0; }
      void await_suspend(std::coroutine_handle<> h) {
        node.handle = h;
        l->waiting_.append(&node);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, {}};
  }

  int count() const { return count_; }

 private:
  Simulation& sim_;
  int count_;
  detail::WaitList waiting_;
};

/// One-shot broadcast event.
class Trigger {
 public:
  explicit Trigger(Simulation& sim);

  void set();

  auto wait() {
    struct Awaiter {
      Trigger* t;
      detail::WaitList::Node node;
      bool await_ready() const noexcept { return t->set_; }
      void await_suspend(std::coroutine_handle<> h) {
        node.handle = h;
        t->waiting_.append(&node);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, {}};
  }

 private:
  Simulation& sim_;
  bool set_ = false;
  detail::WaitList waiting_;
};

}  // namespace raidx::sim
