// Structured fan-out/join for simulated processes.
//
// A Joiner spawns child tasks and waits for all of them; the first child
// exception is captured and rethrown from wait().  Children are spawned as
// top-level simulation processes, so a Joiner must outlive its wait() --
// which it does naturally, living in the awaiting coroutine's frame.
//
// Usage:
//   Joiner join(sim);
//   for (...) join.spawn(some_op(...));
//   co_await join.wait();   // rethrows the first failure, if any
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace raidx::sim {

class Joiner {
 public:
  explicit Joiner(Simulation& sim) : sim_(sim), latch_(sim, 0) {}
  Joiner(const Joiner&) = delete;
  Joiner& operator=(const Joiner&) = delete;

  /// Launch `op` as a child; it begins at the current instant once the
  /// caller next suspends.
  void spawn(Task<> op) {
    latch_.add(1);
    sim_.spawn(run(std::move(op)));
  }

  /// Await completion of every spawned child, then rethrow the first
  /// captured exception.  Spawn all children before waiting.  A plain
  /// awaitable over the latch: the waiter parks directly, with no frame of
  /// its own.
  auto wait() {
    struct Awaiter {
      Joiner* joiner;
      decltype(std::declval<Latch&>().wait()) latch;
      bool await_ready() const noexcept { return latch.await_ready(); }
      void await_suspend(std::coroutine_handle<> h) { latch.await_suspend(h); }
      void await_resume() const {
        if (joiner->error_) std::rethrow_exception(joiner->error_);
      }
    };
    return Awaiter{this, latch_.wait()};
  }

  bool failed() const { return error_ != nullptr; }

 private:
  Task<> run(Task<> op) {
    try {
      co_await std::move(op);
    } catch (...) {
      if (!error_) error_ = std::current_exception();
    }
    latch_.count_down();
  }

  Simulation& sim_;
  Latch latch_;
  std::exception_ptr error_;
};

}  // namespace raidx::sim
