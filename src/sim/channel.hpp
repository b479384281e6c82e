// Message-passing primitives between simulated processes.
//
// Channel<T> is an unbounded FIFO mailbox (many senders, many receivers);
// Oneshot<T> carries a single reply to a single waiter.  The cooperative
// disk drivers use a Channel per node as the request port and a Oneshot per
// outstanding RPC for the response, mirroring how a kernel driver pairs a
// request queue with per-request completions.
//
// Receive waiters are intrusive list nodes embedded in the recv() awaiter
// (i.e. in the suspended receiver's frame), so blocking on an empty channel
// never allocates.
#pragma once

#include <cassert>
#include <coroutine>
#include <deque>
#include <optional>
#include <utility>

#include "sim/event_queue.hpp"

namespace raidx::sim {

template <typename T>
class Channel {
 public:
  explicit Channel(Simulation& sim) : sim_(sim) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Deliver a value; wakes the oldest receiver if one is waiting.
  void send(T value) {
    if (head_ != nullptr) {
      Waiter* w = head_;
      head_ = w->next;
      if (head_ == nullptr) tail_ = nullptr;
      *w->slot = std::move(value);
      sim_.schedule_resume(0, w->handle);
    } else {
      values_.push_back(std::move(value));
    }
  }

  /// Awaitable receive; suspends until a value is available.
  auto recv() {
    struct Awaiter {
      Channel* ch;
      std::optional<T> value;
      Waiter node;
      bool await_ready() {
        if (!ch->values_.empty()) {
          value = std::move(ch->values_.front());
          ch->values_.pop_front();
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        node.handle = h;
        node.slot = &value;
        ch->append(&node);
      }
      T await_resume() {
        assert(value.has_value());
        return std::move(*value);
      }
    };
    return Awaiter{this, std::nullopt, {}};
  }

  std::size_t pending() const { return values_.size(); }

 private:
  /// Intrusive wait-list node; lives in the recv() awaiter.  The slot
  /// pointer targets the awaiter's own value member, so send() deposits the
  /// value directly into the receiver's frame before waking it.
  struct Waiter {
    std::coroutine_handle<> handle{};
    std::optional<T>* slot = nullptr;
    Waiter* next = nullptr;
  };

  void append(Waiter* w) {
    w->next = nullptr;
    if (tail_) {
      tail_->next = w;
    } else {
      head_ = w;
    }
    tail_ = w;
  }

  Simulation& sim_;
  std::deque<T> values_;
  Waiter* head_ = nullptr;
  Waiter* tail_ = nullptr;
};

/// Single-value, single-waiter rendezvous (an RPC reply slot).
template <typename T>
class Oneshot {
 public:
  explicit Oneshot(Simulation& sim) : sim_(sim) {}
  Oneshot(const Oneshot&) = delete;
  Oneshot& operator=(const Oneshot&) = delete;

  void set(T value) {
    assert(!value_.has_value() && "Oneshot set twice");
    value_ = std::move(value);
    if (waiter_) {
      sim_.schedule_resume(0, std::exchange(waiter_, nullptr));
    }
  }

  auto wait() {
    struct Awaiter {
      Oneshot* os;
      bool await_ready() const noexcept { return os->value_.has_value(); }
      void await_suspend(std::coroutine_handle<> h) {
        assert(!os->waiter_ && "Oneshot awaited twice");
        os->waiter_ = h;
      }
      T await_resume() {
        assert(os->value_.has_value());
        return std::move(*os->value_);
      }
    };
    return Awaiter{this};
  }

 private:
  Simulation& sim_;
  std::optional<T> value_;
  std::coroutine_handle<> waiter_{};
};

}  // namespace raidx::sim
