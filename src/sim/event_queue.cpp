#include "sim/event_queue.hpp"

#include <memory>
#include <stdexcept>

namespace raidx::sim {

Simulation::~Simulation() { abandon(); }

void Simulation::abandon() {
  abandoning_ = true;
  drain_finished();
  // Destroy any still-suspended top-level frames.  Nothing will resume them
  // afterwards: the queue is dropped below and child frames are owned by
  // their parents' frames, so destruction cascades safely.
  for (auto h : processes_) {
    if (h) h.destroy();
  }
  processes_.clear();
  release_events(fifo_.data() + fifo_head_, fifo_.data() + fifo_.size());
  release_events(heap_.data(), heap_.data() + heap_.size());
  fifo_.clear();
  fifo_head_ = 0;
  heap_.clear();
  size_ = 0;
  foreground_ = 0;
  pending_exception_ = nullptr;
  for (AbandonHook* h = hooks_; h != nullptr; h = h->next) h->drop(h);
  abandoning_ = false;
}

void Simulation::release_events(Event* first, Event* last) {
  for (; first != last; ++first) {
    if (first->kind == Event::Kind::kHeap) delete first->heap;
  }
}

void Simulation::spawn(Task<> task) {
  auto handle = task.release();
  if (!handle) return;
  auto& p = handle.promise();
  p.owner = this;
  p.process_slot = static_cast<std::uint32_t>(processes_.size());
  p.on_final = [](void* owner, detail::PromiseBase* pb) {
    static_cast<Simulation*>(owner)->note_finished(pb);
  };
  processes_.push_back(handle);
  // Start lazily via the queue so spawn() itself never re-enters user code;
  // processes spawned at the same instant start in spawn order.
  Event ev;
  ev.at = now_;
  ev.seq = next_seq_++;
  ev.kind = Event::Kind::kResume;
  ev.resume_addr = handle.address();
  push(ev);
}

void Simulation::dispatch(Event& ev) {
  ++events_processed_;
  ++dispatched_;
  switch (ev.kind) {
    case Event::Kind::kResume: {
      auto h = std::coroutine_handle<>::from_address(ev.resume_addr);
      if (h && !h.done()) h.resume();
      break;
    }
    case Event::Kind::kInline:
      // `ev` is the drain loop's own copy: the invoker may mutate its
      // capture in place.
      ev.inlined.invoke(ev.inlined.buf);
      break;
    case Event::Kind::kHeap: {
      std::unique_ptr<std::function<void()>> fn(ev.heap);
      (*fn)();
      break;
    }
  }
}

// Remove and return the minimum (at, seq) event: sift the last entry down
// from the root with a hole, one move per level.  (at, seq) compares as
// one 128-bit key (times are never negative), so picking the least of four
// children compiles to conditional moves rather than branches.
Simulation::Event Simulation::heap_pop() {
  const Event top = heap_.front();
  const Event last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return top;
  using Key = unsigned __int128;
  auto key = [](const Event& e) {
    return (static_cast<Key>(static_cast<std::uint64_t>(e.at)) << 64) | e.seq;
  };
  // Index through a local base pointer: an Event holds pointers, so the
  // compiler would otherwise reload heap_.data() after every store.
  Event* const h = heap_.data();
  const Key last_key = key(last);
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = hole * kArity + 1;
    if (first >= n) break;
    const std::size_t end = first + kArity < n ? first + kArity : n;
    std::size_t best = first;
    Key best_key = key(h[first]);
    for (std::size_t c = first + 1; c < end; ++c) {
      const Key k = key(h[c]);
      const bool less = k < best_key;
      best = less ? c : best;
      best_key = less ? k : best_key;
    }
    if (!(best_key < last_key)) break;
    h[hole] = h[best];
    hole = best;
  }
  h[hole] = last;
  return top;
}

// Dispatch every event stamped exactly `t`: first the heap's entries at t
// (queued before the clock reached t, so lower seqs), then the FIFO, which
// same-instant wakeups extend while it drains.  An event is removed before
// it fires, so an exception leaves exactly the undispatched rest queued.
// A dispatch can fast-forward the clock (delay() on an empty queue); events
// it then queues belong to the new instant, so the loop stops there.
void Simulation::drain_instant(Time t) {
  now_ = t;
  for (;;) {
    Event ev;
    if (!heap_.empty() && heap_.front().at == t) {
      ev = heap_pop();
    } else if (fifo_head_ < fifo_.size() && now_ == t) {
      ev = fifo_[fifo_head_++];
    } else {
      break;
    }
    --size_;
    if (!ev.daemon) --foreground_;
    dispatch(ev);
    if (!finished_.empty()) drain_finished();
    if (pending_exception_) break;
  }
  if (fifo_head_ == fifo_.size()) {
    fifo_.clear();
    fifo_head_ = 0;
  }
}

// Called from FinalAwaiter while the finishing frame is suspended at its
// final suspend point.  Swap-remove from the process table (O(1)) and park
// the handle for destruction on the next drain pass -- destroying it here
// would free the frame we are currently executing inside.
void Simulation::note_finished(detail::PromiseBase* p) {
  if (p->exception && !pending_exception_) pending_exception_ = p->exception;
  const std::uint32_t i = p->process_slot;
  Task<>::Handle h = processes_[i];
  processes_[i] = processes_.back();
  processes_[i].promise().process_slot = i;
  processes_.pop_back();
  finished_.push_back(h);
}

void Simulation::drain_finished() {
  for (auto h : finished_) h.destroy();
  finished_.clear();
}

void Simulation::run() {
  unbounded_drain_ = true;
  struct DrainGuard {
    bool* flag;
    ~DrainGuard() { *flag = false; }
  } guard{&unbounded_drain_};
  // Stop once only daemon events remain: they stay parked for a later
  // run() (or die with the queue), so watchdog loops never hold a finished
  // workload open.
  while (foreground_ > 0) {
    drain_instant(next_event_time());
    if (pending_exception_) break;
  }
  rethrow_pending();
}

void Simulation::run_window(Time end) {
  // The same liveness test run() makes, per shard: daemons fire only while
  // this shard's own foreground work remains.  Widening the test to the
  // whole group was tried and reverted -- each group's watchdog daemons
  // (HA probe loops) spawn foreground probe RPCs, so two groups would keep
  // each other's watchdogs ticking forever once their probe rounds
  // overlap.  A foreground-idle shard parks instead, exactly like a plain
  // idle Simulation between run() calls, until a cross-shard delivery
  // (always a foreground event) wakes it.
  while (foreground_ > 0) {
    const Time t = next_event_time();
    if (t >= end) break;
    drain_instant(t);
    if (pending_exception_) break;
  }
  rethrow_pending();
}

bool Simulation::run_until(Time deadline) {
  while (size_ > 0) {
    const Time t = next_event_time();
    if (t > deadline) break;
    drain_instant(t);
    if (pending_exception_) break;
  }
  rethrow_pending();
  if (size_ == 0) return true;
  if (deadline > now_) now_ = deadline;
  return false;
}

void Simulation::rethrow_pending() {
  drain_finished();
  if (pending_exception_) {
    auto ex = pending_exception_;
    pending_exception_ = nullptr;
    std::rethrow_exception(ex);
  }
}

}  // namespace raidx::sim
