// Discrete-event simulation driver.
//
// The Simulation owns a time-ordered event queue.  Events are either plain
// callbacks or suspended coroutine resumptions.  Events at equal timestamps
// fire in insertion order (a monotonically increasing sequence number breaks
// ties), which makes every run bit-for-bit reproducible.
//
// The queue is built for throughput on the patterns a cluster simulation
// actually produces (see DESIGN.md section 10 for the full argument):
//
//  * Events are a 48-byte tagged union.  Coroutine resumptions -- the
//    overwhelming majority -- carry a bare coroutine_handle; callbacks with
//    small trivially-copyable captures are stored inline; only large
//    captures fall back to one heap allocation.  Steady-state scheduling
//    and dispatch of a resume allocates nothing.
//
//  * Ordering uses two structures and nothing moves between them.  An
//    event stamped at the current instant (a resource grant, a barrier
//    release, a channel hand-off) is appended to a same-instant FIFO with
//    no comparison at all; every other event goes to a 4-ary min-heap on
//    (at, seq), which holds only the events still pending -- a few dozen to
//    a few thousand on the cluster workloads.  There is no time horizon and
//    no cascading, so next_event_time() is a pure peek.
//
//  * When the queue is empty and run() is draining, delay() resumes the
//    calling coroutine by symmetric transfer instead of a queue round trip
//    -- the lone-process case degenerates to a bare clock advance.
//
// Why the pair is order-exact: the FIFO only ever holds events stamped
// now(), appended in seq order, and the clock never moves while it is
// non-empty.  An event stamped now() that sits in the heap was pushed
// before the clock reached now(), so its seq is below every FIFO entry's.
// Each instant therefore drains the heap's entries at now() first, then
// the FIFO -- exact (at, seq) order.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <limits>
#include <type_traits>
#include <vector>

#include "sim/frame_pool.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace raidx::obs {
class Hub;
}

namespace raidx::sim {

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  ~Simulation();

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedule a callback `delay` nanoseconds from now (delay >= 0).
  /// Trivially-copyable callables up to kInlineBytes are stored inline in
  /// the event; larger ones cost one heap allocation.
  template <typename F>
  void schedule(Time delay, F&& fn) {
    assert(delay >= 0 && "cannot schedule into the past");
    Event ev;
    ev.at = now_ + delay;
    ev.seq = next_seq_++;
    using Fn = std::decay_t<F>;
    if constexpr (std::is_trivially_copyable_v<Fn> &&
                  std::is_trivially_destructible_v<Fn> &&
                  sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(void*)) {
      ev.kind = Event::Kind::kInline;
      ev.inlined.invoke = [](void* p) { (*static_cast<Fn*>(p))(); };
      ::new (static_cast<void*>(ev.inlined.buf)) Fn(std::forward<F>(fn));
    } else {
      ev.kind = Event::Kind::kHeap;
      ev.heap = new std::function<void()>(std::forward<F>(fn));
      ++queue_stats_.heap_callbacks;
    }
    push(ev);
  }

  /// Schedule resumption of a suspended coroutine `delay` ns from now.
  /// A daemon resumption never keeps the simulation alive by itself: run()
  /// stops once only daemon events remain (see daemon_delay()).
  void schedule_resume(Time delay, std::coroutine_handle<> h,
                       bool daemon = false) {
    assert(delay >= 0 && "cannot schedule into the past");
    Event ev;
    ev.at = now_ + delay;
    ev.seq = next_seq_++;
    ev.kind = Event::Kind::kResume;
    ev.daemon = daemon;
    ev.resume_addr = h.address();
    push(ev);
  }

  /// Start a top-level process.  The simulation takes ownership of the
  /// coroutine frame; the task body begins executing at the current time.
  void spawn(Task<> task);

  /// Awaitable: suspend the calling coroutine for `d` nanoseconds.
  auto delay(Time d) {
    struct Awaiter {
      Simulation* sim;
      Time d;
      bool await_ready() const noexcept { return d <= 0; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) noexcept {
        return sim->suspend_delay(d, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, d};
  }

  /// Resume `h` `d` nanoseconds from now, from a callback rather than from
  /// an await: the same fast-path test delay()'s suspension makes, so a
  /// callback that continues a coroutine after a wait (a CPU grant, then
  /// its service time) resumes by direct call exactly where delay() would
  /// have resumed by symmetric transfer.  d <= 0 resumes at once, as
  /// delay(0) never suspends.
  void resume_after(Time d, std::coroutine_handle<> h) {
    if (d <= 0) {
      h.resume();
      return;
    }
    suspend_delay(d, h).resume();
  }

  /// A callback chain's timed step of `d` nanoseconds, under delay()'s
  /// rules: d <= 0 takes no event, and delay()'s fast-path test advances
  /// the clock where delay() would have resumed by symmetric transfer.
  /// Returns true when the chain goes straight on; otherwise queues `then`
  /// at now + d, where delay() would have queued its resume, and returns
  /// false.  A chain of steps loops over this rather than recursing.
  template <typename F>
  bool step_after(Time d, F&& then) {
    if (d <= 0 || fast_forward(d)) return true;
    schedule(d, std::forward<F>(then));
    return false;
  }

  /// Awaitable like delay(), but the wakeup is a *daemon* event: it fires
  /// in timestamp order while foreground work keeps the simulation going,
  /// yet never keeps run() alive by itself -- once only daemon events
  /// remain, run() returns and leaves them parked.  Monitor/heartbeat
  /// loops sleep on this so a finished workload is never held open by its
  /// own watchdogs.  Always takes the queue (no symmetric-transfer fast
  /// path): a lone daemon would otherwise spin the clock forever.
  auto daemon_delay(Time d) {
    struct Awaiter {
      Simulation* sim;
      Time d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) noexcept {
        sim->schedule_resume(d < 0 ? 0 : d, h, /*daemon=*/true);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, d};
  }

  /// Pending events that are not daemons -- the count run() drains to zero.
  /// Daemon loops use this to tell "the workload is still running" from
  /// "only we are left" and skip their work in the latter case.
  std::size_t foreground_pending() const { return foreground_; }

  /// Long passes a daemon starts (integrity scrubs) take turns on one
  /// simulation.  A pass is foreground work, so when several worlds share
  /// the simulation (WAN sites), two staggered passes would keep each
  /// other's daemons waking and the run would never drain.  A daemon
  /// starts a pass only when this returns true, and ends it with
  /// end_daemon_pass().  With one world the daemon's own previous pass is
  /// always over when it wakes, so it never waits.
  bool try_begin_daemon_pass() {
    if (daemon_pass_running_) return false;
    daemon_pass_running_ = true;
    return true;
  }
  void end_daemon_pass() { daemon_pass_running_ = false; }

  /// Run until no events remain.  Rethrows the first exception raised by a
  /// top-level process (after draining is aborted).
  void run();

  /// Run until the queue empties or simulated time reaches `deadline`.
  /// Returns true if the queue was drained.
  bool run_until(Time deadline);

  /// Sentinel returned by next_event_time() when nothing is queued.
  static constexpr Time kNoEvent = std::numeric_limits<Time>::max();

  /// Earliest pending timestamp (daemon events included), or kNoEvent when
  /// nothing is queued.  A pure peek: the clock and the queue are left
  /// exactly as they were, so the shard synchronizer (sim/shard.hpp) can
  /// ask every shard once per window for the global minimum.
  Time next_event_time() const {
    if (fifo_head_ < fifo_.size()) return now_;
    return heap_.empty() ? kNoEvent : heap_.front().at;
  }

  /// Dispatch every event with timestamp strictly below `end`, in exact
  /// (at, seq) order.  Daemon events keep run()'s liveness contract: they
  /// fire only while this simulation's own foreground work remains, so a
  /// foreground-idle shard parks exactly like a plain idle world -- its
  /// watchdog daemons wait for the next foreground arrival (a cross-shard
  /// delivery) instead of being kept alive by peers, which would let two
  /// groups' watchdogs sustain each other forever.  Unlike run_until(),
  /// the clock is left at the last dispatched event rather than dragged
  /// to `end`, so consecutive windows splice seamlessly.
  void run_window(Time end);

  /// Teardown: destroy every process frame still suspended, drop every
  /// queued event, and end every callback chain in flight (AbandonHook
  /// below).  A world calls this before its tiers die, because a run
  /// that threw leaves requests mid-flight whose frames hold grants on the
  /// world's resources (and the destructor would otherwise reach them only
  /// after those resources are gone).  While it runs, released resources
  /// hand nothing on: their waiters are being destroyed too.
  void abandon();
  bool abandoning() const { return abandoning_; }

  /// What abandon() must reach besides frames and events: the records a
  /// frameless callback chain keeps its state in (sim::RecordPool).  An
  /// owner links its hook for as long as it lives; abandon() runs every
  /// linked hook's `drop`, newest first, once the frames are destroyed and
  /// the events dropped.  So a chain in flight ends where a frame would:
  /// what it holds open (its spans) closes while its world and hub live.
  struct AbandonHook {
    void (*drop)(AbandonHook*) noexcept = nullptr;
    AbandonHook* prev = nullptr;
    AbandonHook* next = nullptr;
  };
  void link(AbandonHook* h) noexcept {
    h->prev = nullptr;
    h->next = hooks_;
    if (hooks_ != nullptr) hooks_->prev = h;
    hooks_ = h;
  }
  void unlink(AbandonHook* h) noexcept {
    (h->prev != nullptr ? h->prev->next : hooks_) = h->next;
    if (h->next != nullptr) h->next->prev = h->prev;
  }

  /// Schedule `fn` at the absolute instant `at` (>= now()).  The shard
  /// synchronizer stamps cross-shard messages in the sender's frame of
  /// reference and delivers them through this at window boundaries.
  template <typename F>
  void schedule_at(Time at, F&& fn) {
    assert(at >= now_ && "cannot deliver into the past");
    schedule(at - now_, std::forward<F>(fn));
  }

  /// Number of events processed so far (useful for micro-benchmarks).
  std::uint64_t events_processed() const { return events_processed_; }

  /// Events currently scheduled and not yet dispatched.
  std::size_t pending_events() const { return size_; }

  /// Engine-internal counters.  obs exports the workload-determined ones
  /// (fast_resumes, heap_callbacks, peak_pending) as `sim.queue.*`.
  struct QueueStats {
    std::uint64_t fast_resumes = 0;     // delay() symmetric-transfer hops
    std::uint64_t same_instant = 0;     // pushes into the same-instant FIFO
    std::uint64_t heap_pushes = 0;      // pushes into the (at, seq) heap
    std::uint64_t cascaded_events = 0;  // always 0: nothing cascades
    std::uint64_t heap_callbacks = 0;   // schedule() SBO misses
    std::uint64_t peak_pending = 0;     // high-water mark of the queue
  };
  QueueStats queue_stats() const {
    // fast_resumes and heap_pushes are derived rather than counted so the
    // symmetric-transfer and heap paths touch no extra counter: every
    // queued event takes one seq, and every dispatch is a queue round trip.
    QueueStats s = queue_stats_;
    s.fast_resumes = events_processed_ - dispatched_;
    s.heap_pushes = next_seq_ - s.same_instant;
    return s;
  }

  /// Coroutine-frame pool statistics, exported as `sim.frame_pool.*`.
  const FramePool::Stats& frame_pool_stats() const {
    return frame_pool_.stats();
  }

  /// The pool this simulation's coroutine frames come from.  A worker
  /// thread advancing this shard installs it (FramePool::Scope) before
  /// creating or resuming any of its coroutines, so frames are always
  /// allocated and recycled on the thread currently driving the shard.
  FramePool& frame_pool() { return frame_pool_; }

  /// Observability hub (src/obs), or null when observability is off.
  /// The simulation never calls into the hub itself; instrumented layers
  /// test this pointer on their record paths.  Null by default, so runs
  /// without a hub are bit-identical to builds that predate src/obs.
  obs::Hub* hub() const { return hub_; }
  void set_hub(obs::Hub* hub) { hub_ = hub; }

  /// Largest callable stored inside an event without heap fallback.
  static constexpr std::size_t kInlineBytes = 16;

 private:
  struct Event {
    Time at;
    std::uint64_t seq;
    enum class Kind : std::uint8_t { kResume, kInline, kHeap };
    Kind kind;
    /// Daemon events ride the queue like any other (exact timestamp order)
    /// but do not count toward foreground_, so run() can stop with them
    /// still parked.  Lives in padding after `kind`: the event stays 48
    /// bytes.
    bool daemon = false;
    union {
      // coroutine_handle<> stored by address: its user-provided constexpr
      // ctor would otherwise delete the union's default constructor.
      void* resume_addr;
      struct {
        void (*invoke)(void*);
        alignas(void*) unsigned char buf[kInlineBytes];
      } inlined;
      std::function<void()>* heap;
    };
  };
  static constexpr std::size_t kArity = 4;
  static constexpr std::uint64_t kReapMask = 0x3ff;
  /// First-push capacity of the FIFO and the heap: room for the queue
  /// depths most cluster workloads reach, so a fresh Simulation skips the
  /// 1, 2, 4, ... growth chain.
  static constexpr std::size_t kInitialCapacity = 64;

  /// Route an event to the same-instant FIFO or the heap.
  void push(const Event& ev) {
    ++size_;
    if (!ev.daemon) ++foreground_;
    if (size_ > queue_stats_.peak_pending) queue_stats_.peak_pending = size_;
    if (ev.at == now_) {
      if (fifo_.capacity() == 0) [[unlikely]] fifo_.reserve(kInitialCapacity);
      fifo_.push_back(ev);
      ++queue_stats_.same_instant;
      return;
    }
    heap_push(ev);
  }

  /// Sift-up with a hole.  `ev` carries the largest seq yet issued, so it
  /// precedes a parent only on a strictly earlier `at`.
  void heap_push(const Event& ev) {
    if (heap_.capacity() == 0) [[unlikely]] heap_.reserve(kInitialCapacity);
    std::size_t hole = heap_.size();
    heap_.push_back(ev);
    Event* const h = heap_.data();
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / kArity;
      if (!(ev.at < h[parent].at)) break;
      h[hole] = h[parent];
      hole = parent;
    }
    h[hole] = ev;
  }

  /// delay()'s fast path: when nothing else is pending and run() is
  /// draining unbounded, advance the clock by `d` and count the hop as an
  /// event instead of a queue round trip.  Every 1024th event still
  /// bounces through run() so finished top-level frames get reaped on the
  /// same cadence as queued dispatch.
  bool fast_forward(Time d) noexcept {
    // One fused test (all operands are cheap loads with no side effects)
    // and a single counter bump: fast_resumes is derived in queue_stats().
    const std::uint64_t n = events_processed_ + 1;
    if (static_cast<int>((n & kReapMask) != 0) &
        static_cast<int>(size_ == 0) &
        static_cast<int>(unbounded_drain_)) [[likely]] {
      events_processed_ = n;
      now_ += d;
      return true;
    }
    return false;
  }

  /// delay() suspension: symmetric transfer on the fast path, a queued
  /// resume otherwise.
  std::coroutine_handle<> suspend_delay(Time d,
                                        std::coroutine_handle<> h) noexcept {
    if (fast_forward(d)) [[likely]] return h;
    schedule_resume(d, h);
    return std::noop_coroutine();
  }

  Event heap_pop();
  void drain_instant(Time t);
  void dispatch(Event& ev);
  // O(1) process retirement: finished top-level frames report in via the
  // promise's on_final hook; their frames are destroyed on the next pass
  // through the drain loop (never from inside their own resume).
  void note_finished(detail::PromiseBase* p);
  void drain_finished();
  // Reap finished frames, then rethrow the first top-level exception.
  void rethrow_pending();
  static void release_events(Event* first, Event* last);

  Time now_ = 0;
  obs::Hub* hub_ = nullptr;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t dispatched_ = 0;  // queue round trips (excludes fast resumes)
  std::size_t size_ = 0;
  std::size_t foreground_ = 0;  // size_ minus parked daemon events
  bool unbounded_drain_ = false;
  bool daemon_pass_running_ = false;
  bool abandoning_ = false;
  QueueStats queue_stats_;
  // Events stamped now_, in seq order; [0, fifo_head_) already fired.
  std::vector<Event> fifo_;
  std::size_t fifo_head_ = 0;
  std::vector<Event> heap_;  // 4-ary min-heap on (at, seq)
  std::vector<Task<>::Handle> processes_;
  std::vector<std::coroutine_handle<>> finished_;
  std::exception_ptr pending_exception_;
  AbandonHook* hooks_ = nullptr;  // newest first
  FramePool frame_pool_;
  FramePool::Scope pool_scope_{&frame_pool_};
};

}  // namespace raidx::sim
