#include "sim/shard.hpp"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

namespace raidx::sim {

ShardGroup::ShardGroup(int shards, Time lookahead) : lookahead_(lookahead) {
  assert(shards >= 1);
  assert(lookahead > 0 && "conservative windows need a positive lookahead");
  sims_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    sims_.push_back(std::make_unique<Simulation>());
  }
  boxes_.resize(static_cast<std::size_t>(shards) *
                static_cast<std::size_t>(shards));
}

ShardGroup::~ShardGroup() {
  // Each Simulation's constructor pushed its frame pool onto the thread's
  // scope chain; destroy in strict LIFO order so every Scope restores the
  // predecessor it actually captured (vector destruction order would leave
  // the thread's current pool dangling).
  while (!sims_.empty()) sims_.pop_back();
}

void ShardGroup::post(int src, int dst, Time deliver_at,
                      std::function<void()> fn) {
  assert(src != dst && "same-shard work never rides the mailbox");
  assert(deliver_at >= sim(src).now() + lookahead_ &&
         "cross-shard message stamped under the lookahead horizon");
  Mailbox& mb = box(src, dst);
  mb.msgs.push_back(Msg{deliver_at, mb.next_seq++, src, std::move(fn)});
}

// Gather every pending message per destination, order by
// (deliver_at, src_shard, src_seq) -- a total order independent of worker
// interleaving -- and schedule into the destination queues.  Runs on the
// coordinator between windows, when no worker holds a shard.
void ShardGroup::deliver_pending() {
  const int S = shards();
  for (int dst = 0; dst < S; ++dst) {
    merge_scratch_.clear();
    for (int src = 0; src < S; ++src) {
      if (src == dst) continue;
      auto& msgs = box(src, dst).msgs;
      for (Msg& m : msgs) merge_scratch_.push_back(std::move(m));
      msgs.clear();
    }
    if (merge_scratch_.empty()) continue;
    std::sort(merge_scratch_.begin(), merge_scratch_.end(),
              [](const Msg& a, const Msg& b) {
                if (a.at != b.at) return a.at < b.at;
                if (a.src != b.src) return a.src < b.src;
                return a.seq < b.seq;
              });
    Simulation& s = sim(dst);
    for (Msg& m : merge_scratch_) {
      // A shard's clock moves only by dispatching inside a window, so it
      // stays below the last window end and a message normally lands in
      // the destination's future.  The one exception is a shard whose
      // parked daemon events resurface below an already-passed window end
      // (possible only after the group went foreground-idle in that
      // region); its peers' clocks are legitimately ahead, and the region
      // between a stamp and the clock is provably event-free on the
      // destination -- delivering at the clock instead of the stamp
      // reorders nothing.  The clamp is deterministic: clocks are a pure
      // function of the event history.
      s.schedule_at(std::max(m.at, s.now()), std::move(m.fn));
      ++stats_.messages;
    }
    merge_scratch_.clear();
  }
}

void ShardGroup::run(int threads) {
  if (shards() == 1) {
    // No peers, no mailboxes: the plain drain loop IS the single-shard
    // semantics, and reusing it verbatim is what makes --shards=1
    // bit-identical to the pre-shard engine.
    FramePool::Scope scope(&sim(0).frame_pool());
    sim(0).run();
    return;
  }
  run_windowed(std::clamp(threads, 1, shards()));
}

void ShardGroup::run_windowed(int threads) {
  const int S = shards();

  // Published by the coordinator before each round, read by workers after
  // the generation bump (the barrier mutex orders both directions).
  Time window_end = 0;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(S));

  std::mutex mu;
  std::condition_variable cv_round, cv_done;
  std::uint64_t generation = 0;
  int remaining = 0;
  bool stop = false;

  auto run_shard = [&](int s) {
    Simulation& shard_sim = sim(s);
    // Frames created while this shard executes must come from -- and return
    // to -- this shard's pool, whichever worker happens to drive it.
    FramePool::Scope scope(&shard_sim.frame_pool());
    try {
      shard_sim.run_window(window_end);
    } catch (...) {
      errors[static_cast<std::size_t>(s)] = std::current_exception();
    }
  };

  // Worker w owns shards w, w+T, w+2T, ...: a static assignment, so a
  // shard is driven by the same worker every round of a run.
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads - 1));
  for (int w = 1; w < threads; ++w) {
    pool.emplace_back([&, w] {
      std::uint64_t seen = 0;
      for (;;) {
        {
          std::unique_lock<std::mutex> lk(mu);
          cv_round.wait(lk, [&] { return stop || generation != seen; });
          if (stop) return;
          seen = generation;
        }
        for (int s = w; s < S; s += threads) run_shard(s);
        {
          std::lock_guard<std::mutex> lk(mu);
          if (--remaining == 0) cv_done.notify_one();
        }
      }
    });
  }
  auto shutdown = [&] {
    {
      std::lock_guard<std::mutex> lk(mu);
      stop = true;
    }
    cv_round.notify_all();
    for (std::thread& t : pool) t.join();
  };

  std::exception_ptr fatal;
  Time prev_end = 0;
  for (;;) {
    deliver_pending();
    std::size_t fg_total = 0;
    for (auto& s : sims_) fg_total += s->foreground_pending();
    if (fg_total == 0) break;  // only parked daemons remain, everywhere

    // Global minimum over the shards with foreground work, one peek each
    // (a peek never moves a clock).  Foreground-idle shards are excluded
    // outright: their parked daemon timers cannot fire (run_window keeps
    // daemons live only while the shard's own foreground remains), so
    // counting them would pin global_min to a timestamp no drain will ever
    // consume -- a zero-progress window loop.
    Time global_min = Simulation::kNoEvent;
    for (auto& s : sims_) {
      if (s->foreground_pending() == 0) continue;
      global_min = std::min(global_min, s->next_event_time());
    }
    // Monotone window ends: a just-woken shard's parked daemon events can
    // sit below an already-passed end; clamping keeps every clock
    // <= window_end - 1 an invariant while the backlog drains.
    window_end = std::max(global_min + lookahead_, prev_end);
    prev_end = window_end;
    ++stats_.windows;

    if (threads == 1) {
      for (int s = 0; s < S; ++s) run_shard(s);
    } else {
      {
        std::lock_guard<std::mutex> lk(mu);
        remaining = threads - 1;
        ++generation;
      }
      cv_round.notify_all();
      for (int s = 0; s < S; s += threads) run_shard(s);
      {
        std::unique_lock<std::mutex> lk(mu);
        cv_done.wait(lk, [&] { return remaining == 0; });
      }
    }

    for (int s = 0; s < S; ++s) {
      if (errors[static_cast<std::size_t>(s)]) {
        fatal = errors[static_cast<std::size_t>(s)];
        break;
      }
    }
    if (fatal) break;
  }
  shutdown();
  if (fatal) std::rethrow_exception(fatal);
}

}  // namespace raidx::sim
