// Pooled state for frameless callback chains.
//
// A callback chain -- a message crossing the network, a lock sync applied
// at a peer -- keeps its state in a record instead of a coroutine frame.
// The pool hands records out and takes them back, most recently returned
// first, so a steady stream of short chains reuses a handful of warm
// records.  Addresses are stable (a record parked on a Resource sits on
// its intrusive wait list), and the pool owns every record it ever made.
// An empty pool allocates nothing.
//
// Simulation::abandon() ends the chains still in flight, as it destroys
// the frames still suspended: the pool links an abandon hook that resets
// every record to a fresh one, which closes whatever the record held open
// (its spans) while the world and its hub are alive, and hands it back.
// After that, nothing reaches a record but the wait lists of resources
// that die with the run.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "sim/event_queue.hpp"

namespace raidx::sim {

template <typename T>
class RecordPool : private Simulation::AbandonHook {
 public:
  explicit RecordPool(Simulation& sim) : sim_(sim) {
    drop = [](Simulation::AbandonHook* h) noexcept {
      static_cast<RecordPool*>(h)->reset();
    };
    sim_.link(this);
  }
  ~RecordPool() { sim_.unlink(this); }
  RecordPool(const RecordPool&) = delete;
  RecordPool& operator=(const RecordPool&) = delete;

  /// A record for a new chain: a returned one if any, else a fresh one.
  /// The caller sets every field its chain reads.
  T* take() {
    if (free_.empty()) {
      // Room to hand every record back: give() runs where a chain ends,
      // which must not throw, so it never allocates.
      free_.reserve(records_.size() + 1);
      records_.push_back(std::make_unique<T>());
      return records_.back().get();
    }
    T* r = free_.back();
    free_.pop_back();
    return r;
  }

  /// Hand back a record whose chain has ended.  Never allocates.
  void give(T* r) noexcept { free_.push_back(r); }

  /// Records made so far: the most that were ever in use at once.
  std::size_t size() const { return records_.size(); }

 private:
  /// Every record fresh and back in the pool.  Never allocates: take()
  /// keeps room in free_ for every record.
  void reset() noexcept {
    if (free_.size() == records_.size()) return;  // nothing in flight
    free_.clear();
    for (auto& r : records_) {
      *r = T{};
      free_.push_back(r.get());
    }
  }

  Simulation& sim_;
  std::vector<std::unique_ptr<T>> records_;
  std::vector<T*> free_;
};

}  // namespace raidx::sim
