// Per-node block cache: the functional (zero-simulated-time) data structure
// underneath the cooperative cache fabric.
//
// One NodeCache holds the logical blocks a node keeps in memory.  It is a
// pure container -- no timing, no network -- so the coherence protocol in
// CacheFabric can mutate caches "instantaneously" at well-defined points of
// the simulation (insert/invalidate happen synchronously inside the
// writer's critical section) while all latency is charged separately.
//
// Eviction policies:
//  * LRU  -- single recency list.
//  * 2Q   -- Johnson & Shasha's simplified 2Q: first-touch blocks enter a
//    FIFO probation queue (A1in); blocks re-referenced after falling out of
//    probation (tracked by the A1out ghost list of keys) enter the
//    protected LRU main queue (Am).  One sequential scan can displace at
//    most the probation queue, which is what makes 2Q scan-resistant --
//    exactly the property a ReadAll-style phase needs.
//
// Entries are immutable block::Payload values: an entry written through
// the cache shares its buffer with the disks' stored copies of the block
// (and with any peer that forwarded it), and a zero-run stays a zero-run.
//
// Dirty handling: a write-back cache marks entries dirty; eviction of a
// dirty entry must not lose data, so victim selection *skips* entries that
// are dirty or mid-flush ("busy") and the engine-side flusher is
// responsible for cleaning them and retiring the overflow.  Entries inside
// the pinned range (file-system metadata) are only evicted as a last
// resort.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>

#include "block/payload.hpp"

namespace raidx::cache {

enum class EvictionPolicy { kLru, k2Q };

class NodeCache {
 public:
  NodeCache(std::uint64_t capacity_blocks, std::uint32_t block_bytes,
            EvictionPolicy policy);
  NodeCache(const NodeCache&) = delete;
  NodeCache& operator=(const NodeCache&) = delete;

  /// Look up a block; returns its payload and refreshes recency.  nullptr
  /// on miss.  The pointer is invalidated by any mutating call; copy the
  /// payload (O(1), shared buffer) to keep it.
  const block::Payload* lookup(std::uint64_t lba);

  /// Peek without touching recency (peer-forward reads: a remote hit
  /// should not rejuvenate the peer's entry).
  const block::Payload* peek(std::uint64_t lba) const;

  /// Insert or overwrite a block with `data` (exactly one block; its
  /// buffer is shared, not copied).  `dirty` marks it as needing a flush.
  /// Does NOT evict; the caller checks over_capacity() afterwards and runs
  /// the eviction protocol so dirty victims can be flushed with real I/O.
  void insert(std::uint64_t lba, block::Payload data, bool dirty);

  /// Drop a block (coherence invalidation).  Returns true if present.
  /// Dirty entries are dropped too -- the caller must only invalidate a
  /// dirty copy after the superseding write is safely placed elsewhere.
  bool invalidate(std::uint64_t lba);

  bool contains(std::uint64_t lba) const { return entries_.count(lba) != 0; }
  bool dirty(std::uint64_t lba) const;

  /// Mark a flushed block clean iff it was not rewritten since `version`.
  /// Returns true if the entry is now clean.
  bool mark_clean(std::uint64_t lba, std::uint64_t version);

  /// Monotonic per-entry write version, 0 if absent.
  std::uint64_t version(std::uint64_t lba) const;

  /// Pick the coldest evictable (clean, unpinned, not busy) entry; the 2Q
  /// policy prefers draining probation before touching the main queue.
  /// Pinned entries are only returned when nothing else qualifies.
  std::optional<std::uint64_t> pick_victim();

  /// Oldest dirty entry, if any (flusher work queue).
  std::optional<std::uint64_t> oldest_dirty() const;

  /// Mark an entry busy while a flush of it is in flight so concurrent
  /// evicters do not pick it twice.
  void set_busy(std::uint64_t lba, bool busy);

  /// Blocks in [lo, hi) are file-system metadata: evicted last.
  void set_pinned_range(std::uint64_t lo, std::uint64_t hi) {
    pin_lo_ = lo;
    pin_hi_ = hi;
  }

  void clear();

  bool enabled() const { return capacity_blocks_ > 0; }
  bool over_capacity() const { return entries_.size() > capacity_blocks_; }
  std::uint64_t capacity_blocks() const { return capacity_blocks_; }
  std::size_t dirty_blocks() const { return dirty_count_; }

 private:
  enum class Queue : std::uint8_t { kProbation, kMain };

  struct Entry {
    block::Payload data;
    bool dirty = false;
    bool busy = false;  // flush in flight
    std::uint64_t version = 0;
    Queue queue = Queue::kMain;
    std::list<std::uint64_t>::iterator pos;  // in its queue's recency list
  };

  bool pinned(std::uint64_t lba) const {
    return lba >= pin_lo_ && lba < pin_hi_;
  }
  void touch(std::uint64_t lba, Entry& e);
  void attach(std::uint64_t lba, Entry& e, Queue q);
  void remember_ghost(std::uint64_t lba);
  std::optional<std::uint64_t> scan_for_victim(const std::list<std::uint64_t>& q,
                                               bool allow_pinned);

  std::uint64_t capacity_blocks_;
  std::uint32_t block_bytes_;
  EvictionPolicy policy_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::size_t dirty_count_ = 0;
  std::uint64_t next_version_ = 0;
  std::uint64_t pin_lo_ = 0, pin_hi_ = 0;

  // Recency lists, least-recently-used at the front.
  std::list<std::uint64_t> main_;       // LRU / 2Q's Am
  std::list<std::uint64_t> probation_;  // 2Q's A1in (FIFO)
  // 2Q's A1out: ghost keys recently aged out of probation.
  std::list<std::uint64_t> ghost_;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
      ghost_index_;
  std::size_t probation_target_ = 0;
  std::size_t ghost_target_ = 0;
};

}  // namespace raidx::cache
