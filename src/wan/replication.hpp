// Asynchronous cross-site mirror replication: OSM's background-update
// idea one level up.
//
// Inside one site, RAID-x writes data blocks in the foreground and
// flushes mirror images in the background.  The federation repeats the
// trick across sites: a client write commits at its home site and
// returns; a per-(src, dst) replication stream then ships the block over
// the WAN and applies it into the destination's mirror region for the
// home site.  The geo-mirror trails its primary the way an OSM image
// trails its data block -- except the window is the WAN backlog, so it is
// *accounted*, not assumed away:
//
//  * every applied entry records its lag (apply time - append time) in a
//    histogram, plus the running max and the count of entries whose lag
//    exceeded the configured staleness bound;
//  * every stream tracks its backlog (entries waiting) and the peak, and
//    timestamps each drain -- the partition-recovery metric is simply
//    (last drain) - (heal instant).
//
// Log mechanics: streams coalesce same-LBA appends (only the newest bytes
// ever cross the WAN -- the shipper reads the block from the home site's
// array at ship time, so a hot block costs one shipment per drain, not
// one per write).  Catch-up bandwidth rides the existing token-bucket
// machinery (`ship_mbs`); a partitioned stream parks on the link's heal
// trigger instead of polling, and a failed shipment re-queues at the
// front so apply order at the destination stays append order.
//
// Determinism: appends are synchronous bookkeeping on the writer's
// coroutine, shippers are ordinary simulation coroutines, and an idle
// stream holds no pending event -- so the simulation still terminates
// when foreground work drains, and two same-seed runs ship identical
// streams.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "sim/token_bucket.hpp"

namespace raidx::wan {

class Federation;

struct ReplicationParams {
  /// Catch-up throttle per stream, MB/s (tokens are bytes; 0 = uncapped).
  /// Bounds how hard a post-partition catch-up can hit the WAN and the
  /// destination's disks -- the cross-site analogue of --rebuild-mbs.
  double ship_mbs = 0.0;
  /// Blocks batched into one WAN shipment.
  std::uint64_t batch_blocks = 64;
  /// Lag past this is a staleness violation (accounted, never enforced).
  sim::Time staleness_bound = sim::seconds(2);
};

/// Counters for one ordered (src -> dst) replication stream.
struct StreamStats {
  std::uint64_t appended = 0;      // log entries accepted
  std::uint64_t coalesced = 0;     // appends folded into a queued entry
  std::uint64_t shipped = 0;       // entries applied at the destination
  std::uint64_t failed_ships = 0;  // shipments lost to a partition
  std::uint64_t bytes_shipped = 0;
  std::uint64_t backlog = 0;       // entries currently waiting
  std::uint64_t peak_backlog = 0;
  sim::Time last_drain = 0;   // instant the backlog last returned to zero
  sim::Time max_lag = 0;      // worst apply-time staleness seen
  std::uint64_t staleness_violations = 0;
};

class Replicator {
 public:
  Replicator(Federation& fed, ReplicationParams params);
  ~Replicator();
  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  /// Spawn one shipper coroutine per ordered site pair.  Call once,
  /// before traffic starts.
  void start();

  /// A client write of [lba, lba+nblocks) committed at `site`'s primary
  /// region: queue it for every peer.  Synchronous bookkeeping only.
  void note_write(int site, std::uint64_t lba, std::uint32_t nblocks);

  const ReplicationParams& params() const { return params_; }
  const StreamStats& stream(int src, int dst) const {
    return streams_[index(src, dst)].stats;
  }
  /// Apply-time staleness of every shipped entry, ns.
  const obs::Histogram& lag() const { return lag_; }
  /// Every stream summed: counters and backlog added, peak_backlog,
  /// max_lag and last_drain maxed.  With all links healed, last_drain is
  /// when the federation's mirrors last converged.
  StreamStats totals() const;

 private:
  struct Entry {
    std::uint64_t lba = 0;
    std::uint32_t nblocks = 0;
    sim::Time appended = 0;
  };
  struct Stream {
    std::deque<Entry> queue;
    /// Queued LBA -> position-independent coalescing handle (the widest
    /// nblocks seen while queued).
    std::unordered_map<std::uint64_t, std::uint32_t> queued;
    StreamStats stats;
    /// Armed while the queue is empty; appends set it.
    std::unique_ptr<sim::Trigger> work;
    std::unique_ptr<sim::TokenBucket> throttle;
  };

  std::size_t index(int src, int dst) const {
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(sites_) +
           static_cast<std::size_t>(dst);
  }
  sim::Task<> shipper(int src, int dst);

  Federation& fed_;
  ReplicationParams params_;
  int sites_;
  std::vector<Stream> streams_;
  obs::Histogram lag_;
  bool started_ = false;
};

}  // namespace raidx::wan
