// End-to-end data integrity plane: per-block checksums, verify-on-read,
// and a throttled background scrub/repair daemon.
//
// Disks fail loudly (src/ha covers that), but 1999-era media also failed
// *silently*: a block decays in place and the drive keeps returning wrong
// bytes with a clean status.  The integrity plane closes that hole for the
// single I/O space:
//
//  * Checksum plane.  Every CDD keeps a CRC32C per block beside the data
//    it manages (disk::Device::enable_integrity), updated on the write path.
//    A payload's zero tail -- all of a zero-run -- checksums in O(log n)
//    without materializing bytes (integrity::crc32c_extend_zeros), so the
//    perf-sweep configurations that ship zero-run writes pay no per-byte
//    cost.
//  * Verify-on-read.  With IntegrityParams::verify_reads the serving CDD
//    re-checksums every read before shipping it.  A mismatch fails the
//    read (ok = false), which routes the client through the layout's
//    degraded path -- the corrupt bytes never leave the serving node, and
//    in particular can never warm a cache.
//  * Scrub daemon.  A background sweep re-reads every disk through
//    CddFabric::scrub_read (forced verification, background priority)
//    under a token-bucket byte throttle, so latent errors are found in
//    bounded time without starving foreground I/O.  Newly injected faults
//    switch the daemon into an attention loop (back-to-back passes) until
//    every outstanding error is accounted for, mirroring the recovery
//    orchestrator's idle/attention split.
//  * Repair.  Every detection is handed to the array controller's
//    repair_block: mirror re-fetch (RAID-1/10/x), parity reconstruction
//    (RAID-5), or an explicit *unrecoverable loss* verdict (RAID-0), with
//    the affected blocks listed exactly.  A disk whose detected-error
//    count crosses IntegrityParams::fail_threshold is escalated to a
//    whole-disk failure through the CDD failure-listener path, so the
//    recovery orchestrator's spare/rebuild machinery takes over.
//
// The plane is strictly opt-in: nothing here runs -- and no I/O changes
// timing by a single event -- until an IntegrityPlane is constructed and
// attached, which keeps integrity-off runs bit-identical to builds that
// predate the subsystem.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cdd/cdd.hpp"
#include "cluster/cluster.hpp"
#include "raid/controller.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "sim/token_bucket.hpp"

namespace raidx::integrity {

struct IntegrityParams {
  /// Verify every ordinary read at the serving CDD before it ships.
  bool verify_reads = false;
  /// Run the background scrub daemon.
  bool scrub = false;
  /// Scrub throttle in MB/s of scanned bytes; 0 = unthrottled.
  double scrub_rate_mbs = 4.0;
  /// Idle delay between scrub passes (and between attention retries).
  sim::Time scrub_interval = sim::seconds(1);
  /// Blocks per scrub read -- larger chunks amortize RPC framing, smaller
  /// ones interleave better with foreground traffic.
  std::uint32_t scrub_chunk_blocks = 8;
  /// Software CRC32C cost charged to the serving node's CPU (~200 MB/s,
  /// a 1999-era table-driven implementation).
  double checksum_ns_per_byte = 5.0;
  /// Escalate a disk to whole-disk failure (hot-spare / rebuild path)
  /// once this many distinct corrupt blocks have been detected on it;
  /// 0 disables escalation.
  int fail_threshold = 0;
};

/// One block the redundancy could not restore (RAID-0, or a second latent
/// error on the redundant copy).  Reported exactly, never summarized.
struct UnrecoverableBlock {
  int disk = 0;
  std::uint64_t offset = 0;
};

struct IntegrityStats {
  std::uint64_t injected = 0;           // faults announced to the plane
  std::uint64_t detected = 0;           // distinct corrupt blocks found
  std::uint64_t detected_by_read = 0;   //   ... by verify-on-read
  std::uint64_t detected_by_scrub = 0;  //   ... by a scrub sweep
  std::uint64_t repaired = 0;           // rewritten from redundancy
  std::uint64_t unrecoverable = 0;      // no redundancy covered the block
  std::uint64_t repairs_failed = 0;     // repair path threw (e.g. I/O died)
  std::uint64_t superseded = 0;         // mooted by whole-disk recovery
  std::uint64_t overwritten = 0;        // erased by new writes pre-detection
  std::uint64_t escalations = 0;        // disks failed over the threshold
  std::uint64_t scrub_passes = 0;
  std::uint64_t blocks_scrubbed = 0;
  /// Detection latency of each *injected* error that was found: the MTTD
  /// sample set (injection time to detection time).
  std::vector<sim::Time> mttd_ns;
  std::vector<UnrecoverableBlock> unrecoverable_blocks;
};

/// The integrity subsystem's spine.  Construct one over an engine to turn
/// the plane on; destruction detaches it from the CDD fabric.
class IntegrityPlane : public cdd::IntegrityHooks {
 public:
  explicit IntegrityPlane(raid::ArrayController& engine,
                          IntegrityParams params = {});
  ~IntegrityPlane() override;
  IntegrityPlane(const IntegrityPlane&) = delete;
  IntegrityPlane& operator=(const IntegrityPlane&) = delete;

  // cdd::IntegrityHooks -- called from the CDD data path.
  bool verify_reads() const override { return params_.verify_reads; }
  sim::Time checksum_cost(std::uint64_t bytes) const override {
    return static_cast<sim::Time>(params_.checksum_ns_per_byte *
                                  static_cast<double>(bytes));
  }
  void on_corruption_found(int disk, std::uint64_t offset,
                           bool by_scrub) override;

  /// Fault injection announces each corrupted block here (after flipping
  /// the media via disk::Device::corrupt), so the plane can track detection
  /// latency and -- when the scrub daemon is on -- switch to attention
  /// mode until the error is accounted for.
  void note_corruption_injected(int disk, std::uint64_t block);

  /// One full scrub sweep over every live disk, throttled.  Public so
  /// tests and benches can drive a deterministic pass; the daemon calls
  /// the same routine.
  sim::Task<> scrub_pass();

  /// Injected errors not yet detected or otherwise resolved.  The scrub
  /// soak converges when this reaches zero.
  std::uint64_t undetected() const { return undetected_; }
  /// Detected errors whose repair has not (yet) succeeded -- includes the
  /// permanently unrecoverable ones.
  std::size_t pending_repairs() const { return pending_repair_.size(); }

  const IntegrityStats& stats() const { return stats_; }
  const IntegrityParams& params() const { return params_; }
  const sim::TokenBucket* throttle() const { return throttle_.get(); }

 private:
  /// (disk, block) packed for set/map keys; blocks_per_disk stays far
  /// below 2^40 in every configuration.
  static constexpr std::uint64_t key(int disk, std::uint64_t block) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(disk))
            << 40) |
           block;
  }
  static constexpr int disk_of(std::uint64_t k) {
    return static_cast<int>(k >> 40);
  }
  static constexpr std::uint64_t block_of(std::uint64_t k) {
    return k & ((std::uint64_t{1} << 40) - 1);
  }

  sim::Task<> repair_task(int disk, std::uint64_t offset);
  /// Daemon: one throttled pass per interval while nothing is outstanding.
  sim::Task<> scrub_loop();
  /// Attention mode: back-to-back passes until every injected error is
  /// detected or reconciled away; holds the simulation open (non-daemon).
  sim::Task<> attention_loop();
  /// Drop injected errors that resolved without a detection: the block was
  /// overwritten by new writes, or its disk failed outright (whole-disk
  /// recovery rewrites everything).  Without this the attention loop would
  /// chase errors that no longer exist.
  void reconcile_injected();

  raid::ArrayController& engine_;
  cdd::CddFabric& fabric_;
  cluster::Cluster& cluster_;
  sim::Simulation& sim_;
  IntegrityParams params_;
  IntegrityStats stats_;
  std::unique_ptr<sim::TokenBucket> throttle_;
  /// key -> injection time, for errors not yet detected (MTTD source).
  std::unordered_map<std::uint64_t, sim::Time> injected_;
  /// Blocks detected and queued/failed: dedupes re-detections (a scrub
  /// pass and a verify-read can both trip on the same block, and an
  /// unrecoverable block keeps tripping every pass).
  std::unordered_set<std::uint64_t> pending_repair_;
  std::unordered_map<int, int> disk_errors_;
  std::uint64_t undetected_ = 0;
  bool attention_active_ = false;
};

}  // namespace raidx::integrity
