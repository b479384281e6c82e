// Array controllers: execute logical I/O against a layout through the CDDs.
//
// The controller plays the role of the paper's client-side driver logic: it
// splits a logical request into per-disk operations, fans them out through
// the cooperative disk drivers (local fast path or remote RPC), enforces
// write consistency via lock groups, and implements each level's redundancy
// protocol -- RAID-5 read-modify-write, RAID-10 synchronous dual writes,
// RAID-x foreground data + background clustered image flushes.
//
// Client request streaming models the 1999 Linux client stack: a request
// stream is chopped into chunks with a bounded window of outstanding chunks
// (kernel readahead / request-queue depth), which is what keeps a single
// client well below the array's aggregate bandwidth, as the paper measures.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "block/payload.hpp"
#include "cache/cache_fabric.hpp"
#include "cdd/cdd.hpp"
#include "obs/obs.hpp"
#include "raid/admission.hpp"
#include "raid/layout.hpp"
#include "raid/raid0.hpp"
#include "raid/raid1.hpp"
#include "raid/raid10.hpp"
#include "raid/raid5.hpp"
#include "raid/raidx.hpp"
#include "sim/join.hpp"
#include "sim/task.hpp"

namespace raidx::sim {
class TokenBucket;  // sim/token_bucket.hpp; only rebuild sweeps touch it
}

namespace raidx::raid {

struct EngineParams {
  /// Blocks per read chunk issued by a client stream.
  std::uint32_t read_chunk_blocks = 1;
  /// Outstanding read chunks per stream (readahead window).
  int read_window = 2;
  /// Outstanding write chunks per stream.
  int write_window = 2;
  /// Acquire lock-group write locks around writes (the consistency module).
  bool use_locks = true;
  /// RAID-5: fetch and check parity on reads (Table 1: "parity checks").
  /// Off by default (md-style reads); on as an ablation.
  bool verify_parity_on_read = false;
  /// RAID-5: assemble full-stripe writes to skip read-modify-write.  A
  /// 1999 driver with 16 x 32 KB = 512 KB stripes could not aggregate that
  /// much per request (128 KB request-merge ceiling), so the faithful
  /// default is per-block RMW; flip on as a modern-aggregation ablation.
  bool raid5_full_stripe_writes = false;
  /// RAID-x: flush mirror images in the background (OSM).  Off = ablation:
  /// images written synchronously in the foreground.
  bool background_mirrors = true;
  /// RAID-x: cluster a stripe's images into one long write.  Off =
  /// ablation: n-1 scattered single-block image writes (chained-
  /// declustering style placement cost).
  bool clustered_images = true;
  /// RAID-1/10/x: spread reads over primary and mirror copies.
  bool balance_mirror_reads = false;
  /// RAID-1/10/x hybrid (HDA-style) placement: primaries on the top half
  /// of the disk rows (SSD in a heterogeneous cluster), mirror images on
  /// the bottom half (HDD).  Requires an even disks_per_node.
  bool hybrid_mirrors = false;
  /// Client-side XOR cost for parity math (400 MHz-era ~10 ns/byte).
  double xor_ns_per_byte = 10.0;
};

// IoError / AdmissionError / AdmissionGate live in raid/admission.hpp.

/// Observer of committed client writes -- the WAN federation's
/// replication log hangs here.  Implementations are synchronous
/// bookkeeping only (no awaits, no simulation events), so a null
/// observer -- the default -- leaves the event sequence bit-identical.
class WriteObserver {
 public:
  virtual ~WriteObserver() = default;
  /// write() of [lba, lba+nblocks) by `client` just committed.
  virtual void on_client_write(int client, std::uint64_t lba,
                               std::uint32_t nblocks) = 0;
};

/// The block-level API workloads program against -- a logical volume
/// addressed in blocks, usable from any client node -- and the common
/// machinery of the layout-backed controllers.
class ArrayController {
 public:
  ArrayController(cdd::CddFabric& fabric, EngineParams params);
  virtual ~ArrayController() = default;
  ArrayController(const ArrayController&) = delete;
  ArrayController& operator=(const ArrayController&) = delete;

  std::string name() const { return layout().name(); }
  std::uint64_t logical_blocks() const { return layout().logical_blocks(); }
  std::uint32_t block_bytes() const {
    return fabric_.cluster().geometry().block_bytes;
  }
  /// The simulation this engine's world lives in (for layers above that
  /// need timers/locks, e.g. the file system).
  sim::Simulation& simulation() { return fabric_.cluster().sim(); }

  /// Read blocks [lba, lba+nblocks) into `out` (size nblocks*block_bytes),
  /// on behalf of node `client`.  `out` must outlive the task.  `ctx`
  /// links the request into an active trace; an empty context starts a
  /// new root span when tracing is on.
  sim::Task<> read(int client, std::uint64_t lba, std::uint32_t nblocks,
                   std::span<std::byte> out, obs::TraceContext ctx = {});

  /// Write `data` (whole blocks) at `lba` on behalf of node `client`.
  /// The Payload overload is the real path: slicing it across disks and
  /// mirrors is O(1) and shares storage.  The span overload copies once
  /// into a Payload and forwards.
  sim::Task<> write(int client, std::uint64_t lba, block::Payload data,
                    obs::TraceContext ctx = {});
  sim::Task<> write(int client, std::uint64_t lba,
                    std::span<const std::byte> data,
                    obs::TraceContext ctx = {}) {
    return write(client, lba, block::Payload::copy(data), ctx);
  }

  virtual const Layout& layout() const = 0;

  cdd::CddFabric& fabric() { return fabric_; }
  const EngineParams& params() const { return params_; }

  /// Attach a cooperative block-cache fabric in front of this engine.  An
  /// attached fabric with capacity 0 is treated as absent, which keeps the
  /// event sequence bit-identical to a cacheless build.
  void attach_cache(cache::CacheFabric* cache);
  cache::CacheFabric* cache() { return cache_; }
  /// Hint from the file-system layer: blocks [lo, hi) are metadata and
  /// should be evicted last.  No-op without an attached cache.
  void set_cache_pinned_range(std::uint64_t lo, std::uint64_t hi);
  /// Write every dirty cached block back through the redundancy path
  /// (write-back caches; no-op otherwise).
  sim::Task<> flush_cache();

  /// Background (deferred) operations currently in flight -- nonzero only
  /// for RAID-x with background mirroring.
  int background_in_flight() const { return background_in_flight_; }

  /// Gate every logical read/write through an admission controller (null,
  /// the default, leaves the entry paths untouched and bit-identical).
  /// The gate is borrowed, not owned; internal traffic -- rebuild sweeps,
  /// cache write-back, scrub repair -- enters below this hook and is never
  /// gated.
  void set_admission(AdmissionGate* gate) { admission_ = gate; }
  AdmissionGate* admission() const { return admission_; }

  /// Notify `obs` after every successful top-level client write().
  /// Internal traffic -- rebuild sweeps, cache write-back, scrub repair,
  /// replication apply into mirror regions -- never fires it.  The
  /// observer is borrowed, not owned; null (the default) disables it.
  void set_write_observer(WriteObserver* obs) { write_observer_ = obs; }

  /// Restore a replaced disk's contents from redundancy: sweep the
  /// layout's rebuild rows, each under the lock groups of the blocks it
  /// restores.  Fails with IoError when the layout has no redundancy
  /// (RAID-0), or when a source or the replacement itself fails mid-sweep.
  /// `max_offset` bounds the rows swept, in the layout's own geometry
  /// units; the default covers the whole disk.
  sim::Task<> rebuild_disk(int client, int disk_id,
                           std::uint64_t max_offset = ~0ull);

  /// Repair one physically-addressed block whose stored bytes failed
  /// checksum verification: re-derive its correct contents from the
  /// layout's redundancy (mirror image, chained copy, parity XOR) and
  /// rewrite it, under the same lock group a client write of the block
  /// would take -- so repair is byte-exact even against concurrent
  /// writers.  Returns true when repaired; false when the layout has no
  /// redundancy covering the block (RAID-0's explicit *unrecoverable loss*
  /// verdict) or when a redundant source is itself unavailable.
  sim::Task<bool> repair_block(int client, int disk_id, std::uint64_t offset);

  /// Cap rebuild-sweep write bandwidth with a token bucket (tokens are
  /// bytes).  Null (the default) removes the cap and leaves the sweep's
  /// event sequence bit-identical to pre-throttle builds.  The bucket is
  /// borrowed, not owned; the caller keeps it alive across the sweep.
  void set_rebuild_throttle(sim::TokenBucket* bucket) {
    rebuild_throttle_ = bucket;
  }
  /// Bytes written by rebuild sweeps over this controller's lifetime.
  std::uint64_t rebuild_bytes_written() const { return rebuild_bytes_; }

  /// Place data (and redundancy) directly into the disks' byte stores with
  /// no simulated time -- test/benchmark setup, not an I/O path.
  virtual void preload(std::uint64_t lba, std::span<const std::byte> data);

 protected:
  /// One read chunk: contiguous logical blocks, bounded size.  With
  /// balance_mirror_reads, extents at odd physical offsets read the first
  /// mirror instead, on layouts whose mirror runs are contiguous (RAID-1,
  /// RAID-10).
  virtual sim::Task<> read_chunk(int client, std::uint64_t lba,
                                 std::uint32_t nblocks,
                                 std::span<std::byte> out,
                                 obs::TraceContext ctx = {});
  /// balance_mirror_reads: move the odd-offset extents of a read onto
  /// their first mirror, where the layout's mirror runs are contiguous.
  void balance_onto_mirrors(std::vector<MappedExtent>& extents) const;
  /// One write chunk: at most one stripe, stripe-aligned when full.
  /// `prio` is kForeground on the client write path and kBackground when
  /// the cache flusher drains dirty blocks behind foreground traffic.  The
  /// base writes every copy of each block synchronously (RAID-1 pairs,
  /// RAID-10's chained backups) and fails only a block that lost them all.
  virtual sim::Task<> write_chunk(int client, std::uint64_t lba,
                                  block::Payload data,
                                  disk::IoPriority prio,
                                  obs::TraceContext ctx = {});

  /// Node whose cache fronts requests from `client`.  Per-client caches by
  /// default; NFS overrides with the server node (server-side cache).
  virtual int cache_node(int client) const { return client; }

  /// read_chunk with the cache in front: serve hits from local or peer
  /// memory, read the missing runs through the layout's chunk path, then
  /// install them.
  sim::Task<> cached_read_chunk(int client, std::uint64_t lba,
                                std::uint32_t nblocks,
                                std::span<std::byte> out,
                                obs::TraceContext ctx = {});
  /// write_chunk with the cache in front: update/invalidate copies, then
  /// either write through or absorb (write-back).
  sim::Task<> cached_write_chunk(int client, std::uint64_t lba,
                                 block::Payload data,
                                 obs::TraceContext ctx = {});

  /// Flush one dirty block under its lock group; false if the disk write
  /// failed (the block stays dirty, the cache holds the only copy).
  sim::Task<bool> flush_block(int node, std::uint64_t lba);
  sim::Task<> flusher_loop(int node);
  void ensure_flusher(int node);

  /// Wrapper that tracks background_in_flight_ (RAID-x image flushes and
  /// cache write-back both run under it).
  sim::Task<> background(sim::Task<> op);

  /// The bytes of a still-in-flight deferred image flush of `lba`, which
  /// are fresher than the image disk (RAID-x only; null elsewhere).
  virtual const block::Payload* pending_image(std::uint64_t lba) const {
    (void)lba;
    return nullptr;
  }

  /// Charge client CPU for XOR work over `bytes`.
  sim::Task<> xor_cpu(int client, std::uint64_t bytes);

  /// Read a contiguous physical extent, retrying per-block through
  /// degraded_read_block on disk failure.  Results land in `out` at the
  /// positions given by the extent's logical blocks relative to chunk_lba.
  sim::Task<> read_extent_into(int client, block::PhysExtent extent,
                               std::span<const std::uint64_t> lbas,
                               std::uint64_t chunk_lba,
                               std::span<std::byte> out,
                               obs::TraceContext ctx = {});

  sim::Simulation& sim() { return fabric_.cluster().sim(); }

  cdd::CddFabric& fabric_;
  EngineParams params_;
  AdmissionGate* admission_ = nullptr;
  WriteObserver* write_observer_ = nullptr;
  int background_in_flight_ = 0;
  sim::TokenBucket* rebuild_throttle_ = nullptr;
  std::uint64_t rebuild_bytes_ = 0;
  cache::CacheFabric* cache_ = nullptr;
  /// Per-node "a flusher task is running" flags (write-back draining).
  std::vector<char> flusher_active_;

  /// Gather the chunk blocks listed in `lbas` out of `data` (block-indexed
  /// relative to chunk_lba) into one payload.  A contiguous ascending run
  /// -- the overwhelmingly common case -- is an O(1) slice; strided
  /// gathers (e.g. RAID-0 extents that merge every width-th block)
  /// materialize, and zero-runs stay zero-runs either way.
  static block::Payload gather(const block::Payload& data,
                               std::span<const std::uint64_t> lbas,
                               std::uint64_t chunk_lba, std::uint32_t bs);

 private:
  sim::Task<> windowed_op(sim::Task<> op, sim::Resource& window,
                          sim::Latch& done, std::exception_ptr& error,
                          obs::TraceContext ctx = {});

  /// Recover the block whose copy at `failed` could not be read, from the
  /// slot's sources; throws IoError when none is readable.
  sim::Task<block::Payload> degraded_read_block(int client,
                                                block::PhysBlock failed,
                                                obs::TraceContext ctx = {});

  /// How recover() reads a slot's sources.
  enum class Fetch {
    kSweep,     ///< rebuild: one at a time, background priority
    kScrub,     ///< repair: like kSweep, with forced verification
    kDegraded,  ///< client read: foreground, XOR peers in parallel
  };
  /// The bytes of a slot re-derived from its sources, or nullopt when a
  /// needed source is unreadable (or the slot has none).
  sim::Task<std::optional<block::Payload>> recover(int client,
                                                   SlotSource src, Fetch how,
                                                   obs::TraceContext ctx);

  /// Run `body` holding the lock groups `groups` (sorted, unique) when
  /// locks are on.  The groups are released even when `body` throws; the
  /// exception then propagates.
  sim::Task<> with_locks(int client, std::vector<std::uint64_t> groups,
                         sim::Task<> body, obs::TraceContext ctx);
  /// One rebuild row: restore each target extent from its slots' sources
  /// and write it to the replacement as one write.
  sim::Task<> restore_row(int client, std::vector<block::PhysExtent> targets,
                          std::vector<SlotSource> slots,
                          obs::TraceContext ctx);
  /// Account `bytes` of rebuild writes and, when a throttle is attached,
  /// wait for that many tokens.
  sim::Task<> rebuild_throttle_gate(std::uint64_t bytes);
  /// Repair's locked step: recover the slot and rewrite it; `*ok` reports
  /// whether the rewrite landed.
  sim::Task<> repair_slot(int client, block::PhysBlock slot, SlotSource src,
                          bool* ok, obs::TraceContext ctx);
};

class Raid0Controller : public ArrayController {
 public:
  Raid0Controller(cdd::CddFabric& fabric, EngineParams params = {});
  const Layout& layout() const override { return layout_; }

 protected:
  sim::Task<> write_chunk(int client, std::uint64_t lba,
                          block::Payload data, disk::IoPriority prio,
                          obs::TraceContext ctx = {}) override;

 private:
  Raid0Layout layout_;
};

class Raid5Controller : public ArrayController {
 public:
  Raid5Controller(cdd::CddFabric& fabric, EngineParams params = {});
  const Layout& layout() const override { return layout_; }
  const Raid5Layout& raid5() const { return layout_; }

  /// Direct placement must also keep parity consistent.
  void preload(std::uint64_t lba, std::span<const std::byte> data) override;

 protected:
  sim::Task<> read_chunk(int client, std::uint64_t lba, std::uint32_t nblocks,
                         std::span<std::byte> out,
                         obs::TraceContext ctx = {}) override;
  sim::Task<> write_chunk(int client, std::uint64_t lba,
                          block::Payload data, disk::IoPriority prio,
                          obs::TraceContext ctx = {}) override;

 private:
  /// Full-stripe write: XOR parity client-side, one write per disk.
  sim::Task<> full_stripe_write(int client, std::uint64_t stripe,
                                const block::Payload& data,
                                disk::IoPriority prio,
                                obs::TraceContext ctx = {});
  /// Partial write inside one stripe: read-modify-write.
  sim::Task<> rmw_write(int client, std::uint64_t lba,
                        block::Payload data, disk::IoPriority prio,
                        obs::TraceContext ctx = {});

  Raid5Layout layout_;
};

class Raid10Controller : public ArrayController {
 public:
  Raid10Controller(cdd::CddFabric& fabric, EngineParams params = {});
  const Layout& layout() const override { return layout_; }

 private:
  Raid10Layout layout_;
};

/// Mirrored pairs (the conclusion's "we will also consider RAID-1").
/// Writes hit both copies synchronously at the same offset; reads can
/// balance over the pair.
class Raid1Controller : public ArrayController {
 public:
  Raid1Controller(cdd::CddFabric& fabric, EngineParams params = {});
  const Layout& layout() const override { return layout_; }

 private:
  Raid1Layout layout_;
};

class RaidxController : public ArrayController {
 public:
  RaidxController(cdd::CddFabric& fabric, EngineParams params = {});
  const Layout& layout() const override { return layout_; }
  const RaidxLayout& raidx() const { return layout_; }

 protected:
  /// With balance_mirror_reads, single-block reads alternate between the
  /// data block and its image -- the "I/O load balancing" the paper's
  /// next-phase file system targets.  Multi-block chunks always read the
  /// data stripe: a stripe's images are clustered on ONE disk, so routing
  /// a whole stripe at them would serialize what striping parallelizes.
  /// Returns the base chunk read itself, with no frame of its own, unless
  /// it balances.
  sim::Task<> read_chunk(int client, std::uint64_t lba, std::uint32_t nblocks,
                         std::span<std::byte> out,
                         obs::TraceContext ctx = {}) override;
  sim::Task<> write_chunk(int client, std::uint64_t lba,
                          block::Payload data, disk::IoPriority prio,
                          obs::TraceContext ctx = {}) override;

  /// Deferred image flushes (the OSM trick) run at background priority
  /// AFTER the client's write has returned and released its locks, so the
  /// on-disk image trails the data copy by up to one write.  Healthy reads
  /// never notice -- they read data copies -- but the recovery paths
  /// (degraded reads, rebuild and repair of a data slot) read images and
  /// MUST prefer this buffer, or a client that just wrote a block can read
  /// its previous contents back through the degraded path.  Healthy paths
  /// deliberately do not consult it: serving a disk read from memory would
  /// shift fault-free timings (and the committed baselines).
  const block::Payload* pending_image(std::uint64_t lba) const override {
    const auto it = pending_images_.find(lba);
    return it == pending_images_.end() ? nullptr : &it->second.data;
  }

 private:
  /// The balanced single-block read: block `lba` from whichever copy its
  /// parity picks.
  sim::Task<> read_balanced_block(int client, std::uint64_t lba,
                                  std::span<std::byte> out,
                                  obs::TraceContext ctx);
  /// Flush a full stripe's images: one clustered run + one neighbor block.
  sim::Task<> flush_stripe_images(int client, std::uint64_t stripe,
                                  block::Payload stripe_data,
                                  obs::TraceContext ctx = {});
  /// Flush a single block's image.
  sim::Task<> flush_block_image(int client, std::uint64_t lba,
                                block::Payload data,
                                obs::TraceContext ctx = {});

  struct PendingImage {
    std::uint64_t seq;  // newest write wins; stale flushes don't erase
    block::Payload data;
  };
  std::unordered_map<std::uint64_t, PendingImage> pending_images_;
  std::uint64_t pending_image_seq_ = 0;

  RaidxLayout layout_;
};

}  // namespace raidx::raid
