// Storage-device abstraction: the timing/storage/fault surface that the
// CDD, the layouts, HA, and the integrity plane consume.
//
// Two implementations exist: the mechanical spindle (disk::Disk, the
// paper's 1999 Ultra-SCSI model) and the page-mapped flash device
// (flash::SsdDevice).  The split keeps the *functional* plane -- byte
// storage, checksums, fault injection, the rebuild frontier -- in the base
// class, identical for every device class, while the *timing* plane
// (Device::io) is what distinguishes a spindle from an SSD.  Extracting
// the interface must be free: a cluster built from Disks behaves
// bit-identically to the pre-extraction code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "block/payload.hpp"
#include "obs/obs.hpp"
#include "sim/event_queue.hpp"
#include "sim/task.hpp"

namespace raidx::disk {

enum class IoKind { kRead, kWrite };

/// Foreground requests overtake queued background (mirror-update) work.
enum class IoPriority : int { kForeground = 0, kBackground = 1 };

/// What kind of hardware sits behind a Device.  Heterogeneous arrays mix
/// classes within one cluster; HA spare pools are segregated by class (an
/// HDD spare cannot stand in for a failed SSD).
enum class DeviceClass { kHdd, kSsd };

inline const char* to_string(DeviceClass c) {
  return c == DeviceClass::kHdd ? "hdd" : "ssd";
}

/// The functional-plane parameters every device shares, independent of its
/// timing model.
struct DeviceGeometry {
  std::uint32_t block_bytes = 4096;
  std::uint64_t total_blocks = 2'621'440;  // 10 GB of 4 KB blocks
  /// When false, write_data discards contents and read_data returns zeros.
  /// Timing is unaffected; large performance sweeps use this so simulating
  /// gigabytes of traffic does not allocate gigabytes of host memory.
  bool store_data = true;
};

class DiskFailedError : public std::runtime_error {
 public:
  explicit DiskFailedError(int disk_id)
      : std::runtime_error("disk " + std::to_string(disk_id) + " failed"),
        disk_id(disk_id) {}
  int disk_id;
};

class Device {
 public:
  Device(DeviceGeometry geo, int id) : geo_(geo), id_(id) {}
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;
  virtual ~Device() = default;

  /// Perform the timing of one contiguous request.  Throws DiskFailedError
  /// if the device is failed.  Does not touch stored data; callers pair it
  /// with read_data/write_data as appropriate.  `ctx` links the request
  /// into an active trace (no-op when tracing is off).
  virtual sim::Task<> io(IoKind kind, std::uint64_t block,
                         std::uint32_t nblocks,
                         IoPriority prio = IoPriority::kForeground,
                         obs::TraceContext ctx = {}) = 0;

  virtual DeviceClass device_class() const = 0;

  /// Time the device's service resource spent occupied.
  virtual sim::Time busy_time() const = 0;

  /// Functional storage access (no simulated time).  Each stored block is
  /// a one-block slice of the written payload, so a cache entry, a data
  /// copy and its mirror copies can all share one immutable buffer; the
  /// span overload copies into a fresh payload first.
  void write_data(std::uint64_t block, std::span<const std::byte> data);
  void write_data(std::uint64_t block, const block::Payload& data);
  std::vector<std::byte> read_data(std::uint64_t block,
                                   std::uint32_t nblocks) const;
  /// read_data without materializing: a one-block read returns the stored
  /// slice itself, and store_data=false (and blocks never written) come
  /// back as a zero-run with no storage behind it.
  block::Payload read_payload(std::uint64_t block,
                              std::uint32_t nblocks) const;

  /// Fault injection.
  void fail() { failed_ = true; }
  /// Replace with a blank device (rebuild then restores contents).
  /// Overrides reset their timing state (head position, page map) and
  /// must call the base to clear the functional plane.
  virtual void replace();
  bool failed() const { return failed_; }

  // ------------------------------------------------------------------ //
  // Integrity plane (src/integrity): per-block checksums kept beside the
  // data, plus a latent-error model for silent corruption.  All purely
  // functional -- no simulated time -- so a build that never enables
  // integrity is bit-identical to one that predates it.

  /// Start keeping CRC32C sums for this device's blocks.  Blocks already
  /// stored (preload before the plane attaches) are summed now; later
  /// write_data calls maintain the sums incrementally.  Idempotent.
  void enable_integrity();

  /// Inject silent corruption into one block: mark its media as rotten
  /// and, when bytes are stored, flip one of them so reads really return
  /// wrong data.  The checksum is NOT updated -- that is the point.  The
  /// flip lands in a private copy: the stored slice may be shared with
  /// other copies of the block, which must not rot with it.
  void corrupt(std::uint64_t block);
  bool corrupted(std::uint64_t block) const {
    return corrupted_.count(block) != 0;
  }

  /// True when the block has been written since integrity was enabled (a
  /// stored sum exists).  Absent sums mean "never written": the expected
  /// content is zeros, so repair can restore it without redundancy.
  bool has_checksum(std::uint64_t block) const {
    return sums_.count(block) != 0;
  }

  /// Verify [block, block+n): append every block whose bytes do not match
  /// its checksum to `bad`.  Pure-timing devices (store_data=false) have
  /// no bytes to hash, so detection rides the latent-error marks alone.
  /// No-op until enable_integrity().
  void verify_blocks(std::uint64_t block, std::uint32_t nblocks,
                     std::vector<std::uint64_t>& bad) const;

  /// Rebuild frontier: while a rebuild sweep is active, blocks at or above
  /// the watermark have not been restored yet and must not serve reads
  /// (the CDD routes them to the degraded path instead).  Writes are
  /// always allowed: they carry current data and the sweep's later
  /// reconstruction writes the same bytes back.
  void begin_rebuild() {
    rebuilding_ = true;
    rebuild_watermark_ = 0;
  }
  void advance_rebuild(std::uint64_t watermark) {
    rebuild_watermark_ = watermark;
  }
  void finish_rebuild() { rebuilding_ = false; }
  bool rebuilding() const { return rebuilding_; }
  std::uint64_t rebuild_watermark() const { return rebuild_watermark_; }

  /// Can a read of [block, block+n) be served from this device right now?
  bool readable(std::uint64_t block, std::uint32_t nblocks) const {
    if (failed_) return false;
    if (rebuilding_ && block + nblocks > rebuild_watermark_) return false;
    return true;
  }

  int id() const { return id_; }
  /// Reassign the device's identity.  The Cluster calls this once after
  /// construction to replace the node-local diagnostic id with the global
  /// disk index, so trace/timeline tracks and registry counters agree.
  void set_id(int id) { id_ = id; }

  std::uint32_t block_bytes() const { return geo_.block_bytes; }
  std::uint64_t total_blocks() const { return geo_.total_blocks; }
  bool store_data() const { return geo_.store_data; }

  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }
  std::uint64_t bytes_read() const { return bytes_read_; }
  std::uint64_t bytes_written() const { return bytes_written_; }

 protected:
  DeviceGeometry geo_;
  int id_;
  bool failed_ = false;
  bool rebuilding_ = false;
  std::uint64_t rebuild_watermark_ = 0;

  /// One-block payload slices.  A slice keeps its whole write buffer
  /// alive until every block of that write has been overwritten.
  std::unordered_map<std::uint64_t, block::Payload> blocks_;

  /// Integrity state (populated only after enable_integrity()).
  bool integrity_enabled_ = false;
  std::uint32_t zero_block_crc_ = 0;  // CRC32C of one all-zero block
  std::unordered_map<std::uint64_t, std::uint32_t> sums_;
  std::unordered_set<std::uint64_t> corrupted_;

  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_written_ = 0;
};

}  // namespace raidx::disk
