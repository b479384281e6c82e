// Page-mapped flash device behind the disk::Device interface.
//
// One logical block is one flash page.  The FTL keeps a logical-to-physical
// page map, erase-block pools with per-block valid-page counts, and an
// over-provisioned physical space; writes always go to the open append
// point (no update in place), invalidating the previous mapping.  When the
// free-block pool drains below a watermark, a background garbage collector
// picks victims (greedy min-valid or cost-benefit), copies their live
// pages, and erases them -- charging real copyback and erase time on the
// device's service resource at background priority, so foreground reads
// queue behind GC exactly the way real SSDs stall.  That queueing is the
// whole point of the model: flash has no seek or rotation, its tail
// latency is GC.
//
// Everything is deterministic -- victim choice breaks ties by block index,
// the append point advances in allocation order, and there is no RNG --
// so runs are reproducible and CI can gate snapshots bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "disk/device.hpp"
#include "disk/scsi_bus.hpp"
#include "obs/obs.hpp"
#include "sim/event_queue.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"

namespace raidx::flash {

enum class GcPolicy {
  /// Victim = fewest valid pages (lowest copy cost right now).
  kGreedy,
  /// Victim = max (1-u)/(2u) * age (Rosenblum/Kawaguchi): prefers cold
  /// blocks whose remaining valid pages are unlikely to self-invalidate.
  kCostBenefit,
};

/// Timing and FTL parameters, modeled on a mid-range SATA SSD.  The
/// defaults keep the flash device roughly 10x the spindle on small random
/// I/O while GC is idle.
struct FlashParams {
  std::uint32_t pages_per_block = 64;
  /// Physical capacity beyond the advertised logical space.  More spare
  /// blocks mean emptier victims, fewer copybacks, lower write
  /// amplification -- the knob the gc_tail bench sweeps.
  double over_provision = 0.07;
  sim::Time read_latency = sim::microseconds(60);
  sim::Time program_latency = sim::microseconds(200);
  sim::Time erase_latency = sim::milliseconds(2.0);
  double channel_rate_mbs = 200.0;
  sim::Time controller_overhead = sim::microseconds(20);
  GcPolicy gc_policy = GcPolicy::kGreedy;
  /// Background GC starts when the free pool falls to this fraction of all
  /// erase blocks, and runs until it climbs back to the high watermark.
  double gc_low_watermark = 0.05;
  double gc_high_watermark = 0.10;
};

class SsdDevice : public disk::Device {
 public:
  SsdDevice(sim::Simulation& sim, disk::DeviceGeometry geo,
            FlashParams params, int id, disk::ScsiBus* bus = nullptr);

  sim::Task<> io(disk::IoKind kind, std::uint64_t block,
                 std::uint32_t nblocks,
                 disk::IoPriority prio = disk::IoPriority::kForeground,
                 obs::TraceContext ctx = {}) override;

  disk::DeviceClass device_class() const override {
    return disk::DeviceClass::kSsd;
  }
  sim::Time busy_time() const override { return queue_.busy_time(); }

  /// Replace with a blank device: fresh FTL, empty map, all blocks free.
  void replace() override;

  const FlashParams& params() const { return params_; }

  // FTL observability (exported as flash.* registry keys).
  std::uint64_t host_pages_written() const { return host_pages_written_; }
  std::uint64_t flash_pages_written() const { return flash_pages_written_; }
  std::uint64_t gc_runs() const { return gc_runs_; }
  std::uint64_t gc_erases() const { return gc_erases_; }
  std::uint64_t gc_pages_copied() const { return gc_pages_copied_; }
  std::uint64_t gc_write_stalls() const { return gc_write_stalls_; }
  /// Total time GC held the service resource (copyback + erase).
  sim::Time gc_busy_time() const { return gc_busy_; }
  /// Longest single GC arm hold -- the worst pause a foreground request
  /// could have queued behind.
  sim::Time gc_max_pause() const { return gc_max_pause_; }
  std::size_t free_blocks() const { return free_blocks_.size(); }
  std::size_t min_free_blocks() const { return min_free_blocks_; }
  std::size_t erase_blocks() const { return valid_count_.size(); }
  /// flash_pages_written / host_pages_written; >= 1 by construction, 1.0
  /// exactly until the first copyback.
  double write_amplification() const {
    return host_pages_written_ == 0
               ? 1.0
               : static_cast<double>(flash_pages_written_) /
                     static_cast<double>(host_pages_written_);
  }

 private:
  static constexpr std::uint32_t kUnmapped = 0xffffffffu;

  void reset_ftl();
  /// Pages still writable without reclaiming: open-block room + free pool.
  std::uint64_t writable_pages() const;
  /// Append-point allocation for one logical page; invalidates the old
  /// physical page.  Requires writable_pages() > 0.
  void map_write(std::uint64_t lpage);
  /// Best victim under the configured policy, or kUnmapped when no block
  /// has anything to reclaim.  Never picks the open block or a free block.
  std::uint32_t pick_victim() const;
  /// Copy the victim's live pages to the append point and erase it.
  /// Charges copyback + erase time; the caller must hold the service
  /// resource.
  sim::Task<> collect(std::uint32_t victim);
  /// Background collector: runs victims one arm-hold at a time until the
  /// free pool is back above the high watermark.
  sim::Task<> gc_loop();

  std::size_t low_watermark_blocks() const;
  std::size_t high_watermark_blocks() const;

  sim::Simulation& sim_;
  FlashParams params_;
  disk::ScsiBus* bus_;
  sim::Resource queue_;  // the channel/controller: capacity 1, 2 priorities
  obs::BusyRecorder busy_rec_;
  obs::DepthRecorder depth_rec_;

  // FTL state.
  std::vector<std::uint32_t> l2p_;          // logical page -> physical page
  std::vector<std::uint32_t> p2l_;          // physical page -> logical page
  std::vector<std::uint32_t> valid_count_;  // per erase block
  std::vector<sim::Time> last_write_;       // per erase block (cost-benefit)
  std::vector<std::uint32_t> erase_count_;  // per erase block
  std::set<std::uint32_t> free_blocks_;     // ordered: lowest index first
  std::uint32_t open_block_ = 0;
  std::uint32_t write_ptr_ = 0;  // next page slot within open_block_
  bool gc_active_ = false;

  std::uint64_t host_pages_written_ = 0;
  std::uint64_t flash_pages_written_ = 0;
  std::uint64_t gc_runs_ = 0;
  std::uint64_t gc_erases_ = 0;
  std::uint64_t gc_pages_copied_ = 0;
  std::uint64_t gc_write_stalls_ = 0;
  sim::Time gc_busy_ = 0;
  sim::Time gc_max_pause_ = 0;
  std::size_t min_free_blocks_ = 0;
};

}  // namespace raidx::flash
