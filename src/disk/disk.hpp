// Single-disk spindle model: timing, byte storage, and fault injection.
//
// Timing follows the classic mechanical decomposition (controller overhead +
// seek + rotational latency + media transfer) with sequential-access
// detection: a request starting where the previous one ended pays neither
// seek nor rotational latency.  That asymmetry is what makes RAID-x's
// *clustered* mirror images (one long sequential background write) cheaper
// than chained declustering's scattered mirror writes, so it is the single
// most important property of this model.
//
// The functional plane (byte storage, checksums, fault injection, the
// rebuild frontier) lives in disk::Device, shared with flash::SsdDevice;
// this class contributes only the mechanical timing.  Stored bytes let the
// test suite verify layout correctness (round trips, degraded reads,
// rebuilds) rather than timing alone.  Unwritten blocks read as zeroes,
// like a fresh disk.
#pragma once

#include <cstddef>
#include <cstdint>

#include "disk/device.hpp"
#include "disk/scsi_bus.hpp"
#include "obs/obs.hpp"
#include "sim/event_queue.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"

namespace raidx::disk {

/// Parameters modeled on a 10 GB, 7200 rpm Ultra-SCSI disk of the Trojans
/// cluster era (1999).
struct DiskParams {
  std::uint32_t block_bytes = 4096;
  std::uint64_t total_blocks = 2'621'440;  // 10 GB of 4 KB blocks
  double media_rate_mbs = 18.0;
  double rpm = 7200.0;
  sim::Time track_to_track_seek = sim::milliseconds(1.0);
  sim::Time full_stroke_seek = sim::milliseconds(16.0);
  sim::Time controller_overhead = sim::microseconds(300);
  /// When false, write_data discards contents and read_data returns zeros.
  /// Timing is unaffected; large performance sweeps use this so simulating
  /// gigabytes of traffic does not allocate gigabytes of host memory.
  bool store_data = true;

  sim::Time avg_rotational_latency() const {
    return sim::seconds(60.0 / rpm / 2.0);
  }

  DeviceGeometry geometry() const {
    return DeviceGeometry{block_bytes, total_blocks, store_data};
  }
};

class Disk : public Device {
 public:
  Disk(sim::Simulation& sim, DiskParams params, int id,
       ScsiBus* bus = nullptr);

  sim::Task<> io(IoKind kind, std::uint64_t block, std::uint32_t nblocks,
                 IoPriority prio = IoPriority::kForeground,
                 obs::TraceContext ctx = {}) override;

  DeviceClass device_class() const override { return DeviceClass::kHdd; }

  /// Replace with a blank disk (rebuild then restores contents).
  void replace() override;

  const DiskParams& params() const { return params_; }

  sim::Time busy_time() const override { return queue_.busy_time(); }

  /// Pure timing helper (no queueing): service time of one request given
  /// the head position; exposed for the analytic model and unit tests.
  sim::Time service_time(std::uint64_t block, std::uint32_t nblocks,
                         bool sequential) const;

 private:
  sim::Time seek_time(std::uint64_t from, std::uint64_t to) const;

  sim::Simulation& sim_;
  DiskParams params_;
  ScsiBus* bus_;
  sim::Resource queue_;  // the disk arm: capacity 1, 2 priority classes
  obs::BusyRecorder busy_rec_;
  obs::DepthRecorder depth_rec_;
  std::uint64_t head_pos_ = 0;
};

}  // namespace raidx::disk
