#include "disk/disk.hpp"

#include <cassert>
#include <cmath>

namespace raidx::disk {

Disk::Disk(sim::Simulation& sim, DiskParams params, int id, ScsiBus* bus)
    : Device(params.geometry(), id),
      sim_(sim),
      params_(params),
      bus_(bus),
      queue_(sim, /*capacity=*/1, /*priority_levels=*/2) {}

sim::Time Disk::seek_time(std::uint64_t from, std::uint64_t to) const {
  if (from == to) return 0;
  const double dist = static_cast<double>(from > to ? from - to : to - from) /
                      static_cast<double>(params_.total_blocks);
  // Square-root seek curve: short seeks dominated by settle time, long seeks
  // by arm acceleration (Ruemmler & Wilkes style approximation).
  const double span = static_cast<double>(params_.full_stroke_seek -
                                          params_.track_to_track_seek);
  return params_.track_to_track_seek +
         static_cast<sim::Time>(span * std::sqrt(dist));
}

sim::Time Disk::service_time(std::uint64_t block, std::uint32_t nblocks,
                             bool sequential) const {
  sim::Time t = params_.controller_overhead;
  if (!sequential) {
    t += seek_time(head_pos_, block);
    t += params_.avg_rotational_latency();
  }
  t += sim::transfer_time(
      static_cast<std::uint64_t>(nblocks) * params_.block_bytes,
      params_.media_rate_mbs);
  return t;
}

sim::Task<> Disk::io(IoKind kind, std::uint64_t block, std::uint32_t nblocks,
                     IoPriority prio, obs::TraceContext ctx) {
  if (failed_) throw DiskFailedError(id_);
  assert(block + nblocks <= params_.total_blocks);

  // Queue depth at arrival: requests ahead of us plus the one in service.
  depth_rec_.record(
      sim_, obs::Track::kDisk, id_,
      static_cast<std::int64_t>(queue_.queued() + queue_.in_use() + 1));
  obs::Span req = obs::trace_span(
      sim_, ctx, kind == IoKind::kRead ? "disk.read" : "disk.write",
      obs::Track::kRequest, id_,
      [&](obs::SpanArgs& a) {
        a.tag("disk", id_)
            .tag("lba", static_cast<std::int64_t>(block))
            .tag("nblocks", nblocks)
            .tag("background", prio == IoPriority::kBackground ? 1 : 0);
      });

  auto arm = co_await queue_.acquire(static_cast<int>(prio));
  if (failed_) throw DiskFailedError(id_);

  // The service span brackets arm occupancy exactly ([grant, release] of a
  // capacity-1 resource), so per-disk span time sums to busy_time().
  const sim::Time grant = sim_.now();
  obs::Span service = obs::trace_span(
      sim_, req.ctx(), "disk.service", obs::Track::kDisk, id_,
      [&](obs::SpanArgs& a) {
        a.tag("disk", id_)
            .tag("lba", static_cast<std::int64_t>(block))
            .tag("write", kind == IoKind::kWrite ? 1 : 0);
      });

  const bool sequential = (block == head_pos_);
  const sim::Time mech = service_time(block, nblocks, sequential);
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(nblocks) * params_.block_bytes;

  if (kind == IoKind::kRead) {
    // Media first, then ship across the bus.
    co_await sim_.delay(mech);
    head_pos_ = block + nblocks;
    service.close();
    busy_rec_.record(sim_, obs::Track::kDisk, id_, grant, sim_.now());
    arm.release();  // the arm is free while the buffer drains to the bus
    if (bus_) co_await bus_->transfer(bytes, req.ctx());
    ++reads_;
    bytes_read_ += bytes;
  } else {
    // Data arrives over the bus into the disk buffer, then hits the media.
    if (bus_) co_await bus_->transfer(bytes, service.ctx());
    co_await sim_.delay(mech);
    head_pos_ = block + nblocks;
    ++writes_;
    bytes_written_ += bytes;
    service.close();
    busy_rec_.record(sim_, obs::Track::kDisk, id_, grant, sim_.now());
  }
  if (failed_) throw DiskFailedError(id_);
}

void Disk::replace() {
  Device::replace();
  head_pos_ = 0;
}

}  // namespace raidx::disk
