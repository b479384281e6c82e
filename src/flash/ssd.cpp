#include "flash/ssd.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace raidx::flash {

SsdDevice::SsdDevice(sim::Simulation& sim, disk::DeviceGeometry geo,
                     FlashParams params, int id, disk::ScsiBus* bus)
    : Device(geo, id),
      sim_(sim),
      params_(params),
      bus_(bus),
      queue_(sim, /*capacity=*/1, /*priority_levels=*/2) {
  assert(params_.pages_per_block > 0);
  reset_ftl();
}

void SsdDevice::reset_ftl() {
  const std::uint64_t logical = geo_.total_blocks;
  const std::uint32_t ppb = params_.pages_per_block;
  // Physical space = logical * (1 + OP), rounded up to whole erase blocks,
  // and never fewer than two spare blocks (one open, one in reserve) --
  // the floor below which the append-point design cannot operate.
  const std::uint64_t logical_blocks = (logical + ppb - 1) / ppb;
  std::uint64_t nblocks = static_cast<std::uint64_t>(std::ceil(
      static_cast<double>(logical) * (1.0 + params_.over_provision) /
      static_cast<double>(ppb)));
  nblocks = std::max(nblocks, logical_blocks + 2);

  l2p_.assign(logical, kUnmapped);
  p2l_.assign(nblocks * ppb, kUnmapped);
  valid_count_.assign(nblocks, 0);
  last_write_.assign(nblocks, 0);
  erase_count_.assign(nblocks, 0);
  free_blocks_.clear();
  for (std::uint32_t b = 1; b < nblocks; ++b) free_blocks_.insert(b);
  open_block_ = 0;
  write_ptr_ = 0;
  min_free_blocks_ = free_blocks_.size();
}

std::size_t SsdDevice::low_watermark_blocks() const {
  const auto nb = static_cast<double>(valid_count_.size());
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(params_.gc_low_watermark * nb));
}

std::size_t SsdDevice::high_watermark_blocks() const {
  const auto nb = static_cast<double>(valid_count_.size());
  return std::max<std::size_t>(
      low_watermark_blocks() + 1,
      static_cast<std::size_t>(params_.gc_high_watermark * nb));
}

std::uint64_t SsdDevice::writable_pages() const {
  return static_cast<std::uint64_t>(params_.pages_per_block - write_ptr_) +
         static_cast<std::uint64_t>(free_blocks_.size()) *
             params_.pages_per_block;
}

void SsdDevice::map_write(std::uint64_t lpage) {
  const std::uint32_t ppb = params_.pages_per_block;
  const std::uint32_t old = l2p_[lpage];
  if (old != kUnmapped) {
    --valid_count_[old / ppb];
    last_write_[old / ppb] = sim_.now();
    p2l_[old] = kUnmapped;
  }
  if (write_ptr_ == ppb) {
    assert(!free_blocks_.empty() && "flash append point starved");
    open_block_ = *free_blocks_.begin();
    free_blocks_.erase(free_blocks_.begin());
    min_free_blocks_ = std::min(min_free_blocks_, free_blocks_.size());
    write_ptr_ = 0;
  }
  const std::uint32_t phys = open_block_ * ppb + write_ptr_++;
  l2p_[lpage] = phys;
  p2l_[phys] = static_cast<std::uint32_t>(lpage);
  ++valid_count_[open_block_];
  last_write_[open_block_] = sim_.now();
  ++flash_pages_written_;
}

std::uint32_t SsdDevice::pick_victim() const {
  const std::uint32_t ppb = params_.pages_per_block;
  const std::uint32_t nb = static_cast<std::uint32_t>(valid_count_.size());
  std::uint32_t best = kUnmapped;
  double best_score = -1.0;
  for (std::uint32_t b = 0; b < nb; ++b) {
    if (b == open_block_ || free_blocks_.count(b) != 0) continue;
    const std::uint32_t valid = valid_count_[b];
    if (valid == ppb) continue;  // nothing to reclaim
    double score;
    if (params_.gc_policy == GcPolicy::kGreedy) {
      // Fewest valid pages wins; index breaks ties (strict > keeps the
      // lowest-index best, making victim order fully deterministic).
      score = static_cast<double>(ppb - valid);
    } else {
      const double u = static_cast<double>(valid) / ppb;
      const double age =
          static_cast<double>(sim_.now() - last_write_[b]) + 1.0;
      score = u == 0.0 ? std::numeric_limits<double>::infinity()
                       : (1.0 - u) / (2.0 * u) * age;
    }
    if (score > best_score) {
      best_score = score;
      best = b;
    }
  }
  return best;
}

sim::Task<> SsdDevice::collect(std::uint32_t victim) {
  const std::uint32_t ppb = params_.pages_per_block;
  std::uint32_t copies = 0;
  for (std::uint32_t i = 0; i < ppb; ++i) {
    const std::uint32_t lpage = p2l_[victim * ppb + i];
    if (lpage == kUnmapped) continue;
    map_write(lpage);  // moves the live page to the append point
    ++copies;
  }
  if (copies > 0) {
    co_await sim_.delay(copies *
                        (params_.read_latency + params_.program_latency));
  }
  co_await sim_.delay(params_.erase_latency);
  assert(valid_count_[victim] == 0);
  ++erase_count_[victim];
  free_blocks_.insert(victim);
  ++gc_erases_;
  gc_pages_copied_ += copies;
}

sim::Task<> SsdDevice::gc_loop() {
  while (!failed_ && free_blocks_.size() < high_watermark_blocks()) {
    auto arm = co_await queue_.acquire(
        static_cast<int>(disk::IoPriority::kBackground));
    if (failed_) break;
    const std::uint32_t victim = pick_victim();
    if (victim == kUnmapped) break;
    const sim::Time grant = sim_.now();
    co_await collect(victim);
    const sim::Time pause = sim_.now() - grant;
    gc_busy_ += pause;
    gc_max_pause_ = std::max(gc_max_pause_, pause);
    busy_rec_.record(sim_, obs::Track::kDisk, id_, grant, sim_.now());
    // The arm drops between victims so queued foreground I/O overtakes a
    // long collection run; each single copy+erase hold is the GC pause
    // the tail-latency bench measures.
  }
  gc_active_ = false;
}

sim::Task<> SsdDevice::io(disk::IoKind kind, std::uint64_t block,
                          std::uint32_t nblocks, disk::IoPriority prio,
                          obs::TraceContext ctx) {
  if (failed_) throw disk::DiskFailedError(id_);
  assert(block + nblocks <= geo_.total_blocks);

  depth_rec_.record(
      sim_, obs::Track::kDisk, id_,
      static_cast<std::int64_t>(queue_.queued() + queue_.in_use() + 1));
  obs::Span req = obs::trace_span(
      sim_, ctx, kind == disk::IoKind::kRead ? "disk.read" : "disk.write",
      obs::Track::kRequest, id_,
      [&](obs::SpanArgs& a) {
        a.tag("disk", id_)
            .tag("lba", static_cast<std::int64_t>(block))
            .tag("nblocks", nblocks)
            .tag("background",
                 prio == disk::IoPriority::kBackground ? 1 : 0);
      });

  auto arm = co_await queue_.acquire(static_cast<int>(prio));
  if (failed_) throw disk::DiskFailedError(id_);

  const sim::Time grant = sim_.now();
  obs::Span service = obs::trace_span(
      sim_, req.ctx(), "disk.service", obs::Track::kDisk, id_,
      [&](obs::SpanArgs& a) {
        a.tag("disk", id_)
            .tag("lba", static_cast<std::int64_t>(block))
            .tag("write", kind == disk::IoKind::kWrite ? 1 : 0);
      });

  const std::uint64_t bytes =
      static_cast<std::uint64_t>(nblocks) * geo_.block_bytes;
  const sim::Time xfer = sim::transfer_time(bytes, params_.channel_rate_mbs);

  if (kind == disk::IoKind::kRead) {
    co_await sim_.delay(params_.controller_overhead +
                        nblocks * params_.read_latency + xfer);
    service.close();
    busy_rec_.record(sim_, obs::Track::kDisk, id_, grant, sim_.now());
    arm.release();  // channel free while the buffer drains to the host bus
    if (bus_) co_await bus_->transfer(bytes, req.ctx());
    ++reads_;
    bytes_read_ += bytes;
  } else {
    if (bus_) co_await bus_->transfer(bytes, service.ctx());
    co_await sim_.delay(params_.controller_overhead +
                        nblocks * params_.program_latency + xfer);
    const std::uint32_t ppb = params_.pages_per_block;
    for (std::uint32_t i = 0; i < nblocks; ++i) {
      // Write cliff: if background GC fell behind and the free pool is
      // down to the last spare block, reclaim synchronously -- the
      // foreground write eats the copyback+erase itself.
      while (writable_pages() < 1ull + ppb) {
        const std::uint32_t victim = pick_victim();
        if (victim == kUnmapped) break;
        ++gc_write_stalls_;
        co_await collect(victim);
      }
      map_write(block + i);
    }
    host_pages_written_ += nblocks;
    ++writes_;
    bytes_written_ += bytes;
    service.close();
    busy_rec_.record(sim_, obs::Track::kDisk, id_, grant, sim_.now());
  }
  if (failed_) throw disk::DiskFailedError(id_);

  if (kind == disk::IoKind::kWrite && !gc_active_ &&
      free_blocks_.size() <= low_watermark_blocks()) {
    gc_active_ = true;
    ++gc_runs_;
    sim_.spawn(gc_loop());
  }
}

void SsdDevice::replace() {
  Device::replace();
  reset_ftl();
}

}  // namespace raidx::flash
