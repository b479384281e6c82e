#include "integrity/integrity.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/obs.hpp"

namespace raidx::integrity {

namespace {

std::string block_detail(int disk, std::uint64_t offset) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "disk=%d block=%llu", disk,
                static_cast<unsigned long long>(offset));
  return buf;
}

}  // namespace

IntegrityPlane::IntegrityPlane(raid::ArrayController& engine,
                               IntegrityParams params)
    : engine_(engine),
      fabric_(engine.fabric()),
      cluster_(fabric_.cluster()),
      sim_(cluster_.sim()),
      params_(params) {
  // Checksums exist from this instant: snapshot every block already on the
  // media (preloads) and maintain them on the write path from here on.
  for (int d = 0; d < cluster_.total_disks(); ++d) {
    cluster_.disk(d).enable_integrity();
  }
  fabric_.set_integrity(this);
  if (params_.scrub) {
    if (params_.scrub_rate_mbs > 0) {
      const double bytes_per_sec = params_.scrub_rate_mbs * 1e6;
      const double burst =
          static_cast<double>(params_.scrub_chunk_blocks) *
          static_cast<double>(cluster_.geometry().block_bytes) * 4.0;
      throttle_ =
          std::make_unique<sim::TokenBucket>(sim_, bytes_per_sec, burst);
    }
    sim_.spawn(scrub_loop());
  }
}

IntegrityPlane::~IntegrityPlane() { fabric_.set_integrity(nullptr); }

void IntegrityPlane::note_corruption_injected(int disk, std::uint64_t block) {
  ++stats_.injected;
  if (injected_.try_emplace(key(disk, block), sim_.now()).second) {
    ++undetected_;
  }
  // A live fault flips the daemon into attention mode: sweep back-to-back
  // until everything injected is found (or reconciled away).  Without the
  // daemon there is nothing to wake -- detection then rides verify-reads.
  if (params_.scrub && !attention_active_) {
    attention_active_ = true;
    sim_.spawn(attention_loop());
  }
}

void IntegrityPlane::on_corruption_found(int disk, std::uint64_t offset,
                                         bool by_scrub) {
  const std::uint64_t k = key(disk, offset);
  if (!pending_repair_.insert(k).second) return;  // already queued/verdicted
  ++stats_.detected;
  if (by_scrub) {
    ++stats_.detected_by_scrub;
  } else {
    ++stats_.detected_by_read;
  }
  obs::log_event(sim_, "integrity.detected",
                 block_detail(disk, offset) +
                     (by_scrub ? " by=scrub" : " by=read"));
  const auto it = injected_.find(k);
  if (it != injected_.end()) {
    stats_.mttd_ns.push_back(sim_.now() - it->second);
    injected_.erase(it);
    if (undetected_ > 0) --undetected_;
  }
  // Error-rate escalation: a disk shedding corrupt blocks is dying, not
  // unlucky -- hand it to the whole-disk recovery machinery (hot spare +
  // rebuild) instead of playing block-repair whack-a-mole.
  if (params_.fail_threshold > 0) {
    const int errors = ++disk_errors_[disk];
    disk::Device& d = cluster_.disk(disk);
    if (errors >= params_.fail_threshold && !d.failed()) {
      ++stats_.escalations;
      obs::log_event(sim_, "integrity.escalated", block_detail(disk, offset));
      pending_repair_.erase(k);  // the rebuild sweep rewrites every block
      d.fail();
      fabric_.notify_disk_failure(disk);
      return;
    }
  }
  sim_.spawn(repair_task(disk, offset));
}

sim::Task<> IntegrityPlane::repair_task(int disk_id, std::uint64_t offset) {
  const std::uint64_t k = key(disk_id, offset);
  const int client = cluster_.geometry().node_of(disk_id);
  try {
    bool ok = false;
    if (!cluster_.disk(disk_id).failed()) {
      ok = co_await engine_.repair_block(client, disk_id, offset);
    }
    if (!ok && !cluster_.disk(disk_id).failed() &&
        !cluster_.disk(disk_id).has_checksum(offset)) {
      // No redundancy path (RAID-0, or an unused image slot), but the
      // block was never written: its expected contents are known -- all
      // zeros -- so rewrite them directly.
      cdd::Reply w = co_await fabric_.write(
          client, disk_id, offset,
          block::Payload::zeros(cluster_.geometry().block_bytes),
          disk::IoPriority::kBackground);
      ok = w.ok;
    }
    if (ok) {
      ++stats_.repaired;
      obs::log_event(sim_, "integrity.repaired",
                     block_detail(disk_id, offset));
      pending_repair_.erase(k);
    } else if (cluster_.disk(disk_id).failed()) {
      // Whole-disk recovery owns this block now; the rebuild sweep will
      // rewrite it (and its checksum) wholesale.
      ++stats_.superseded;
      pending_repair_.erase(k);
    } else {
      ++stats_.unrecoverable;
      obs::log_event(sim_, "integrity.unrecoverable",
                     block_detail(disk_id, offset));
      stats_.unrecoverable_blocks.push_back({disk_id, offset});
      // The key stays in pending_repair_: every later sweep re-detects an
      // unrepaired block, and the verdict must not be re-counted.
    }
  } catch (...) {
    // The repair's own I/O failed (disk died mid-repair, RPC gave up).
    // Drop the key so a later re-detection retries against healthier state.
    ++stats_.repairs_failed;
    pending_repair_.erase(k);
  }
}

sim::Task<> IntegrityPlane::scrub_pass() {
  ++stats_.scrub_passes;
  const auto& geo = cluster_.geometry();
  const std::uint32_t bs = geo.block_bytes;
  const std::uint32_t chunk = std::max(1u, params_.scrub_chunk_blocks);
  for (int d = 0; d < cluster_.total_disks(); ++d) {
    disk::Device& dd = cluster_.disk(d);
    dd.enable_integrity();  // covers a spare swapped in after construction
    if (dd.failed()) continue;
    // Each disk is scrubbed by its own node: the local fast path, so no
    // scrub traffic crosses the wire.
    const int client = geo.node_of(d);
    for (std::uint64_t off = 0; off < geo.blocks_per_disk; off += chunk) {
      if (dd.failed()) break;  // died mid-sweep; next pass sees the spare
      const auto n = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(chunk, geo.blocks_per_disk - off));
      if (!dd.readable(off, n)) continue;  // mid-rebuild tail
      if (throttle_ != nullptr) {
        co_await throttle_->acquire(static_cast<std::uint64_t>(n) * bs);
      }
      cdd::Reply r = co_await fabric_.scrub_read(client, d, off, n);
      // Mismatches were already routed through on_corruption_found by the
      // serving CDD; here we only account coverage.
      if (r.ok) stats_.blocks_scrubbed += n;
    }
  }
}

sim::Task<> IntegrityPlane::scrub_loop() {
  for (;;) {
    // daemon_delay: an idle scrubber never holds the simulation open.
    co_await sim_.daemon_delay(params_.scrub_interval);
    if (attention_active_) continue;  // attention passes are running
    if (!sim_.try_begin_daemon_pass()) continue;  // a peer world's pass
    co_await scrub_pass();
    sim_.end_daemon_pass();
  }
}

sim::Task<> IntegrityPlane::attention_loop() {
  while (undetected_ > 0) {
    co_await scrub_pass();
    reconcile_injected();
    if (undetected_ > 0) co_await sim_.delay(params_.scrub_interval);
  }
  attention_active_ = false;
}

void IntegrityPlane::reconcile_injected() {
  for (auto it = injected_.begin(); it != injected_.end();) {
    const disk::Device& d = cluster_.disk(disk_of(it->first));
    if (d.failed() || !d.corrupted(block_of(it->first))) {
      ++stats_.overwritten;
      if (undetected_ > 0) --undetected_;
      it = injected_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace raidx::integrity
