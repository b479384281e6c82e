// Recovery: restore slots from the layout's redundancy recipe.
//
// Every layout states one recipe (Layout::source_of): the logical block a
// physical slot carries, its lock group, and the blocks its bytes can be
// re-derived from -- other copies, or the XOR of its parity-stripe peers.
// recover() follows it for all three consumers, which differ only in how
// they read: the rebuild sweep and repair read one source at a time at
// background priority (repair through scrub_read, so a rotten source fails
// it), degraded client reads at foreground priority with XOR peers in
// parallel.  RAID-x data slots prefer a still-in-flight deferred image
// over the image disk, which trails it.
//
// Rebuilds run at background disk priority so foreground traffic keeps its
// latency while redundancy is being re-established.  Each row of the sweep
// (Layout::rebuild_row) is a read-reconstruct-write, so it takes the lock
// groups a client write of the restored blocks would: without the lock, a
// sweep that has read its sources can lose the CPU to a foreground write
// of the same stripe and then stomp it with the stale reconstruction.
#include <algorithm>

#include "raid/controller.hpp"
#include "sim/token_bucket.hpp"

namespace raidx::raid {

namespace {

// Marks the target disk as rebuilding for the duration of the sweep; the
// watermark rises as rows complete, so reads of not-yet-restored regions
// keep falling back to the degraded path.  A sweep must call complete()
// after its last row; if it unwinds instead (e.g. a second failure aborts
// it mid-sweep), the disk STAYS rebuilding at the frozen watermark --
// clearing the flag would declare the unrestored tail readable and serve
// zeros where data belongs.  An aborted rebuild can be resumed later:
// begin_rebuild() restarts the sweep state from scratch.
class RebuildScope {
 public:
  explicit RebuildScope(disk::Device& d) : disk_(d) { disk_.begin_rebuild(); }
  ~RebuildScope() {
    if (completed_) disk_.finish_rebuild();
  }
  RebuildScope(const RebuildScope&) = delete;
  RebuildScope& operator=(const RebuildScope&) = delete;
  void advance(std::uint64_t watermark) { disk_.advance_rebuild(watermark); }
  void complete() { completed_ = true; }

 private:
  disk::Device& disk_;
  bool completed_ = false;
};

/// A source read is usable only if it arrived AND every block of it passed
/// verification (ordinary reads fail outright on a bad block).
bool usable(const cdd::Reply& r) { return r.ok && r.bad_blocks.empty(); }

/// `parts` as one payload: a single block as is, an all-zero run as a
/// zero-run, anything else materialized.
block::Payload concat(std::vector<block::Payload> parts, std::uint32_t bs) {
  if (parts.size() == 1) return std::move(parts[0]);
  const bool all_zero =
      std::all_of(parts.begin(), parts.end(),
                  [](const block::Payload& p) { return p.is_zeros(); });
  if (all_zero) return block::Payload::zeros(parts.size() * bs);
  std::vector<std::byte> buf(parts.size() * bs);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    parts[i].copy_to(std::span<std::byte>(buf).subspan(i * bs, bs));
  }
  return block::Payload(std::move(buf));
}

}  // namespace

sim::Task<std::optional<block::Payload>> ArrayController::recover(
    int client, SlotSource src, Fetch how, obs::TraceContext ctx) {
  auto fetch = [](ArrayController* self, int c, block::PhysBlock pb,
                  Fetch how, cdd::Reply* out,
                  obs::TraceContext ctx) -> sim::Task<> {
    if (how == Fetch::kScrub) {
      *out = co_await self->fabric_.scrub_read(c, pb.disk, pb.offset, 1, ctx);
    } else {
      *out = co_await self->fabric_.read(
          c, pb.disk, pb.offset, 1,
          how == Fetch::kDegraded ? disk::IoPriority::kForeground
                                  : disk::IoPriority::kBackground,
          ctx);
    }
  };

  if (src.kind == SlotSource::Kind::kNone) co_return std::nullopt;
  if (src.kind == SlotSource::Kind::kCopy) {
    if (src.pending_image_fresher) {
      if (const block::Payload* p = pending_image(*src.lba)) co_return *p;
    }
    for (const block::PhysBlock& pb : src.from) {
      cdd::Reply r;
      co_await fetch(this, client, pb, how, &r, ctx);
      if (usable(r)) co_return std::move(r.data);
    }
    co_return std::nullopt;
  }

  // XOR of the stripe's peers.  Sweeps and repairs visit them in disk
  // order and stop at the first unusable one.
  std::vector<cdd::Reply> peers(src.from.size());
  if (how == Fetch::kDegraded) {
    sim::Joiner join(sim());
    for (std::size_t i = 0; i < src.from.size(); ++i) {
      join.spawn(fetch(this, client, src.from[i], how, &peers[i], ctx));
    }
    co_await join.wait();
  } else {
    std::sort(src.from.begin(), src.from.end(),
              [](const block::PhysBlock& a, const block::PhysBlock& b) {
                return a.disk < b.disk;
              });
    for (std::size_t i = 0; i < src.from.size(); ++i) {
      co_await fetch(this, client, src.from[i], how, &peers[i], ctx);
      if (!usable(peers[i])) co_return std::nullopt;
    }
  }
  const std::uint32_t bs = block_bytes();
  bool all_zero = true;
  for (const cdd::Reply& r : peers) {
    if (!usable(r)) co_return std::nullopt;
    if (!r.data.is_zeros()) all_zero = false;
  }
  block::Payload out = block::Payload::zeros(bs);
  if (!all_zero) {
    std::vector<std::byte> acc(bs, std::byte{0});
    for (const cdd::Reply& r : peers) block::xor_into(acc, r.data);
    out = block::Payload(std::move(acc));
  }
  co_await xor_cpu(client, static_cast<std::uint64_t>(peers.size()) * bs);
  co_return out;
}

sim::Task<> ArrayController::with_locks(int client,
                                        std::vector<std::uint64_t> groups,
                                        sim::Task<> body,
                                        obs::TraceContext ctx) {
  const std::uint64_t owner =
      params_.use_locks ? fabric_.next_lock_owner() : 0;
  if (params_.use_locks) {
    co_await fabric_.lock_groups(client, groups, owner, ctx);
  }
  std::exception_ptr err;
  try {
    co_await std::move(body);
  } catch (...) {
    err = std::current_exception();
  }
  if (params_.use_locks) {
    co_await fabric_.unlock_groups(client, std::move(groups), owner, ctx);
  }
  if (err) std::rethrow_exception(err);
}

sim::Task<> ArrayController::rebuild_disk(int client, int disk_id,
                                          std::uint64_t max_offset) {
  const Layout& lay = layout();
  if (lay.rebuild_rows(disk_id) == 0) {
    // Suspend once so the IoError surfaces at the caller's co_await like
    // every other sweep failure, not synchronously out of the call.
    co_await sim().delay(0);
    throw IoError(name() + ": no rebuild path for disk " +
                  std::to_string(disk_id));
  }
  obs::Span span = obs::trace_span(
      sim(), {}, "engine.rebuild", obs::Track::kRequest, client,
      [&](obs::SpanArgs& a) { a.tag("client", client).tag("disk", disk_id); });
  const std::uint64_t rows = std::min(max_offset, lay.rebuild_rows(disk_id));
  RebuildScope scope(fabric_.cluster().disk(disk_id));

  for (std::uint64_t row = 0; row < rows; ++row) {
    scope.advance(row);
    std::vector<block::PhysExtent> targets = lay.rebuild_row(disk_id, row);
    std::vector<SlotSource> slots;
    std::vector<std::uint64_t> groups;
    for (const block::PhysExtent& t : targets) {
      for (std::uint32_t i = 0; i < t.nblocks; ++i) {
        slots.push_back(lay.source_of(t.disk, t.offset + i));
        groups.push_back(slots.back().lock_group);
      }
    }
    std::sort(groups.begin(), groups.end());
    groups.erase(std::unique(groups.begin(), groups.end()), groups.end());
    co_await with_locks(client, std::move(groups),
                        restore_row(client, std::move(targets),
                                    std::move(slots), span.ctx()),
                        span.ctx());
  }
  scope.complete();
}

sim::Task<> ArrayController::restore_row(
    int client, std::vector<block::PhysExtent> targets,
    std::vector<SlotSource> slots, obs::TraceContext ctx) {
  const std::uint32_t bs = block_bytes();
  std::size_t next = 0;
  for (const block::PhysExtent& t : targets) {
    std::vector<block::Payload> parts;
    for (std::uint32_t i = 0; i < t.nblocks; ++i) {
      std::optional<block::Payload> got =
          co_await recover(client, std::move(slots[next++]), Fetch::kSweep,
                           ctx);
      if (!got) {
        throw IoError(name() + " rebuild: no source left for disk " +
                      std::to_string(t.disk) + " offset " +
                      std::to_string(t.offset + i));
      }
      parts.push_back(std::move(*got));
    }
    co_await rebuild_throttle_gate(static_cast<std::uint64_t>(t.nblocks) * bs);
    cdd::Reply w = co_await fabric_.write(client, t.disk, t.offset,
                                          concat(std::move(parts), bs),
                                          disk::IoPriority::kBackground, ctx);
    if (!w.ok) throw IoError(name() + " rebuild: replacement disk failed");
  }
}

sim::Task<> ArrayController::rebuild_throttle_gate(std::uint64_t bytes) {
  rebuild_bytes_ += bytes;
  if (rebuild_throttle_ != nullptr) {
    co_await rebuild_throttle_->acquire(bytes);
  }
}

}  // namespace raidx::raid
