#include "raid/controller.hpp"

#include <algorithm>
#include <cassert>

namespace raidx::raid {

block::Payload ArrayController::gather(const block::Payload& data,
                                       std::span<const std::uint64_t> lbas,
                                       std::uint64_t chunk_lba,
                                       std::uint32_t bs) {
  bool contiguous = true;
  for (std::size_t i = 1; i < lbas.size(); ++i) {
    if (lbas[i] != lbas[0] + i) {
      contiguous = false;
      break;
    }
  }
  if (contiguous) {
    return data.slice(static_cast<std::size_t>(lbas[0] - chunk_lba) * bs,
                      lbas.size() * bs);
  }
  if (data.is_zeros()) return block::Payload::zeros(lbas.size() * bs);
  std::vector<std::byte> out(lbas.size() * bs);
  for (std::size_t i = 0; i < lbas.size(); ++i) {
    data.copy_to(std::span<std::byte>(out).subspan(i * bs, bs),
                 static_cast<std::size_t>(lbas[i] - chunk_lba) * bs);
  }
  return block::Payload(std::move(out));
}

ArrayController::ArrayController(cdd::CddFabric& fabric, EngineParams params)
    : fabric_(fabric), params_(params) {}

sim::Task<> ArrayController::xor_cpu(int client, std::uint64_t bytes) {
  const auto t = static_cast<sim::Time>(params_.xor_ns_per_byte *
                                        static_cast<double>(bytes));
  co_await fabric_.cluster().node(client).compute(t);
}

sim::Task<> ArrayController::windowed_op(sim::Task<> op,
                                         sim::Resource& window,
                                         sim::Latch& done,
                                         std::exception_ptr& error,
                                         obs::TraceContext ctx) {
  // The window wait is controller queueing from the request's point of
  // view; the slot itself outlives the wait, so the lane is bracketed
  // manually rather than scoped.
  obs::attr_enter(sim(), ctx, obs::Lane::kCtlQueue);
  auto slot = co_await window.acquire();
  obs::attr_exit(sim(), ctx, obs::Lane::kCtlQueue);
  try {
    co_await std::move(op);
  } catch (...) {
    if (!error) error = std::current_exception();
  }
  slot.release();
  done.count_down();
}

sim::Task<> ArrayController::read(int client, std::uint64_t lba,
                                  std::uint32_t nblocks,
                                  std::span<std::byte> out,
                                  obs::TraceContext ctx) {
  obs::Span span = obs::trace_span(
      sim(), ctx, "engine.read", obs::Track::kRequest, client,
      [&](obs::SpanArgs& a) {
        a.tag("client", client)
            .tag("lba", static_cast<std::int64_t>(lba))
            .tag("nblocks", nblocks);
      });
  ctx = span.ctx();
  obs::AttrRoot attr(sim(), ctx, /*is_write=*/false);
  if (nblocks == 0) {
    attr.complete();
    co_return;
  }
  if (lba + nblocks > logical_blocks()) {
    throw IoError("read beyond end of " + name());
  }
  assert(out.size() == static_cast<std::size_t>(nblocks) * block_bytes());
  if (admission_ != nullptr) {
    obs::AttrScope wait(sim(), ctx, obs::Lane::kCtlQueue);
    co_await admission_->admit(client, /*is_write=*/false,
                               static_cast<std::uint64_t>(nblocks) *
                                   block_bytes(),
                               ctx);
  }

  sim::Resource window(sim(), params_.read_window);
  sim::Latch done(sim(), 0);
  std::exception_ptr error;
  const std::uint32_t chunk = std::max(1u, params_.read_chunk_blocks);
  const std::uint32_t bs = block_bytes();

  for (std::uint32_t off = 0; off < nblocks; off += chunk) {
    const std::uint32_t n = std::min(chunk, nblocks - off);
    auto sub = out.subspan(static_cast<std::size_t>(off) * bs,
                           static_cast<std::size_t>(n) * bs);
    done.add(1);
    sim().spawn(windowed_op(
        cache_ ? cached_read_chunk(client, lba + off, n, sub, ctx)
               : read_chunk(client, lba + off, n, sub, ctx),
        window, done, error, ctx));
  }
  co_await done.wait();
  if (error) std::rethrow_exception(error);
  attr.complete();
}

sim::Task<> ArrayController::write(int client, std::uint64_t lba,
                                   block::Payload data,
                                   obs::TraceContext ctx) {
  obs::Span span = obs::trace_span(
      sim(), ctx, "engine.write", obs::Track::kRequest, client,
      [&](obs::SpanArgs& a) {
        a.tag("client", client)
            .tag("lba", static_cast<std::int64_t>(lba))
            .tag("nblocks",
                 static_cast<std::int64_t>(data.size() / block_bytes()));
      });
  ctx = span.ctx();
  obs::AttrRoot attr(sim(), ctx, /*is_write=*/true);
  const std::uint32_t bs = block_bytes();
  assert(data.size() % bs == 0);
  const auto nblocks = static_cast<std::uint32_t>(data.size() / bs);
  if (nblocks == 0) {
    attr.complete();
    co_return;
  }
  if (lba + nblocks > logical_blocks()) {
    throw IoError("write beyond end of " + name());
  }
  if (admission_ != nullptr) {
    obs::AttrScope wait(sim(), ctx, obs::Lane::kCtlQueue);
    co_await admission_->admit(client, /*is_write=*/true, data.size(), ctx);
  }

  std::vector<std::uint64_t> groups;
  const std::uint64_t owner =
      params_.use_locks ? fabric_.next_lock_owner() : 0;
  if (params_.use_locks) {
    for (std::uint64_t b = lba; b < lba + nblocks; ++b) {
      const std::uint64_t g = layout().lock_group_of(b);
      if (groups.empty() || groups.back() != g) groups.push_back(g);
    }
    co_await fabric_.lock_groups(client, groups, owner, ctx);
  }

  std::exception_ptr error;
  {
    sim::Resource window(sim(), params_.write_window);
    sim::Latch done(sim(), 0);
    const std::uint32_t width = layout().stripe_width();
    std::uint64_t pos = lba;
    const std::uint64_t end = lba + nblocks;
    while (pos < end) {
      const std::uint64_t stripe_end = (pos / width + 1) * width;
      const std::uint64_t chunk_end = std::min(end, stripe_end);
      block::Payload sub =
          data.slice(static_cast<std::size_t>(pos - lba) * bs,
                     static_cast<std::size_t>(chunk_end - pos) * bs);
      done.add(1);
      sim().spawn(windowed_op(
          cache_ ? cached_write_chunk(client, pos, sub, ctx)
                 : write_chunk(client, pos, sub,
                               disk::IoPriority::kForeground, ctx),
          window, done, error, ctx));
      pos = chunk_end;
    }
    co_await done.wait();
  }

  if (params_.use_locks) {
    co_await fabric_.unlock_groups(client, std::move(groups), owner, ctx);
  }
  if (error) std::rethrow_exception(error);
  if (write_observer_ != nullptr) {
    write_observer_->on_client_write(client, lba, nblocks);
  }
  attr.complete();
}

sim::Task<> ArrayController::read_chunk(int client, std::uint64_t lba,
                                        std::uint32_t nblocks,
                                        std::span<std::byte> out,
                                        obs::TraceContext ctx) {
  auto extents = data_extents(layout(), lba, nblocks);
  if (params_.balance_mirror_reads) balance_onto_mirrors(extents);
  sim::Joiner join(sim());
  for (auto& me : extents) {
    join.spawn(read_extent_into(client, me.extent, me.lbas, lba, out, ctx));
  }
  co_await join.wait();
}

void ArrayController::balance_onto_mirrors(
    std::vector<MappedExtent>& extents) const {
  // Alternate copies by physical offset, so a sequential scan spreads
  // evenly over the primary and its mirror (Hsiao & DeWitt's
  // load-balancing read path).
  if (!layout().mirror_runs_contiguous()) return;
  for (MappedExtent& me : extents) {
    if (me.extent.offset % 2 == 0) continue;
    const block::PhysBlock m = layout().mirror_locations(me.lbas[0])[0];
    me.extent = block::PhysExtent{m.disk, m.offset, me.extent.nblocks};
  }
}

sim::Task<> ArrayController::read_extent_into(
    int client, block::PhysExtent extent,
    std::span<const std::uint64_t> lbas, std::uint64_t chunk_lba,
    std::span<std::byte> out, obs::TraceContext ctx) {
  const std::uint32_t bs = block_bytes();
  cdd::Reply reply =
      co_await fabric_.read(client, extent.disk, extent.offset,
                            extent.nblocks,
                            disk::IoPriority::kForeground, ctx);
  for (std::uint32_t i = 0; i < extent.nblocks; ++i) {
    auto dst = out.subspan(
        static_cast<std::size_t>(lbas[i] - chunk_lba) * bs, bs);
    if (reply.ok) {
      reply.data.copy_to(dst, static_cast<std::size_t>(i) * bs);
    } else {
      block::Payload rec = co_await degraded_read_block(
          client, block::PhysBlock{extent.disk, extent.offset + i}, ctx);
      rec.copy_to(dst);
    }
  }
}

sim::Task<block::Payload> ArrayController::degraded_read_block(
    int client, block::PhysBlock failed, obs::TraceContext ctx) {
  std::optional<block::Payload> got = co_await recover(
      client, layout().source_of(failed.disk, failed.offset),
      Fetch::kDegraded, ctx);
  if (!got) {
    throw IoError(name() + ": block at disk " + std::to_string(failed.disk) +
                  " offset " + std::to_string(failed.offset) +
                  " is lost (no readable redundancy)");
  }
  co_return std::move(*got);
}

sim::Task<> ArrayController::write_chunk(int client, std::uint64_t lba,
                                         block::Payload data,
                                         disk::IoPriority prio,
                                         obs::TraceContext ctx) {
  const std::uint32_t bs = block_bytes();
  const auto nblocks = static_cast<std::uint32_t>(data.size() / bs);

  // Every copy is updated synchronously.  Under RAID-10's chained
  // declustering each block's mirror sits on a *different* disk, so a
  // stripe write costs every disk one data write plus one scattered
  // mirror write (Table 2: nB/2).
  sim::Joiner join(sim());
  auto write_copy = [](ArrayController* self, int c, block::PhysBlock pb,
                       block::Payload payload, char* ok,
                       disk::IoPriority prio,
                       obs::TraceContext ctx) -> sim::Task<> {
    cdd::Reply r = co_await self->fabric_.write(c, pb.disk, pb.offset,
                                                std::move(payload), prio,
                                                ctx);
    if (r.ok) *ok = 1;
  };
  std::vector<char> ok(nblocks, 0);
  for (std::uint32_t i = 0; i < nblocks; ++i) {
    const block::Payload blk =
        data.slice(static_cast<std::size_t>(i) * bs, bs);
    join.spawn(write_copy(this, client, layout().data_location(lba + i), blk,
                          &ok[i], prio, ctx));
    for (const block::PhysBlock& m : layout().mirror_locations(lba + i)) {
      join.spawn(write_copy(this, client, m, blk, &ok[i], prio, ctx));
    }
  }
  co_await join.wait();
  for (std::uint32_t i = 0; i < nblocks; ++i) {
    if (!ok[i]) {
      throw IoError(name() + ": every copy of block " +
                    std::to_string(lba + i) + " failed");
    }
  }
}

void ArrayController::preload(std::uint64_t lba,
                              std::span<const std::byte> data) {
  const std::uint32_t bs = block_bytes();
  assert(data.size() % bs == 0);
  const auto nblocks = static_cast<std::uint32_t>(data.size() / bs);
  auto& cluster = fabric_.cluster();
  for (std::uint32_t i = 0; i < nblocks; ++i) {
    auto blockdata = data.subspan(static_cast<std::size_t>(i) * bs, bs);
    const block::PhysBlock pb = layout().data_location(lba + i);
    cluster.disk(pb.disk).write_data(pb.offset, blockdata);
    for (const block::PhysBlock& m : layout().mirror_locations(lba + i)) {
      cluster.disk(m.disk).write_data(m.offset, blockdata);
    }
  }
}

// ------------------------------------------------------------ block cache --

void ArrayController::attach_cache(cache::CacheFabric* cache) {
  // A capacity-0 fabric stays detached so the read/write spawn sites take
  // the exact seed code path (bit-identical event sequence).
  cache_ = (cache && cache->enabled()) ? cache : nullptr;
  if (cache_) {
    flusher_active_.assign(
        static_cast<std::size_t>(fabric_.cluster().num_nodes()), 0);
  }
}

void ArrayController::set_cache_pinned_range(std::uint64_t lo,
                                             std::uint64_t hi) {
  if (cache_) cache_->set_pinned_range(lo, hi);
}

sim::Task<> ArrayController::background(sim::Task<> op) {
  ++background_in_flight_;
  try {
    co_await std::move(op);
  } catch (...) {
    // Background work tolerates failed disks; the rebuild engine (or a
    // retried flush) re-establishes redundancy.
  }
  --background_in_flight_;
}

sim::Task<> ArrayController::cached_read_chunk(int client, std::uint64_t lba,
                                               std::uint32_t nblocks,
                                               std::span<std::byte> out,
                                               obs::TraceContext ctx) {
  const std::uint32_t bs = block_bytes();
  const int node = cache_node(client);
  std::vector<char> hit(nblocks, 0);
  std::vector<std::uint64_t> epoch(nblocks, 0);
  for (std::uint32_t i = 0; i < nblocks; ++i) {
    hit[i] = (co_await cache_->read_block(
                 client, node, lba + i,
                 out.subspan(static_cast<std::size_t>(i) * bs, bs), ctx))
                 ? 1
                 : 0;
    if (!hit[i]) epoch[i] = cache_->write_epoch(lba + i);
  }

  // Read the missing runs through the layout's own chunk path, in parallel.
  sim::Joiner join(sim());
  std::uint32_t i = 0;
  while (i < nblocks) {
    if (hit[i]) {
      ++i;
      continue;
    }
    std::uint32_t j = i;
    while (j < nblocks && !hit[j]) ++j;
    join.spawn(read_chunk(client, lba + i, j - i,
                          out.subspan(static_cast<std::size_t>(i) * bs,
                                      static_cast<std::size_t>(j - i) * bs),
                          ctx));
    i = j;
  }
  co_await join.wait();

  for (std::uint32_t k = 0; k < nblocks; ++k) {
    if (!hit[k]) {
      cache_->fill(node, lba + k,
                   out.subspan(static_cast<std::size_t>(k) * bs, bs),
                   epoch[k]);
    }
  }
  if (cache_->needs_flush(node)) ensure_flusher(node);
}

sim::Task<> ArrayController::cached_write_chunk(
    int client, std::uint64_t lba, block::Payload data,
    obs::TraceContext ctx) {
  const std::uint32_t bs = block_bytes();
  const auto nblocks = static_cast<std::uint32_t>(data.size() / bs);
  const int node = cache_node(client);
  const bool write_back =
      cache_->params().write_policy == cache::WritePolicy::kWriteBack;
  // Invalidation notices ride the lock grant/release broadcasts only when
  // that traffic exists (locks on + lock table replicated to every peer).
  const bool piggybacked =
      params_.use_locks && fabric_.params().replicate_lock_table;
  // Both policies install dirty: write-back stays dirty until the flusher
  // drains it; write-through is transiently dirty until its own disk write
  // below lands and end_write_through() settles the block (see
  // cache_fabric.hpp on why the disk write landing is not enough).
  // Each entry is a slice of `data`, the same buffer the disks store.
  std::vector<std::uint64_t> epochs(nblocks);
  for (std::uint32_t i = 0; i < nblocks; ++i) {
    epochs[i] = co_await cache_->write_block(
        node, lba + i, data.slice(static_cast<std::size_t>(i) * bs, bs),
        /*dirty=*/true, piggybacked, /*through=*/!write_back, ctx);
  }
  if (write_back) {
    if (cache_->needs_flush(node)) ensure_flusher(node);
    co_return;
  }
  bool ok = true;
  std::exception_ptr err;
  try {
    co_await write_chunk(client, lba, std::move(data),
                         disk::IoPriority::kForeground, ctx);
  } catch (...) {
    ok = false;
    err = std::current_exception();
  }
  bool settled = true;
  for (std::uint32_t i = 0; i < nblocks; ++i) {
    if (!cache_->end_write_through(node, lba + i, epochs[i], ok)) {
      settled = false;
    }
  }
  // Rare racing-writer (or failed-disk) leftovers stay dirty; the flusher
  // and the end-of-run flush_cache() converge disk to the cache bytes.
  if (!settled) ensure_flusher(node);
  if (err) std::rethrow_exception(err);
}

void ArrayController::ensure_flusher(int node) {
  if (flusher_active_[static_cast<std::size_t>(node)]) return;
  flusher_active_[static_cast<std::size_t>(node)] = 1;
  sim().spawn(background(flusher_loop(node)));
}

sim::Task<> ArrayController::flusher_loop(int node) {
  while (!cache_->flushed_enough(node)) {
    const auto lba = cache_->begin_flush(node);
    if (!lba) break;  // nothing flushable (all busy)
    const bool ok = co_await flush_block(node, *lba);
    cache_->shed_overflow(node);
    // A failed flush (disk down) would spin forever; stop and let the next
    // write or an explicit flush_cache() retry after the heal.
    if (!ok) break;
  }
  // No suspension between the loop's last check and this reset, so a write
  // racing in either saw the flag set (and the loop caught its dirty block)
  // or re-arms the flusher after this.
  flusher_active_[static_cast<std::size_t>(node)] = 0;
}

sim::Task<bool> ArrayController::flush_block(int node, std::uint64_t lba) {
  // Background flushes start their own root trace: the write that dirtied
  // the block has long since completed.
  obs::Span span = obs::trace_span(
      sim(), {}, "engine.flush", obs::Track::kRequest, node,
      [&](obs::SpanArgs& a) {
        a.tag("node", node)
            .tag("lba", static_cast<std::int64_t>(lba));
      });
  std::vector<std::uint64_t> groups{layout().lock_group_of(lba)};
  const std::uint64_t owner =
      params_.use_locks ? fabric_.next_lock_owner() : 0;
  if (params_.use_locks) {
    co_await fabric_.lock_groups(node, groups, owner, span.ctx());
  }
  bool ok = true;
  std::uint64_t version = 0;
  // Snapshot under the lock: the block may have been rewritten (or
  // cleaned) while this flush waited for the group.
  if (auto snap = cache_->resnapshot(node, lba)) {
    version = snap->version;
    try {
      co_await write_chunk(node, lba, std::move(snap->data),
                           disk::IoPriority::kBackground, span.ctx());
    } catch (...) {
      ok = false;  // stays dirty; the cache holds the only current copy
    }
  }
  cache_->end_flush(node, lba, version, ok);
  if (params_.use_locks) {
    co_await fabric_.unlock_groups(node, std::move(groups), owner,
                                   span.ctx());
  }
  co_return ok;
}

sim::Task<> ArrayController::flush_cache() {
  if (!cache_) co_return;
  for (int n = 0; n < fabric_.cluster().num_nodes(); ++n) {
    for (;;) {
      const auto lba = cache_->begin_flush(n);
      if (!lba) break;
      const bool ok = co_await flush_block(n, *lba);
      cache_->shed_overflow(n);
      if (!ok) break;  // failed disk: leave the rest dirty
    }
  }
}

// ---------------------------------------------------------------- RAID-0 --

Raid0Controller::Raid0Controller(cdd::CddFabric& fabric, EngineParams params)
    : ArrayController(fabric, params), layout_(fabric.cluster().geometry()) {}

sim::Task<> Raid0Controller::write_chunk(int client, std::uint64_t lba,
                                         block::Payload data,
                                         disk::IoPriority prio,
                                         obs::TraceContext ctx) {
  const std::uint32_t bs = block_bytes();
  const auto nblocks = static_cast<std::uint32_t>(data.size() / bs);
  auto extents = data_extents(layout_, lba, nblocks);
  sim::Joiner join(sim());
  auto write_extent = [](Raid0Controller* self, int c, block::PhysExtent e,
                         block::Payload p, disk::IoPriority prio,
                         obs::TraceContext ctx) -> sim::Task<> {
    cdd::Reply r = co_await self->fabric_.write(c, e.disk, e.offset,
                                                std::move(p), prio, ctx);
    if (!r.ok) {
      throw IoError("RAID-0: write hit failed disk " +
                    std::to_string(e.disk));
    }
  };
  for (auto& me : extents) {
    join.spawn(write_extent(this, client, me.extent,
                            gather(data, me.lbas, lba, bs), prio, ctx));
  }
  co_await join.wait();
}

// ---------------------------------------------------------------- RAID-5 --

Raid5Controller::Raid5Controller(cdd::CddFabric& fabric, EngineParams params)
    : ArrayController(fabric, params), layout_(fabric.cluster().geometry()) {}

sim::Task<> Raid5Controller::read_chunk(int client, std::uint64_t lba,
                                        std::uint32_t nblocks,
                                        std::span<std::byte> out,
                                        obs::TraceContext ctx) {
  co_await ArrayController::read_chunk(client, lba, nblocks, out, ctx);
  if (params_.verify_parity_on_read) {
    // Fetch the parity of each covered stripe alongside the data (Table 1:
    // "parity checks" reliability) and charge the XOR comparison.
    sim::Joiner join(sim());
    auto read_parity = [](Raid5Controller* self, int c, block::PhysBlock pb,
                          obs::TraceContext ctx) -> sim::Task<> {
      co_await self->fabric_.read(c, pb.disk, pb.offset, 1,
                                  disk::IoPriority::kForeground, ctx);
    };
    std::uint64_t first = layout_.stripe_of(lba);
    std::uint64_t last = layout_.stripe_of(lba + nblocks - 1);
    for (std::uint64_t s = first; s <= last; ++s) {
      join.spawn(read_parity(this, client, layout_.parity_location(s),
                             ctx));
    }
    co_await join.wait();
  }
  // Client-side parity bookkeeping cost of the software RAID-5 path.
  co_await xor_cpu(client, static_cast<std::uint64_t>(nblocks) *
                               block_bytes());
}

sim::Task<> Raid5Controller::write_chunk(int client, std::uint64_t lba,
                                         block::Payload data,
                                         disk::IoPriority prio,
                                         obs::TraceContext ctx) {
  const std::uint32_t bs = block_bytes();
  const auto nblocks = static_cast<std::uint32_t>(data.size() / bs);
  const std::uint32_t width = layout_.stripe_width();
  if (params_.raid5_full_stripe_writes && lba % width == 0 &&
      nblocks == width) {
    co_await full_stripe_write(client, layout_.stripe_of(lba), data, prio,
                               ctx);
  } else if (params_.raid5_full_stripe_writes) {
    co_await rmw_write(client, lba, data, prio, ctx);
  } else {
    // Per-block read-modify-write: the request stream a 1999 block layer
    // hands the driver.  Blocks go one at a time; each pays the 4-op RMW
    // and they contend on the stripe's parity disk -- the small-write
    // problem, now also visible on large sequential writes.
    for (std::uint32_t i = 0; i < nblocks; ++i) {
      co_await rmw_write(client, lba + i,
                         data.slice(static_cast<std::size_t>(i) *
                                        block_bytes(),
                                    block_bytes()),
                         prio, ctx);
    }
  }
}

sim::Task<> Raid5Controller::full_stripe_write(
    int client, std::uint64_t stripe, const block::Payload& data,
    disk::IoPriority prio, obs::TraceContext ctx) {
  const std::uint32_t bs = block_bytes();
  const std::uint32_t width = layout_.stripe_width();
  const std::uint64_t first = layout_.stripe_first_lba(stripe);

  // XOR of all-zero data is all-zero: the zero-run skips the byte math but
  // the simulated XOR cost below is always charged.
  block::Payload parity;
  if (data.is_zeros()) {
    parity = block::Payload::zeros(bs);
  } else {
    std::vector<std::byte> acc(bs, std::byte{0});
    for (std::uint32_t j = 0; j < width; ++j) {
      block::xor_into(acc, data.slice(static_cast<std::size_t>(j) * bs, bs));
    }
    parity = block::Payload(std::move(acc));
  }
  co_await xor_cpu(client, data.size());

  sim::Joiner join(sim());
  auto write_one = [](Raid5Controller* self, int c, block::PhysBlock pb,
                      block::Payload payload, disk::IoPriority prio,
                      obs::TraceContext ctx) -> sim::Task<> {
    cdd::Reply r = co_await self->fabric_.write(c, pb.disk, pb.offset,
                                                std::move(payload), prio,
                                                ctx);
    (void)r;  // a failed disk is tolerated; parity or data covers it
  };
  for (std::uint32_t j = 0; j < width; ++j) {
    join.spawn(write_one(this, client, layout_.data_location(first + j),
                         data.slice(static_cast<std::size_t>(j) * bs, bs),
                         prio, ctx));
  }
  join.spawn(write_one(this, client, layout_.parity_location(stripe),
                       std::move(parity), prio, ctx));
  co_await join.wait();
}

sim::Task<> Raid5Controller::rmw_write(int client, std::uint64_t lba,
                                       block::Payload data,
                                       disk::IoPriority prio,
                                       obs::TraceContext ctx) {
  const std::uint32_t bs = block_bytes();
  const auto nblocks = static_cast<std::uint32_t>(data.size() / bs);
  const std::uint64_t stripe = layout_.stripe_of(lba);
  assert(layout_.stripe_of(lba + nblocks - 1) == stripe &&
         "write_chunk never crosses a stripe");

  // Read old data and old parity in parallel.
  std::vector<cdd::Reply> old_data(nblocks);
  cdd::Reply old_parity;
  {
    sim::Joiner join(sim());
    auto read_one = [](Raid5Controller* self, int c, block::PhysBlock pb,
                       cdd::Reply* out, disk::IoPriority prio,
                       obs::TraceContext ctx) -> sim::Task<> {
      *out = co_await self->fabric_.read(c, pb.disk, pb.offset, 1, prio,
                                         ctx);
    };
    for (std::uint32_t i = 0; i < nblocks; ++i) {
      join.spawn(read_one(this, client, layout_.data_location(lba + i),
                          &old_data[i], prio, ctx));
    }
    join.spawn(read_one(this, client, layout_.parity_location(stripe),
                        &old_parity, prio, ctx));
    co_await join.wait();
  }

  const bool target_failed = std::any_of(
      old_data.begin(), old_data.end(),
      [](const cdd::Reply& r) { return !r.ok; });

  block::Payload parity;
  if (!target_failed && old_parity.ok) {
    // Classic RMW: new_parity = old_parity ^ old_data ^ new_data.  When
    // every operand is a zero-run (pure-timing sweeps) so is the result;
    // the simulated XOR cost is charged regardless.
    bool all_zero = old_parity.data.is_zeros() && data.is_zeros();
    for (std::uint32_t i = 0; all_zero && i < nblocks; ++i) {
      all_zero = old_data[i].data.is_zeros();
    }
    if (all_zero) {
      parity = block::Payload::zeros(bs);
    } else {
      std::vector<std::byte> acc = old_parity.data.to_vector();
      for (std::uint32_t i = 0; i < nblocks; ++i) {
        block::xor_into(acc, old_data[i].data);
        block::xor_into(acc,
                        data.slice(static_cast<std::size_t>(i) * bs, bs));
      }
      parity = block::Payload(std::move(acc));
    }
    co_await xor_cpu(client, 3 * data.size());
  } else {
    // Degraded reconstruct-write: parity = XOR of every live data block of
    // the stripe with the new contents substituted in.
    const std::uint32_t width = layout_.stripe_width();
    const std::uint64_t first = layout_.stripe_first_lba(stripe);
    sim::Joiner join(sim());
    std::vector<cdd::Reply> others(width);
    std::vector<char> was_read(width, 0);
    auto read_other = [](Raid5Controller* self, int c, block::PhysBlock pb,
                         cdd::Reply* out, disk::IoPriority prio,
                         obs::TraceContext ctx) -> sim::Task<> {
      *out = co_await self->fabric_.read(c, pb.disk, pb.offset, 1, prio,
                                         ctx);
    };
    for (std::uint32_t j = 0; j < width; ++j) {
      const std::uint64_t b = first + j;
      if (b >= lba && b < lba + nblocks) continue;  // being overwritten
      was_read[j] = 1;
      join.spawn(read_other(this, client, layout_.data_location(b),
                            &others[j], prio, ctx));
    }
    co_await join.wait();
    bool all_zero = data.is_zeros();
    for (std::uint32_t j = 0; j < width; ++j) {
      if (was_read[j]) {
        if (!others[j].ok) {
          throw IoError("RAID-5: double failure in stripe " +
                        std::to_string(stripe));
        }
        if (!others[j].data.is_zeros()) all_zero = false;
      }
    }
    if (all_zero) {
      parity = block::Payload::zeros(bs);
    } else {
      std::vector<std::byte> acc(bs, std::byte{0});
      for (std::uint32_t j = 0; j < width; ++j) {
        const std::uint64_t b = first + j;
        if (b >= lba && b < lba + nblocks) {
          block::xor_into(
              acc, data.slice(static_cast<std::size_t>(b - lba) * bs, bs));
        } else if (was_read[j]) {
          block::xor_into(acc, others[j].data);
        }
      }
      parity = block::Payload(std::move(acc));
    }
    co_await xor_cpu(client,
                     static_cast<std::uint64_t>(width) * bs);
  }

  // Write new data and new parity in parallel.
  {
    sim::Joiner join(sim());
    auto write_one = [](Raid5Controller* self, int c, block::PhysBlock pb,
                        block::Payload payload, disk::IoPriority prio,
                        obs::TraceContext ctx) -> sim::Task<> {
      co_await self->fabric_.write(c, pb.disk, pb.offset,
                                   std::move(payload), prio, ctx);
    };
    for (std::uint32_t i = 0; i < nblocks; ++i) {
      join.spawn(write_one(
          this, client, layout_.data_location(lba + i),
          data.slice(static_cast<std::size_t>(i) * bs, bs), prio, ctx));
    }
    join.spawn(write_one(this, client, layout_.parity_location(stripe),
                         std::move(parity), prio, ctx));
    co_await join.wait();
  }
}

void Raid5Controller::preload(std::uint64_t lba,
                              std::span<const std::byte> data) {
  ArrayController::preload(lba, data);
  // Recompute the parity of every touched stripe from the placed contents.
  const std::uint32_t bs = block_bytes();
  const std::uint32_t width = layout_.stripe_width();
  const auto nblocks = static_cast<std::uint32_t>(data.size() / bs);
  auto& cluster = fabric_.cluster();
  const std::uint64_t first_stripe = layout_.stripe_of(lba);
  const std::uint64_t last_stripe = layout_.stripe_of(lba + nblocks - 1);
  for (std::uint64_t s = first_stripe; s <= last_stripe; ++s) {
    std::vector<std::byte> parity(bs, std::byte{0});
    for (std::uint32_t j = 0; j < width; ++j) {
      const block::PhysBlock pb =
          layout_.data_location(layout_.stripe_first_lba(s) + j);
      block::xor_into(parity, cluster.disk(pb.disk).read_payload(pb.offset, 1));
    }
    const block::PhysBlock pp = layout_.parity_location(s);
    cluster.disk(pp.disk).write_data(pp.offset, parity);
  }
}

// --------------------------------------------------------------- RAID-10 --

Raid10Controller::Raid10Controller(cdd::CddFabric& fabric,
                                   EngineParams params)
    : ArrayController(fabric, params),
      layout_(fabric.cluster().geometry(), params.hybrid_mirrors) {}

// ---------------------------------------------------------------- RAID-1 --

Raid1Controller::Raid1Controller(cdd::CddFabric& fabric, EngineParams params)
    : ArrayController(fabric, params), layout_(fabric.cluster().geometry()) {}

// ---------------------------------------------------------------- RAID-x --

RaidxController::RaidxController(cdd::CddFabric& fabric, EngineParams params)
    : ArrayController(fabric, params),
      layout_(fabric.cluster().geometry(), params.hybrid_mirrors) {}

sim::Task<> RaidxController::read_chunk(int client, std::uint64_t lba,
                                        std::uint32_t nblocks,
                                        std::span<std::byte> out,
                                        obs::TraceContext ctx) {
  if (!params_.balance_mirror_reads || nblocks != 1) {
    return ArrayController::read_chunk(client, lba, nblocks, out, ctx);
  }
  return read_balanced_block(client, lba, out, ctx);
}

sim::Task<> RaidxController::read_balanced_block(int client,
                                                 std::uint64_t lba,
                                                 std::span<std::byte> out,
                                                 obs::TraceContext ctx) {
  // Spread single-block reads over the two copies; a failed copy falls
  // back to the other through the degraded path.
  const block::PhysBlock first = lba % 2 == 1
                                     ? layout_.mirror_locations(lba)[0]
                                     : layout_.data_location(lba);
  const std::uint64_t lbas[1] = {lba};
  co_await read_extent_into(client,
                            block::PhysExtent{first.disk, first.offset, 1},
                            lbas, lba, out, ctx);
}

sim::Task<> RaidxController::flush_stripe_images(
    int client, std::uint64_t stripe, block::Payload stripe_data,
    obs::TraceContext ctx) {
  const std::uint32_t bs = block_bytes();
  const RaidxLayout::StripeImages imgs = layout_.stripe_images(stripe);
  const std::uint64_t first = layout_.stripe_first_lba(stripe);

  if (params_.clustered_images) {
    // Buffer every image in this stripe while the clustered run is in
    // flight; degraded reads serve from here instead of the stale disk.
    const std::uint64_t seq = ++pending_image_seq_;
    for (std::uint32_t i = 0; i < imgs.clustered.nblocks; ++i) {
      const std::uint64_t l = imgs.clustered_lbas[i];
      pending_images_[l] = PendingImage{
          seq, stripe_data.slice(static_cast<std::size_t>(l - first) * bs,
                                 bs)};
    }
    pending_images_[imgs.neighbor_lba] = PendingImage{
        seq,
        stripe_data.slice(
            static_cast<std::size_t>(imgs.neighbor_lba - first) * bs, bs)};

    // One long sequential write of the n-1 clustered images...
    sim::Joiner join(sim());
    auto write_run = [](RaidxController* self, int c, block::PhysExtent e,
                        block::Payload p,
                        obs::TraceContext ctx) -> sim::Task<> {
      co_await self->fabric_.write(c, e.disk, e.offset, std::move(p),
                                   disk::IoPriority::kBackground, ctx);
    };
    auto write_neighbor = [](RaidxController* self, int c,
                             block::PhysBlock pb, block::Payload p,
                             obs::TraceContext ctx) -> sim::Task<> {
      co_await self->fabric_.write(c, pb.disk, pb.offset, std::move(p),
                                   disk::IoPriority::kBackground, ctx);
    };
    join.spawn(write_run(
        this, client, imgs.clustered,
        gather(stripe_data,
               std::span<const std::uint64_t>(imgs.clustered_lbas.data(),
                                              imgs.clustered.nblocks),
               first, bs),
        ctx));
    // ...plus the single neighbor image.
    join.spawn(write_neighbor(
        this, client, imgs.neighbor,
        stripe_data.slice(
            static_cast<std::size_t>(imgs.neighbor_lba - first) * bs, bs),
        ctx));
    co_await join.wait();

    for (std::uint32_t i = 0; i <= imgs.clustered.nblocks; ++i) {
      const std::uint64_t l = i < imgs.clustered.nblocks
                                  ? imgs.clustered_lbas[i]
                                  : imgs.neighbor_lba;
      const auto it = pending_images_.find(l);
      if (it != pending_images_.end() && it->second.seq == seq) {
        pending_images_.erase(it);
      }
    }
  } else {
    // Ablation: scatter n individual image writes (declustering-style).
    sim::Joiner join(sim());
    for (std::uint32_t j = 0;
         j < static_cast<std::uint32_t>(layout_.geometry().nodes); ++j) {
      const std::uint64_t lba = first + j;
      join.spawn(flush_block_image(
          client, lba,
          stripe_data.slice(static_cast<std::size_t>(j) * bs, bs), ctx));
    }
    co_await join.wait();
  }
}

sim::Task<> RaidxController::flush_block_image(int client, std::uint64_t lba,
                                               block::Payload data,
                                               obs::TraceContext ctx) {
  const block::PhysBlock img = layout_.mirror_locations(lba)[0];
  const std::uint64_t seq = ++pending_image_seq_;
  pending_images_[lba] = PendingImage{seq, data};
  co_await fabric_.write(client, img.disk, img.offset, std::move(data),
                         disk::IoPriority::kBackground, ctx);
  const auto it = pending_images_.find(lba);
  if (it != pending_images_.end() && it->second.seq == seq) {
    pending_images_.erase(it);
  }
}

sim::Task<> RaidxController::write_chunk(int client, std::uint64_t lba,
                                         block::Payload data,
                                         disk::IoPriority prio,
                                         obs::TraceContext ctx) {
  const std::uint32_t bs = block_bytes();
  const auto nblocks = static_cast<std::uint32_t>(data.size() / bs);
  const std::uint32_t width = layout_.stripe_width();
  const bool full_stripe = (lba % width == 0 && nblocks == width);

  // Foreground: the data blocks, striped in parallel.
  std::vector<char> ok(nblocks, 0);
  {
    sim::Joiner join(sim());
    auto write_one = [](RaidxController* self, int c, block::PhysBlock pb,
                        block::Payload payload, char* ok_out,
                        disk::IoPriority prio,
                        obs::TraceContext ctx) -> sim::Task<> {
      cdd::Reply r = co_await self->fabric_.write(c, pb.disk, pb.offset,
                                                  std::move(payload), prio,
                                                  ctx);
      *ok_out = r.ok ? 1 : 0;
    };
    for (std::uint32_t i = 0; i < nblocks; ++i) {
      join.spawn(write_one(
          this, client, layout_.data_location(lba + i),
          data.slice(static_cast<std::size_t>(i) * bs, bs), &ok[i], prio,
          ctx));
    }
    co_await join.wait();
  }

  // Any block whose data disk failed gets its image written in the
  // foreground -- the image is then the only durable copy.
  for (std::uint32_t i = 0; i < nblocks; ++i) {
    if (!ok[i]) {
      cdd::Reply r;
      const block::PhysBlock img = layout_.mirror_locations(lba + i)[0];
      r = co_await fabric_.write(
          client, img.disk, img.offset,
          data.slice(static_cast<std::size_t>(i) * bs, bs), prio, ctx);
      if (!r.ok) {
        throw IoError("RAID-x: block " + std::to_string(lba + i) +
                      " lost data disk and image disk");
      }
    }
  }

  // Mirror images -- deferred to the background (the OSM trick), unless the
  // ablation runs them synchronously.  Deferred flushes drop the
  // attribution reference: they run past the request's close, and their
  // disk/net time is not part of the latency the client saw.  The
  // synchronous ablation keeps it -- there the image write *is* request
  // time.
  obs::TraceContext fctx = ctx;
  if (params_.background_mirrors) fctx.attr = 0;
  if (full_stripe) {
    auto flush = flush_stripe_images(client, layout_.stripe_of(lba), data,
                                     fctx);
    if (params_.background_mirrors) {
      sim().spawn(background(std::move(flush)));
    } else {
      co_await std::move(flush);
    }
  } else {
    for (std::uint32_t i = 0; i < nblocks; ++i) {
      if (!ok[i]) continue;  // already written in the foreground
      auto flush = flush_block_image(
          client, lba + i,
          data.slice(static_cast<std::size_t>(i) * bs, bs), fctx);
      if (params_.background_mirrors) {
        sim().spawn(background(std::move(flush)));
      } else {
        co_await std::move(flush);
      }
    }
  }
}

}  // namespace raidx::raid
