// Block repair: rewrite one physically-addressed block whose stored bytes
// failed checksum verification (src/integrity).
//
// Repair is a miniature, single-block rebuild: re-derive the block's
// correct contents from the layout's redundancy recipe and write them
// back.  Three rules keep it correct under live traffic:
//  * every repair runs under the lock group a client write of the block
//    would take, so a repair can neither read a half-written source nor
//    stomp a concurrent writer (byte-exact);
//  * every redundancy *source* is read with forced verification
//    (CddFabric::scrub_read) -- copying an unverified source would
//    launder a second latent error into a freshly-checksummed block;
//  * after a successful repair the cooperative cache is told to drop
//    clean copies of the affected logical block, so a cache warmed
//    through an unverified read can never keep serving stale bytes.
// All I/O runs at background disk priority: repair is maintenance and
// yields to foreground traffic.  A slot with no source (RAID-0, or an
// unused slot) gets the explicit verdict: unrecoverable.
#include "raid/controller.hpp"

namespace raidx::raid {

sim::Task<bool> ArrayController::repair_block(int client, int disk_id,
                                              std::uint64_t offset) {
  SlotSource src = layout().source_of(disk_id, offset);
  if (src.kind == SlotSource::Kind::kNone) co_return false;
  obs::Span span = obs::trace_span(
      sim(), {}, "engine.repair", obs::Track::kRequest, client,
      [&](obs::SpanArgs& a) { a.tag("client", client).tag("disk", disk_id); });
  const std::optional<std::uint64_t> lba = src.lba;
  std::vector<std::uint64_t> groups{src.lock_group};
  bool ok = false;
  co_await with_locks(client, std::move(groups),
                      repair_slot(client, block::PhysBlock{disk_id, offset},
                                  std::move(src), &ok, span.ctx()),
                      span.ctx());
  if (ok && lba && cache_ != nullptr && cache_->enabled()) {
    cache_->invalidate_for_repair(*lba);
  }
  co_return ok;
}

sim::Task<> ArrayController::repair_slot(int client, block::PhysBlock slot,
                                         SlotSource src, bool* ok,
                                         obs::TraceContext ctx) {
  std::optional<block::Payload> got =
      co_await recover(client, std::move(src), Fetch::kScrub, ctx);
  if (!got) co_return;
  cdd::Reply w = co_await fabric_.write(client, slot.disk, slot.offset,
                                        std::move(*got),
                                        disk::IoPriority::kBackground, ctx);
  *ok = w.ok;
}

}  // namespace raidx::raid
