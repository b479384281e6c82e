#include "cache/cache_fabric.hpp"

#include <algorithm>
#include <cassert>

namespace raidx::cache {

CacheFabric::CacheFabric(cluster::Cluster& cluster, CacheParams params)
    : cluster_(cluster), params_(params) {
  caches_.reserve(static_cast<std::size_t>(cluster.num_nodes()));
  for (int i = 0; i < cluster.num_nodes(); ++i) {
    caches_.push_back(std::make_unique<NodeCache>(
        params_.capacity_blocks, cluster.geometry().block_bytes,
        params_.eviction));
  }
}

void CacheFabric::directory_add(std::uint64_t lba, int node) {
  auto& holders = directory_[lba];
  if (std::find(holders.begin(), holders.end(), node) == holders.end()) {
    holders.push_back(node);
  }
  if (directory_.size() > stats_.directory_peak_entries) {
    stats_.directory_peak_entries = directory_.size();
  }
  if (holders.size() > stats_.directory_peak_sharers) {
    stats_.directory_peak_sharers = holders.size();
  }
}

void CacheFabric::directory_remove(std::uint64_t lba, int node) {
  auto it = directory_.find(lba);
  if (it == directory_.end()) return;
  auto& holders = it->second;
  holders.erase(std::remove(holders.begin(), holders.end(), node),
                holders.end());
  if (holders.empty()) directory_.erase(it);
}

sim::Task<> CacheFabric::one_way(int from, int to, std::uint64_t bytes,
                                 obs::TraceContext ctx) {
  co_await cluster_.node(from).cpu_work(bytes);
  co_await cluster_.network().transmit(from, to, bytes, ctx);
  co_await cluster_.node(to).cpu_work(bytes);
}

void CacheFabric::post_notice(int from, int to) {
  if (from == to) return;
  cluster_.sim().spawn(one_way(from, to, kCacheHeaderBytes));
}

sim::Task<bool> CacheFabric::read_block(int client, int cache_node,
                                        std::uint64_t lba,
                                        std::span<std::byte> out,
                                        obs::TraceContext ctx) {
  const std::uint32_t bs = cluster_.geometry().block_bytes;
  assert(out.size() == bs);
  NodeCache& local = cache(cache_node);

  // hit tag: 0 = miss, 1 = local hit, 2 = peer-memory hit.
  obs::Span span = obs::trace_span(
      cluster_.sim(), ctx, "cache.read", obs::Track::kRequest, cache_node,
      [&](obs::SpanArgs& a) {
        a.tag("node", cache_node)
            .tag("lba", static_cast<std::int64_t>(lba));
      });

  if (const block::Payload* hit = local.lookup(lba)) {
    ++stats_.hits;
    span.tag("hit", 1);
    // Functional copy happens now; the latency below models the memcpy and
    // (for a server-side cache) the wire round trip.
    hit->copy_to(out);
    if (cache_node != client) {
      co_await cluster_.node(client).cpu_work(kCacheHeaderBytes);
      co_await cluster_.network().transmit(client, cache_node,
                                           kCacheHeaderBytes, span.ctx());
    }
    co_await cluster_.node(cache_node).compute(
        params_.lookup_overhead +
        static_cast<sim::Time>(params_.mem_ns_per_byte * bs));
    if (cache_node != client) {
      co_await cluster_.node(cache_node).cpu_work(kCacheHeaderBytes + bs);
      co_await cluster_.network().transmit(cache_node, client,
                                           kCacheHeaderBytes + bs,
                                           span.ctx());
      co_await cluster_.node(client).cpu_work(kCacheHeaderBytes + bs);
    }
    co_return true;
  }

  {
    // Consult the home-node directory for a peer holding the block.  A
    // *dirty* peer copy (write-back, not yet flushed) makes the disk stale,
    // so forwarding from it is mandatory for coherence even when the
    // cooperative feature is off; clean copies are only forwarded when
    // cooperative hit-forwarding is enabled (disk has the same bytes, so
    // skipping them is merely slower, never wrong).
    auto it = directory_.find(lba);
    int peer = -1;
    if (it != directory_.end()) {
      std::vector<int> clean;
      for (int holder : it->second) {
        if (holder == cache_node) continue;
        // A holder whose node is partitioned/dead cannot answer a forward
        // request; asking it would burn a full client-side timeout per
        // read.  The link-state check models what the directory learns
        // from its own failed forwards.
        if (!cluster_.network().node_up(holder)) {
          ++stats_.dead_holder_skips;
          continue;
        }
        const NodeCache& pc = cache(holder);
        if (!pc.contains(lba)) continue;
        if (pc.dirty(lba)) {
          peer = holder;
          break;
        }
        if (params_.cooperative) clean.push_back(holder);
      }
      if (peer < 0 && !clean.empty()) {
        // Rotate across the replica holders (deterministically, so runs
        // stay reproducible): a hot block's forwards spread over every
        // copy's uplink instead of hammering the first registrant.
        peer = clean[(lba + static_cast<std::uint64_t>(cache_node)) %
                     clean.size()];
      }
    }
    if (peer >= 0) {
      ++stats_.peer_hits;
      span.tag("hit", 2);
      span.tag("peer", peer);
      const block::Payload data = *cache(peer).peek(lba);
      data.copy_to(out);
      // Install a clean replica at the requester immediately (sharing the
      // peer's buffer): the directory knows about it from this instant, so
      // a later write invalidates it.
      local.insert(lba, data, /*dirty=*/false);
      directory_add(lba, cache_node);
      shed_overflow(cache_node);
      // requester -> home (lookup), home -> peer (forward), peer -> requester
      // (payload): three one-way hops, the hit-forwarding path.
      const int home = home_of(lba);
      if (cache_node != home) {
        co_await one_way(cache_node, home, kCacheHeaderBytes, span.ctx());
      }
      if (home != peer) {
        co_await one_way(home, peer, kCacheHeaderBytes, span.ctx());
      }
      co_await cluster_.node(peer).compute(
          params_.lookup_overhead +
          static_cast<sim::Time>(params_.mem_ns_per_byte * bs));
      if (peer != cache_node) {
        co_await one_way(peer, cache_node, kCacheHeaderBytes + bs,
                         span.ctx());
      }
      if (cache_node != client) {
        co_await cluster_.node(cache_node).cpu_work(kCacheHeaderBytes + bs);
        co_await cluster_.network().transmit(cache_node, client,
                                             kCacheHeaderBytes + bs,
                                             span.ctx());
        co_await cluster_.node(client).cpu_work(kCacheHeaderBytes + bs);
      }
      co_return true;
    }
  }

  // Miss: charge nothing here -- the disk path pays full price and the
  // directory probe rides the request traffic the client sends anyway.
  ++stats_.misses;
  span.tag("hit", 0);
  co_return false;
}

void CacheFabric::fill(int cache_node, std::uint64_t lba,
                       std::span<const std::byte> data, std::uint64_t epoch) {
  // A write bumped the epoch while this reader was at the disks: the bytes
  // it brought back are stale and must not resurrect an invalidated copy.
  if (write_epoch(lba) != epoch) return;
  NodeCache& local = cache(cache_node);
  if (local.contains(lba)) return;  // raced with another fill or a write
  ++stats_.fills;
  local.insert(lba, block::Payload::copy(data), /*dirty=*/false);
  directory_add(lba, cache_node);
  post_notice(cache_node, home_of(lba));  // registration
  shed_overflow(cache_node);
}

sim::Task<std::uint64_t> CacheFabric::write_block(
    int cache_node, std::uint64_t lba, block::Payload data, bool dirty,
    bool piggybacked, bool through, obs::TraceContext ctx) {
  const std::uint32_t bs = cluster_.geometry().block_bytes;
  obs::Span span = obs::trace_span(
      cluster_.sim(), ctx, "cache.write", obs::Track::kRequest, cache_node,
      [&](obs::SpanArgs& a) {
        a.tag("node", cache_node)
            .tag("lba", static_cast<std::int64_t>(lba))
            .tag("dirty", dirty ? 1 : 0)
            .tag("through", through ? 1 : 0);
      });
  NodeCache& local = cache(cache_node);
  const std::uint64_t epoch = ++write_epoch_[lba];
  if (through) ++wt_inflight_[lba];
  local.insert(lba, std::move(data), dirty);
  if (dirty && !through) ++stats_.writes_absorbed;

  // Invalidate every other copy *functionally now*, inside the writer's
  // critical section -- this is what keeps coherence byte-exact.  The
  // notices either piggyback on the lock grant/release broadcasts (free)
  // or go out as explicit one-way messages.
  auto it = directory_.find(lba);
  if (it != directory_.end()) {
    const int home = home_of(lba);
    std::vector<int> peers;
    for (int holder : it->second) {
      if (holder != cache_node) peers.push_back(holder);
    }
    for (int peer : peers) {
      cache(peer).invalidate(lba);
      directory_remove(lba, peer);
      ++stats_.invalidations;
      if (!piggybacked) post_notice(home, peer);
    }
    if (!peers.empty() && !piggybacked) post_notice(cache_node, home);
  }
  directory_add(lba, cache_node);

  // The absorbing memcpy.
  co_await cluster_.node(cache_node).compute(
      params_.lookup_overhead +
      static_cast<sim::Time>(params_.mem_ns_per_byte * bs));
  shed_overflow(cache_node);
  co_return epoch;
}

bool CacheFabric::end_write_through(int node, std::uint64_t lba,
                                    std::uint64_t epoch, bool ok) {
  auto it = wt_inflight_.find(lba);
  assert(it != wt_inflight_.end() && it->second > 0);
  if (--it->second == 0) wt_inflight_.erase(it);
  if (write_epoch(lba) != epoch) {
    // A later write superseded this one; that writer (or the flusher
    // behind it) owns convergence now.
    return true;
  }
  if (!ok) return false;  // disk write failed: the dirty copy is the data
  if (wt_inflight(lba) != 0) {
    // A straggling same-block writer could still land stale bytes after
    // us; stay dirty so the flush protocol re-writes current bytes later.
    return false;
  }
  NodeCache& c = cache(node);
  c.mark_clean(lba, c.version(lba));
  return true;
}

std::optional<std::uint64_t> CacheFabric::begin_flush(int node) {
  NodeCache& c = cache(node);
  auto lba = c.oldest_dirty();
  if (lba) c.set_busy(*lba, true);
  return lba;
}

std::optional<CacheFabric::DirtySnapshot> CacheFabric::resnapshot(
    int node, std::uint64_t lba) {
  const NodeCache& c = cache(node);
  if (!c.dirty(lba)) return std::nullopt;
  return DirtySnapshot{c.version(lba), *c.peek(lba)};
}

void CacheFabric::end_flush(int node, std::uint64_t lba,
                            std::uint64_t version, bool ok) {
  NodeCache& c = cache(node);
  c.set_busy(lba, false);
  // version 0 means no disk write actually happened (the entry was cleaned
  // or invalidated before the flush got its locks) -- nothing to count.
  // A pending write-through disk write vetoes the clean: its (possibly
  // stale) bytes may still land after this flush's write.
  if (ok && version != 0 && wt_inflight(lba) == 0 &&
      c.mark_clean(lba, version)) {
    ++stats_.flushes;
  }
}

void CacheFabric::shed_overflow(int node) {
  NodeCache& c = cache(node);
  while (c.over_capacity()) {
    auto victim = c.pick_victim();
    if (!victim) break;  // only dirty/busy entries left; flusher's job
    c.invalidate(*victim);
    directory_remove(*victim, node);
    ++stats_.evictions;
    post_notice(node, home_of(*victim));  // directory drop-out
  }
}

bool CacheFabric::needs_flush(int node) const {
  if (!params_.enabled() ||
      params_.write_policy != WritePolicy::kWriteBack) {
    return false;
  }
  const NodeCache& c = cache(node);
  const auto high = static_cast<std::size_t>(
      params_.dirty_high_water *
      static_cast<double>(params_.capacity_blocks));
  return c.dirty_blocks() > high || (c.over_capacity() && c.dirty_blocks() > 0);
}

bool CacheFabric::flushed_enough(int node) const {
  const NodeCache& c = cache(node);
  if (c.over_capacity() && c.dirty_blocks() > 0) return false;
  const auto low = static_cast<std::size_t>(
      params_.dirty_low_water * static_cast<double>(params_.capacity_blocks));
  return c.dirty_blocks() <= low;
}

void CacheFabric::set_pinned_range(std::uint64_t lo, std::uint64_t hi) {
  for (auto& c : caches_) c->set_pinned_range(lo, hi);
}

void CacheFabric::drop_node(int node) {
  NodeCache& c = cache(node);
  assert(c.dirty_blocks() == 0 && "flush before dropping a cache");
  for (auto it = directory_.begin(); it != directory_.end();) {
    auto& holders = it->second;
    holders.erase(std::remove(holders.begin(), holders.end(), node),
                  holders.end());
    it = holders.empty() ? directory_.erase(it) : std::next(it);
  }
  c.clear();
}

void CacheFabric::invalidate_for_repair(std::uint64_t lba) {
  if (!params_.enabled()) return;
  // Epoch bump first: a reader already at the disks when the repair wrote
  // the block must not fill() whatever bytes it saw.
  ++write_epoch_[lba];
  auto it = directory_.find(lba);
  if (it == directory_.end()) return;
  const int home = home_of(lba);
  std::vector<int> clean;
  for (int holder : it->second) {
    if (!cache(holder).dirty(lba)) clean.push_back(holder);
  }
  for (int holder : clean) {
    cache(holder).invalidate(lba);
    directory_remove(lba, holder);
    ++stats_.invalidations;
    post_notice(home, holder);
  }
}

void CacheFabric::on_node_down(int node) {
  NodeCache& c = cache(node);
  stats_.dirty_lost += c.dirty_blocks();
  for (auto it = directory_.begin(); it != directory_.end();) {
    auto& holders = it->second;
    holders.erase(std::remove(holders.begin(), holders.end(), node),
                  holders.end());
    it = holders.empty() ? directory_.erase(it) : std::next(it);
  }
  c.clear();
}

}  // namespace raidx::cache
