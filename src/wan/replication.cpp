#include "wan/replication.hpp"

#include <algorithm>

#include "wan/federation.hpp"

namespace raidx::wan {

namespace {
/// Back off after a shipment that failed for a reason other than a hard
/// partition (a source read or destination apply hitting a failed disk):
/// retrying at the same instant would spin without advancing time.
constexpr sim::Time kRetryBackoff = sim::milliseconds(50);
}  // namespace

Replicator::Replicator(Federation& fed, ReplicationParams params)
    : fed_(fed), params_(params), sites_(fed.sites()) {
  streams_.resize(static_cast<std::size_t>(sites_) *
                  static_cast<std::size_t>(sites_));
  if (params_.ship_mbs > 0.0) {
    const double batch_bytes = static_cast<double>(params_.batch_blocks) *
                               static_cast<double>(fed_.block_bytes());
    for (int src = 0; src < sites_; ++src) {
      for (int dst = 0; dst < sites_; ++dst) {
        if (src == dst) continue;
        streams_[index(src, dst)].throttle =
            std::make_unique<sim::TokenBucket>(
                fed_.sim(), params_.ship_mbs * 1e6,
                std::max(batch_bytes, params_.ship_mbs * 1e5));
      }
    }
  }
}

Replicator::~Replicator() = default;

void Replicator::start() {
  if (started_) return;
  started_ = true;
  for (int src = 0; src < sites_; ++src) {
    for (int dst = 0; dst < sites_; ++dst) {
      if (src != dst) fed_.sim().spawn(shipper(src, dst));
    }
  }
}

void Replicator::note_write(int site, std::uint64_t lba,
                            std::uint32_t nblocks) {
  const sim::Time now = fed_.sim().now();
  for (int dst = 0; dst < sites_; ++dst) {
    if (dst == site) continue;
    Stream& st = streams_[index(site, dst)];
    ++st.stats.appended;
    auto it = st.queued.find(lba);
    if (it != st.queued.end()) {
      // Same block already waiting: the shipper reads bytes at ship time,
      // so the queued entry covers this write too (widened if needed).
      ++st.stats.coalesced;
      if (nblocks > it->second) {
        it->second = nblocks;
        for (Entry& e : st.queue) {
          if (e.lba == lba) {
            e.nblocks = std::max(e.nblocks, nblocks);
            break;
          }
        }
      }
      continue;
    }
    st.queued.emplace(lba, nblocks);
    st.queue.push_back(Entry{lba, nblocks, now});
    ++st.stats.backlog;
    st.stats.peak_backlog =
        std::max(st.stats.peak_backlog, st.stats.backlog);
    if (st.work) st.work->set();
  }
}

sim::Task<> Replicator::shipper(int src, int dst) {
  Stream& st = streams_[index(src, dst)];
  Link& link = fed_.link_between(src, dst);
  const std::uint32_t bs = fed_.block_bytes();
  std::vector<std::byte> buf;
  std::vector<Entry> batch;
  std::vector<block::Payload> payloads;

  // Re-queue a failed batch at the front, from `from` on: apply order at
  // the destination stays append order.  An entry whose LBA was
  // re-appended while the batch was in flight is dropped (the newer queue
  // entry will ship newer bytes anyway).
  const auto requeue = [&st](std::vector<Entry>& failed, std::size_t from) {
    for (std::size_t i = failed.size(); i > from; --i) {
      const Entry& e = failed[i - 1];
      if (st.queued.contains(e.lba)) {
        ++st.stats.coalesced;
        --st.stats.backlog;
        continue;
      }
      st.queued.emplace(e.lba, e.nblocks);
      st.queue.push_front(e);
    }
  };

  for (;;) {
    if (st.queue.empty()) {
      if (st.stats.backlog != 0) st.stats.backlog = 0;
      // Park without a pending event: an idle stream never keeps the
      // simulation alive.  The next append sets the trigger.
      st.work = std::make_unique<sim::Trigger>(fed_.sim());
      co_await st.work->wait();
      st.work.reset();
      continue;
    }
    if (!link.up()) {
      // Partitioned: the backlog ages in place until the heal trigger.
      co_await link.wait_up();
      continue;
    }

    batch.clear();
    payloads.clear();
    std::uint64_t blocks = 0;
    while (!st.queue.empty() &&
           (batch.empty() ||
            blocks + st.queue.front().nblocks <= params_.batch_blocks)) {
      Entry e = st.queue.front();
      st.queue.pop_front();
      st.queued.erase(e.lba);
      blocks += e.nblocks;
      batch.push_back(e);
    }
    const std::uint64_t bytes = blocks * bs;

    bool ok = true;
    try {
      // Catch-up throttle: the same token-bucket discipline as rebuild
      // sweeps, tokens are bytes.
      if (st.throttle) co_await st.throttle->acquire(bytes);
      // Read the *current* primary bytes at the home site (coalescing
      // means only the newest version ever crosses the WAN), charging
      // the home site's own read path.
      for (const Entry& e : batch) {
        buf.assign(static_cast<std::size_t>(e.nblocks) * bs, std::byte{0});
        co_await fed_.engine(src).read(fed_.gateway(e.lba), e.lba,
                                       e.nblocks, buf);
        payloads.push_back(block::Payload::copy(buf));
      }
      ok = co_await link.transfer(src, bytes);
      if (ok) st.stats.bytes_shipped += bytes;
    } catch (const raid::IoError&) {
      ok = false;
    }
    if (!ok) {
      ++st.stats.failed_ships;
      requeue(batch, 0);
      if (link.up()) co_await fed_.sim().delay(kRetryBackoff);
      continue;
    }

    // Apply into the destination's geo-mirror region (same LBA -- region
    // symmetry).  The destination's write observer ignores writes outside
    // its own primary region, so applies never re-enter a log.
    std::size_t applied = 0;
    bool apply_failed = false;
    for (; applied < batch.size(); ++applied) {
      const Entry& e = batch[applied];
      try {
        co_await fed_.engine(dst).write(fed_.gateway(e.lba), e.lba,
                                        payloads[applied]);
      } catch (const raid::IoError&) {
        apply_failed = true;
        break;
      }
      const sim::Time lag = fed_.sim().now() - e.appended;
      lag_.observe(static_cast<std::uint64_t>(lag));
      st.stats.max_lag = std::max(st.stats.max_lag, lag);
      if (lag > params_.staleness_bound) ++st.stats.staleness_violations;
      ++st.stats.shipped;
      --st.stats.backlog;
    }
    if (apply_failed) {
      ++st.stats.failed_ships;
      requeue(batch, applied);  // the throwing entry is retried too
      co_await fed_.sim().delay(kRetryBackoff);
      continue;
    }
    if (st.queue.empty()) st.stats.last_drain = fed_.sim().now();
  }
}

StreamStats Replicator::totals() const {
  // The diagonal (src == dst) streams never carry an entry, so summing
  // every stream is exact.
  StreamStats t;
  for (const Stream& st : streams_) {
    const StreamStats& s = st.stats;
    t.appended += s.appended;
    t.coalesced += s.coalesced;
    t.shipped += s.shipped;
    t.failed_ships += s.failed_ships;
    t.bytes_shipped += s.bytes_shipped;
    t.backlog += s.backlog;
    t.peak_backlog = std::max(t.peak_backlog, s.peak_backlog);
    t.last_drain = std::max(t.last_drain, s.last_drain);
    t.max_lag = std::max(t.max_lag, s.max_lag);
    t.staleness_violations += s.staleness_violations;
  }
  return t;
}

}  // namespace raidx::wan
