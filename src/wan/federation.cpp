#include "wan/federation.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "raid/admission.hpp"

namespace raidx::wan {

/// Hangs on every site engine's write-observer hook: committed client
/// writes inside the site's own primary region feed the replication log.
void Federation::SiteObserver::on_client_write(int client, std::uint64_t lba,
                                               std::uint32_t nblocks) {
  (void)client;
  fed->note_site_write(site, lba, nblocks);
}

Federation::Federation(sim::Simulation& sim, FederationParams params)
    : sim_(sim), params_(std::move(params)) {
  if (params_.sites < 2) {
    throw std::invalid_argument("a federation needs at least 2 sites");
  }
  if (params_.arch == workload::Arch::kNfs) {
    throw std::invalid_argument(
        "the NFS frontend is a single-site architecture: pick a striped "
        "engine for --sites");
  }
  sites_.reserve(static_cast<std::size_t>(params_.sites));
  for (int s = 0; s < params_.sites; ++s) {
    auto site = std::make_unique<Site>(sim_, params_.cluster, params_);
    site->observer.fed = this;
    site->observer.site = s;
    site->engine->set_write_observer(&site->observer);
    worlds_.push_back(site.get());
    sites_.push_back(std::move(site));
  }
  block_bytes_ = sites_[0]->engine->block_bytes();
  region_blocks_ = sites_[0]->engine->logical_blocks() /
                   static_cast<std::uint64_t>(params_.sites);
  if (region_blocks_ == 0) {
    throw std::invalid_argument(
        "array too small: fewer logical blocks than sites");
  }
  // Full mesh; link ids enumerate pairs (0,1), (0,2), ..., (1,2), ... so
  // id order is stable and CLI-predictable.
  for (int a = 0; a < params_.sites; ++a) {
    for (int b = a + 1; b < params_.sites; ++b) {
      links_.push_back(std::make_unique<Link>(
          sim_, static_cast<int>(links_.size()), a, b, params_.link));
    }
  }
  if (params_.geo_rep) {
    replicator_ = std::make_unique<Replicator>(*this, params_.repl);
    replicator_->start();
  }
}

Federation::~Federation() {
  // Frames still suspended may hold the links, which die before the sites.
  sim_.abandon();
  for (auto& s : sites_) s->engine->set_write_observer(nullptr);
}

Link& Federation::link_between(int a, int b) {
  for (auto& l : links_) {
    if (l->joins(a) && l->joins(b)) return *l;
  }
  throw std::logic_error("no link between sites");  // a == b only
}

void Federation::note_site_write(int site, std::uint64_t lba,
                                 std::uint32_t nblocks) {
  if (!replicator_) return;
  // Only writes landing in the site's OWN primary region replicate:
  // mirror applies land in peer regions and must never ping-pong back.
  const std::uint64_t base = region_base(site);
  const std::uint64_t end = base + region_blocks_;
  if (lba < base || lba >= end) return;
  const auto n = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(nblocks, end - lba));
  replicator_->note_write(site, lba, n);
}

std::vector<Link*> Federation::route(int src, int dst) {
  Link& direct = link_between(src, dst);
  if (direct.up()) return {&direct};
  // Origin redirection: the lowest-numbered intermediate with both legs
  // up (deterministic, so two same-seed runs detour identically).
  for (int k = 0; k < params_.sites; ++k) {
    if (k == src || k == dst) continue;
    Link& a = link_between(src, k);
    Link& b = link_between(k, dst);
    if (a.up() && b.up()) return {&a, &b};
  }
  return {};
}

sim::Task<bool> Federation::ship(const std::vector<Link*>& path, int from,
                                 std::uint64_t bytes, obs::TraceContext ctx) {
  int at = from;
  for (Link* l : path) {
    if (!co_await l->transfer(at, bytes, ctx)) co_return false;
    at = l->peer_of(at);
  }
  co_return true;
}

sim::Task<bool> Federation::remote_io(int src, std::uint64_t slot,
                                      std::uint32_t nblocks, bool write) {
  const auto peers = static_cast<std::uint64_t>(params_.sites - 1);
  const int dst =
      (src + 1 + static_cast<int>(slot % peers)) % params_.sites;
  if (nblocks == 0) nblocks = 1;
  // Spread slots over the peer's primary region (bounded so the run never
  // straddles a region edge); the multiplier decorrelates slot and LBA.
  const std::uint64_t span =
      region_blocks_ > nblocks ? region_blocks_ - nblocks : 0;
  const std::uint64_t off =
      span == 0 ? 0 : (slot * 2654435761ull) % (span + 1);
  const std::uint64_t lba = region_base(dst) + off;
  if (write) co_return co_await remote_write(src, lba, nblocks);
  co_return co_await remote_read(src, lba, nblocks);
}

sim::Task<bool> Federation::remote_read(int src, std::uint64_t lba,
                                        std::uint32_t nblocks,
                                        obs::TraceContext ctx) {
  ++stats_.remote_reads;
  const sim::Time started = sim_.now();
  const int home = home_of(lba);
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(nblocks) * block_bytes_;
  std::vector<std::byte> buf(bytes);
  const std::span<std::byte> out(buf);
  Site& s = *sites_[src];

  // 1. The local site's cache fabric: every block must hit for the read
  //    to stay on-site.
  if (s.cache->enabled()) {
    bool all_hit = true;
    for (std::uint32_t i = 0; i < nblocks && all_hit; ++i) {
      const std::uint64_t b = lba + i;
      all_hit = co_await s.cache->read_block(
          gateway(b), gateway(b), b, out.subspan(i * block_bytes_, block_bytes_),
          ctx);
    }
    if (all_hit) {
      ++stats_.cache_hits;
      read_lat_.observe(static_cast<std::uint64_t>(sim_.now() - started));
      co_return true;
    }
  }

  // Epoch snapshots before the WAN fetch: a remote write racing this read
  // invalidates the local cache, and a stale post-fetch install must lose.
  std::vector<std::uint64_t> epochs;
  if (s.cache->enabled()) {
    epochs.reserve(nblocks);
    for (std::uint32_t i = 0; i < nblocks; ++i) {
      epochs.push_back(s.cache->write_epoch(lba + i));
    }
  }

  // 2. The origin over the WAN: request header out, payload back, each
  //    retracing the (possibly redirected) path.
  bool fetched = false;
  const std::vector<Link*> path = route(src, home);
  if (!path.empty()) {
    if (path.size() > 1) ++stats_.redirects;
    bool ok = co_await ship(path, src, 0, ctx);
    if (ok) {
      // The origin answers with the data, or with an error header when
      // its array lost the blocks; either way the reply crosses back.
      bool served = true;
      try {
        co_await sites_[home]->engine->read(gateway(lba), lba, nblocks, out,
                                           ctx);
      } catch (const raid::IoError&) {
        served = false;
      }
      const std::vector<Link*> back(path.rbegin(), path.rend());
      ok = co_await ship(back, home, served ? bytes : 0, ctx);
      if (!served) co_return false;
    }
    if (ok) {
      fetched = true;
      ++stats_.origin_reads;
      stats_.read_bytes += bytes;
      if (s.cache->enabled()) {
        for (std::uint32_t i = 0; i < nblocks; ++i) {
          s.cache->fill(gateway(lba + i), lba + i,
                        out.subspan(i * block_bytes_, block_bytes_),
                        epochs[i]);
        }
        ++stats_.cache_fills;
      }
    }
  }

  // 3. Unreachable origin: degrade to the local geo-mirror when there is
  //    one.  Stale service is *accounted*: the read is flagged whenever
  //    the origin->local stream still has un-applied entries.
  if (!fetched) {
    if (!params_.geo_rep) {
      ++stats_.unreachable;
      co_return false;
    }
    ++stats_.mirror_reads;
    if (replicator_ != nullptr &&
        replicator_->stream(home, src).backlog > 0) {
      ++stats_.stale_served;
    }
    bool served = true;
    try {
      co_await s.engine->read(gateway(lba), lba, nblocks, out, ctx);
    } catch (const raid::IoError&) {
      served = false;
    }
    if (!served) co_return false;
  }
  read_lat_.observe(static_cast<std::uint64_t>(sim_.now() - started));
  co_return true;
}

sim::Task<bool> Federation::remote_write(int src, std::uint64_t lba,
                                         std::uint32_t nblocks,
                                         obs::TraceContext ctx) {
  ++stats_.remote_writes;
  const int home = home_of(lba);
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(nblocks) * block_bytes_;
  const std::vector<Link*> path = route(src, home);
  if (path.empty()) {
    ++stats_.write_forward_failures;
    co_return false;
  }
  if (path.size() > 1) ++stats_.redirects;
  if (!co_await ship(path, src, bytes, ctx)) {
    ++stats_.write_forward_failures;
    co_return false;
  }
  // The origin commits it like any local write -- which also appends it
  // to the origin's replication streams when geo-replication is on.  An
  // origin that cannot commit (lost blocks, refused admission) answers
  // with an error ack instead.
  bool committed = true;
  try {
    co_await sites_[home]->engine->write(gateway(lba), lba,
                                        block::Payload::zeros(bytes), ctx);
  } catch (const raid::IoError&) {
    committed = false;
  }
  const std::vector<Link*> back(path.rbegin(), path.rend());
  if (!committed) {
    (void)co_await ship(back, home, 0, ctx);
    co_return false;
  }
  stats_.write_bytes += bytes;
  // The writer's site cache must not keep serving the old bytes.
  Site& s = *sites_[src];
  if (s.cache->enabled()) {
    for (std::uint32_t i = 0; i < nblocks; ++i) {
      s.cache->invalidate_for_repair(lba + i);
    }
  }
  // Ack header back.  The write is already durable at the origin; a lost
  // ack is the link's problem, not the commit's.
  (void)co_await ship(back, home, 0, ctx);
  co_return true;
}

void Federation::set_site_up(int site, bool up) {
  Site& s = *sites_[site];
  if (s.up == up) return;
  s.up = up;
  for (auto& l : links_) {
    if (!l->joins(site)) continue;
    // A link is up only when BOTH endpoints are: healing one site must
    // not resurrect a link whose far end is still partitioned.
    const int peer = l->peer_of(site);
    l->set_up(up && sites_[peer]->up);
  }
  char detail[48];
  std::snprintf(detail, sizeof(detail), "site=%d", site);
  obs::log_event(sim_, up ? "wan.site_joined" : "wan.site_partitioned",
                 detail);
}

void Federation::arm_wan(std::vector<ha::FaultEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const ha::FaultEvent& a, const ha::FaultEvent& b) {
                     return a.at < b.at;
                   });
  sim_.spawn(fault_driver(std::move(events)));
}

sim::Task<> Federation::fault_driver(std::vector<ha::FaultEvent> events) {
  for (const ha::FaultEvent& ev : events) {
    const sim::Time now = sim_.now();
    if (ev.at > now) co_await sim_.delay(ev.at - now);
    switch (ev.kind) {
      case ha::FaultEvent::Kind::kPartitionSite:
        set_site_up(ev.target, false);
        break;
      case ha::FaultEvent::Kind::kHealSite:
        set_site_up(ev.target, true);
        break;
      case ha::FaultEvent::Kind::kBrownoutLink:
        link_by_id(ev.target).set_brownout(ev.mbs);
        break;
      case ha::FaultEvent::Kind::kHealLink:
        link_by_id(ev.target).set_brownout(0.0);
        break;
      default:
        break;  // unreachable: arm_faults hands the sites their events
    }
  }
}

void Federation::collect(obs::Registry& reg) {
  cluster::merge_worlds(reg, "site", worlds_);
  char name[64];
  for (const auto& l : links_) {
    const int base = std::snprintf(name, sizeof(name), "wan.link.%03d.",
                                   l->id());
    const auto key = [&](const char* leaf) {
      std::snprintf(name + base, sizeof(name) - static_cast<size_t>(base),
                    "%s", leaf);
      return std::string(name);
    };
    reg.counter(key("bytes")).inc(l->bytes_carried());
    reg.counter(key("transfers"))
        .inc(l->dir_stats(0).transfers + l->dir_stats(1).transfers);
    reg.counter(key("windows"))
        .inc(l->dir_stats(0).windows + l->dir_stats(1).windows);
    reg.counter(key("drops")).inc(l->drops());
    reg.counter(key("partitions")).inc(l->partitions());
    reg.counter(key("brownouts")).inc(l->brownouts());
    const sim::Time busy = l->dir_stats(0).busy + l->dir_stats(1).busy;
    if (sim_.now() > 0) {
      // Two directions share the id, so a saturated full-duplex link
      // reads 2.0 -- same convention as duplex net links.
      reg.gauge(key("utilization"))
          .set(static_cast<double>(busy) / static_cast<double>(sim_.now()));
    }
  }
  reg.counter("wan.read.remote").inc(stats_.remote_reads);
  reg.counter("wan.read.cache_hits").inc(stats_.cache_hits);
  reg.counter("wan.read.cache_fills").inc(stats_.cache_fills);
  reg.counter("wan.read.origin").inc(stats_.origin_reads);
  reg.counter("wan.read.mirror").inc(stats_.mirror_reads);
  reg.counter("wan.read.stale_served").inc(stats_.stale_served);
  reg.counter("wan.read.unreachable").inc(stats_.unreachable);
  reg.counter("wan.read.bytes").inc(stats_.read_bytes);
  reg.counter("wan.write.remote").inc(stats_.remote_writes);
  reg.counter("wan.write.forward_failures")
      .inc(stats_.write_forward_failures);
  reg.counter("wan.write.bytes").inc(stats_.write_bytes);
  reg.counter("wan.redirects").inc(stats_.redirects);
  if (stats_.remote_reads > 0) {
    reg.histogram("wan.read.latency_ns").merge(read_lat_);
  }
  if (replicator_ != nullptr) {
    const StreamStats t = replicator_->totals();
    reg.counter("wan.repl.appended").inc(t.appended);
    reg.counter("wan.repl.coalesced").inc(t.coalesced);
    reg.counter("wan.repl.shipped").inc(t.shipped);
    reg.counter("wan.repl.failed_ships").inc(t.failed_ships);
    reg.counter("wan.repl.bytes").inc(t.bytes_shipped);
    reg.counter("wan.repl.staleness_violations").inc(t.staleness_violations);
    reg.gauge("wan.repl.backlog").set(static_cast<double>(t.backlog));
    reg.gauge("wan.repl.peak_backlog").set(static_cast<double>(t.peak_backlog));
    reg.gauge("wan.repl.max_lag_ns").set(static_cast<double>(t.max_lag));
    if (replicator_->lag().count() > 0) {
      reg.histogram("wan.repl.lag_ns").merge(replicator_->lag());
    }
  }
}

}  // namespace raidx::wan
