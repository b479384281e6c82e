#include "obs/collect.hpp"

#include <cstdio>
#include <string>

#include "cache/cache_fabric.hpp"
#include "cdd/cdd.hpp"
#include "cluster/cluster.hpp"
#include "flash/ssd.hpp"
#include "ha/ha.hpp"
#include "integrity/integrity.hpp"
#include "obs/obs.hpp"
#include "sim/token_bucket.hpp"

namespace raidx::obs {

namespace {

std::string key(const char* layer, int idx, const char* metric) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s.%03d.%s", layer, idx, metric);
  return buf;
}

}  // namespace

void collect_cluster(Registry& reg, cluster::Cluster& cluster,
                     const cdd::CddFabric* fabric,
                     const cache::CacheFabric* cache,
                     const ha::Orchestrator* orch,
                     const integrity::IntegrityPlane* integrity) {
  sim::Simulation& sim = cluster.sim();
  const double elapsed = static_cast<double>(sim.now());

  reg.counter("sim.events_processed").inc(sim.events_processed());
  reg.counter("sim.now_ns").inc(static_cast<std::uint64_t>(sim.now()));

  // Engine counters (additive keys; see DESIGN.md "Engine internals").
  // Each is fixed by the workload and the delay() fast-path rule; the
  // queue's inner shape (same-instant vs heap pushes) is not exported, so
  // replacing the queue leaves every key unchanged.
  const sim::Simulation::QueueStats& qs = sim.queue_stats();
  reg.counter("sim.queue.fast_resumes").inc(qs.fast_resumes);
  reg.counter("sim.queue.heap_callbacks").inc(qs.heap_callbacks);
  reg.counter("sim.queue.peak_pending").inc(qs.peak_pending);
  // Frame-pool statistics are deliberately NOT exported here: they shift
  // whenever any coroutine frame changes size, which is every engine
  // change, so they would force baseline churn without describing a
  // simulated result.  Benches export them as an unguarded informational
  // section (bench::add_obs); direct callers use sim.frame_pool_stats().

  for (int d = 0; d < cluster.total_disks(); ++d) {
    const disk::Device& disk = cluster.disk(d);
    reg.counter(key("disk", d, "reads")).inc(disk.reads());
    reg.counter(key("disk", d, "writes")).inc(disk.writes());
    reg.counter(key("disk", d, "bytes_read")).inc(disk.bytes_read());
    reg.counter(key("disk", d, "bytes_written")).inc(disk.bytes_written());
    reg.counter(key("disk", d, "busy_ns"))
        .inc(static_cast<std::uint64_t>(disk.busy_time()));
    reg.gauge(key("disk", d, "util"))
        .set(elapsed > 0.0 ? static_cast<double>(disk.busy_time()) / elapsed
                           : 0.0);

    // Flash counters exist only for SSD slots, so spindle-only key sets
    // stay unchanged (same gating rule as ha.*/integrity.* below).
    if (const auto* ssd = dynamic_cast<const flash::SsdDevice*>(&disk)) {
      reg.counter(key("flash", d, "host_pages_written"))
          .inc(ssd->host_pages_written());
      reg.counter(key("flash", d, "flash_pages_written"))
          .inc(ssd->flash_pages_written());
      reg.counter(key("flash", d, "gc_runs")).inc(ssd->gc_runs());
      reg.counter(key("flash", d, "gc_erases")).inc(ssd->gc_erases());
      reg.counter(key("flash", d, "gc_pages_copied"))
          .inc(ssd->gc_pages_copied());
      reg.counter(key("flash", d, "gc_write_stalls"))
          .inc(ssd->gc_write_stalls());
      reg.counter(key("flash", d, "gc_busy_ns"))
          .inc(static_cast<std::uint64_t>(ssd->gc_busy_time()));
      reg.counter(key("flash", d, "gc_max_pause_ns"))
          .inc(static_cast<std::uint64_t>(ssd->gc_max_pause()));
      reg.counter(key("flash", d, "free_blocks_min"))
          .inc(static_cast<std::uint64_t>(ssd->min_free_blocks()));
      reg.gauge(key("flash", d, "write_amp"))
          .set(ssd->write_amplification());
    }
  }

  net::Network& net = cluster.network();
  for (int n = 0; n < net.nodes(); ++n) {
    reg.counter(key("link", n, "bytes_sent")).inc(net.bytes_sent(n));
    reg.counter(key("link", n, "messages_sent")).inc(net.messages_sent(n));
    reg.counter(key("link", n, "tx_busy_ns"))
        .inc(static_cast<std::uint64_t>(net.tx_busy(n)));
    reg.counter(key("link", n, "rx_busy_ns"))
        .inc(static_cast<std::uint64_t>(net.rx_busy(n)));
    reg.gauge(key("link", n, "tx_util"))
        .set(elapsed > 0.0 ? static_cast<double>(net.tx_busy(n)) / elapsed
                           : 0.0);
    reg.gauge(key("link", n, "rx_util"))
        .set(elapsed > 0.0 ? static_cast<double>(net.rx_busy(n)) / elapsed
                           : 0.0);
  }

  // Dropped-message count only exists once someone partitioned a node;
  // gating on fault_injection_used keeps fault-free key sets unchanged.
  if (net.fault_injection_used()) {
    reg.counter("net.messages_dropped").inc(net.messages_dropped());
  }

  if (fabric != nullptr) {
    reg.counter("cdd.local_requests").inc(fabric->local_requests());
    reg.counter("cdd.remote_requests").inc(fabric->remote_requests());
    if (fabric->timeouts_enabled()) {
      reg.counter("cdd.timeouts").inc(fabric->timeouts());
      reg.counter("cdd.retries").inc(fabric->retries());
      reg.counter("cdd.retries_exhausted").inc(fabric->retries_exhausted());
      reg.counter("cdd.late_replies").inc(fabric->late_replies());
    }
  }

  if (cache != nullptr && cache->enabled()) {
    const cache::CacheStats& s = cache->stats();
    reg.counter("cache.hits").inc(s.hits);
    reg.counter("cache.peer_hits").inc(s.peer_hits);
    reg.counter("cache.misses").inc(s.misses);
    reg.counter("cache.fills").inc(s.fills);
    reg.counter("cache.writes_absorbed").inc(s.writes_absorbed);
    reg.counter("cache.invalidations").inc(s.invalidations);
    reg.counter("cache.flushes").inc(s.flushes);
    reg.counter("cache.evictions").inc(s.evictions);
    reg.counter("cache.directory_peak_entries").inc(s.directory_peak_entries);
    reg.counter("cache.directory_peak_sharers").inc(s.directory_peak_sharers);
    reg.gauge("cache.hit_ratio").set(s.hit_ratio());
    if (net.fault_injection_used()) {
      reg.counter("cache.dead_holder_skips").inc(s.dead_holder_skips);
      reg.counter("cache.dirty_lost").inc(s.dirty_lost);
    }
  }

  if (orch != nullptr) {
    const ha::HaStats& s = orch->stats();
    reg.counter("ha.detections").inc(s.detections);
    reg.counter("ha.detections_by_traffic").inc(s.detections_by_traffic);
    reg.counter("ha.detections_by_probe").inc(s.detections_by_probe);
    reg.counter("ha.failovers").inc(s.failovers);
    reg.counter("ha.spare_exhausted").inc(s.spare_exhausted);
    reg.counter("ha.rebuilds_completed").inc(s.rebuilds_completed);
    reg.counter("ha.rebuilds_failed").inc(s.rebuilds_failed);
    reg.counter("ha.nodes_declared_down").inc(s.nodes_declared_down);
    reg.counter("ha.nodes_recovered").inc(s.nodes_recovered);
    reg.counter("ha.probes_sent").inc(s.probes_sent);
    reg.counter("ha.spares_available")
        .inc(static_cast<std::uint64_t>(orch->spares().total_available()));
    for (sim::Time t : s.detection_ns) {
      reg.histogram("ha.detection_ns").observe(static_cast<std::uint64_t>(t));
    }
    for (sim::Time t : s.mttr_ns) {
      reg.histogram("ha.mttr_ns").observe(static_cast<std::uint64_t>(t));
    }
    if (const sim::TokenBucket* tb = orch->throttle()) {
      reg.counter("ha.rebuild_throttled_ns")
          .inc(static_cast<std::uint64_t>(tb->throttled_ns()));
      reg.counter("ha.rebuild_granted_bytes").inc(tb->granted_tokens());
    }
  }

  if (integrity != nullptr) {
    const integrity::IntegrityStats& s = integrity->stats();
    reg.counter("integrity.injected").inc(s.injected);
    reg.counter("integrity.detected").inc(s.detected);
    reg.counter("integrity.detected_by_read").inc(s.detected_by_read);
    reg.counter("integrity.detected_by_scrub").inc(s.detected_by_scrub);
    reg.counter("integrity.repaired").inc(s.repaired);
    reg.counter("integrity.unrecoverable").inc(s.unrecoverable);
    reg.counter("integrity.repairs_failed").inc(s.repairs_failed);
    reg.counter("integrity.superseded").inc(s.superseded);
    reg.counter("integrity.overwritten").inc(s.overwritten);
    reg.counter("integrity.escalations").inc(s.escalations);
    reg.counter("integrity.scrub_passes").inc(s.scrub_passes);
    reg.counter("integrity.blocks_scrubbed").inc(s.blocks_scrubbed);
    for (sim::Time t : s.mttd_ns) {
      reg.histogram("integrity.mttd_ns")
          .observe(static_cast<std::uint64_t>(t));
    }
    if (const sim::TokenBucket* tb = integrity->throttle()) {
      reg.counter("integrity.scrub_throttled_ns")
          .inc(static_cast<std::uint64_t>(tb->throttled_ns()));
      reg.counter("integrity.scrub_granted_bytes").inc(tb->granted_tokens());
    }
  }

  // Telemetry layer (attribution matrix, SLO monitor): like ha.*/integrity.*
  // above, the keys exist only when the facility was enabled, so key sets of
  // telemetry-free runs stay unchanged.
  if (const Hub* hub = sim.hub()) {
    if (const Attribution* attr = hub->attribution()) {
      attr->export_metrics(reg);
    }
    if (const SloMonitor* slo = hub->slo()) {
      slo->export_metrics(reg);
    }
  }
}

}  // namespace raidx::obs
