// WAN federation report (DESIGN.md §17, EXPERIMENTS.md): three scenarios
// against a geo-replicated two-site federation of Trojans-class clusters
// joined by a 60 MB/s, 40 ms-RTT long-haul link.
//
//   * steady  -- open-loop traffic on both sites (10% remote) with
//     asynchronous mirrors shipping underneath: replication lag must stay
//     bounded (zero violations of the staleness bound) and the backlog
//     must fully drain after the arrival window closes.
//   * reads   -- the XRootD-style cache hierarchy: the same remote blocks
//     read cold (over the WAN, installing into the site cache) and warm
//     (LAN hit).  The warm path must beat the cold path outright -- that
//     gap IS the reason the hierarchy exists.
//   * recovery -- a mid-run site partition builds a mirror backlog; after
//     the heal the throttled catch-up must converge.  The report records
//     how long convergence took past the heal instant.
//
// All simulated numbers are a pure function of the seed and are gated in
// CI against the committed baseline with --threshold 0.0 --require 'wan\.'
// (the obs section must keep carrying the federation's key family).  The
// bench itself exits 1 when a scenario's invariant fails: unbounded lag,
// a cache hierarchy that does not pay, or a backlog that never drains.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "ha/fault_plan.hpp"
#include "load/open_loop.hpp"
#include "obs/metrics.hpp"
#include "sim/stats.hpp"
#include "wan/federation.hpp"

namespace {

using namespace raidx;

wan::FederationParams fed_params(bool geo_rep) {
  wan::FederationParams fp;
  fp.sites = 2;
  fp.geo_rep = geo_rep;
  fp.cluster = bench::perf_trojans();
  fp.cluster.geometry.nodes = 4;
  return fp;
}

/// Each site's traffic; the composition runner seeds site s with 42 + s
/// and carves its tenant from the site's own primary region.
load::OpenLoopConfig site_traffic(double duration_s, double rate,
                                  double write_frac) {
  load::TenantLoad t;
  t.rate_ops = rate;
  t.blocks_per_op = 2;
  t.write_fraction = write_frac;
  t.working_set_blocks = 16384;
  t.zipf_alpha = 0.9;
  t.sessions = 128;
  load::OpenLoopConfig cfg;
  cfg.tenants = {t};
  cfg.duration = sim::seconds(duration_s);
  cfg.seed = 42;
  return cfg;
}

void add_repl_keys(sim::JsonWriter& json, const std::string& p,
                   wan::Federation& fed) {
  const wan::Replicator& r = *fed.replicator();
  const wan::StreamStats t = r.totals();
  json.add(p + "repl_appended", t.appended);
  json.add(p + "repl_coalesced", t.coalesced);
  json.add(p + "repl_shipped", t.shipped);
  json.add(p + "repl_peak_backlog", t.peak_backlog);
  json.add(p + "repl_lag_p50_ms", r.lag().quantile(0.5) / 1e6);
  json.add(p + "repl_lag_p99_ms", r.lag().quantile(0.99) / 1e6);
  json.add(p + "repl_lag_max_ms", static_cast<double>(t.max_lag) / 1e6);
  json.add(p + "repl_staleness_violations", t.staleness_violations);
  json.add(p + "converged_s", sim::to_seconds(t.last_drain));
}

void add_obs_wan(sim::JsonWriter& json, const std::string& key,
                 wan::Federation& fed) {
  obs::Registry reg;
  fed.collect(reg);
  json.add_raw(key, "{\"registry\":" + reg.snapshot_json() + "}");
}

// ---- steady: bounded lag under live two-site traffic --------------------

int run_steady(sim::JsonWriter& json, sim::TablePrinter& table) {
  // Below the 4-node array's saturation knee: lag must measure the WAN
  // pipeline, not a foreground drain backlog.
  const double duration = bench::smoke_pick(2.0, 0.4);
  const double rate = bench::smoke_pick(50.0, 50.0);

  sim::Simulation sim;
  wan::Federation fed(sim, fed_params(true));
  const load::ShardedLoadResult res =
      load::run_open_loop(fed, site_traffic(duration, rate, 0.3), 0.1, 1);

  const wan::Replicator& r = *fed.replicator();
  const wan::StreamStats t = r.totals();
  table.add_row({"steady", sim::TablePrinter::fmt(res.goodput_mbs, 1),
                 std::to_string(fed.stats().origin_reads),
                 std::to_string(fed.stats().cache_hits),
                 sim::TablePrinter::fmt(r.lag().quantile(0.99) / 1e6, 2),
                 sim::TablePrinter::fmt(static_cast<double>(t.max_lag) / 1e6,
                                        2),
                 std::to_string(t.peak_backlog),
                 sim::TablePrinter::fmt(sim::to_seconds(t.last_drain), 3)});
  json.add("steady.completed", res.completed);
  json.add("steady.goodput_mbs", res.goodput_mbs);
  json.add("steady.wan_remote_reads", fed.stats().remote_reads);
  json.add("steady.wan_remote_writes", fed.stats().remote_writes);
  json.add("steady.wan_cache_hits", fed.stats().cache_hits);
  json.add("steady.wan_origin_reads", fed.stats().origin_reads);
  add_repl_keys(json, "steady.", fed);
  add_obs_wan(json, "steady.obs_wan", fed);

  if (t.backlog != 0) {
    std::fprintf(stderr, "wan_replication: steady backlog never drained "
                         "(%llu entries left)\n",
                 static_cast<unsigned long long>(t.backlog));
    return 1;
  }
  if (t.staleness_violations != 0) {
    std::fprintf(stderr,
                 "wan_replication: %llu staleness violations in steady "
                 "state -- replication lag is not bounded\n",
                 static_cast<unsigned long long>(t.staleness_violations));
    return 1;
  }
  if (r.lag().count() == 0 || fed.stats().remote_reads == 0) {
    std::fprintf(stderr, "wan_replication: steady scenario drove no "
                         "replication or WAN traffic\n");
    return 1;
  }
  return 0;
}

// ---- reads: the site-cache hierarchy must pay ---------------------------

sim::Task<> cold_warm_reads(wan::Federation& fed, int count,
                            obs::Histogram* cold, obs::Histogram* warm) {
  for (int i = 0; i < count; ++i) {
    const std::uint64_t lba =
        fed.region_base(0) + static_cast<std::uint64_t>(i) * 8;
    sim::Time t0 = fed.sim().now();
    co_await fed.remote_read(1, lba, 4);
    cold->observe(static_cast<std::uint64_t>(fed.sim().now() - t0));
    t0 = fed.sim().now();
    co_await fed.remote_read(1, lba, 4);
    warm->observe(static_cast<std::uint64_t>(fed.sim().now() - t0));
  }
}

int run_reads(sim::JsonWriter& json, sim::TablePrinter& table) {
  const int count = bench::smoke_pick(64, 16);

  sim::Simulation sim;
  wan::FederationParams fp = fed_params(false);
  fp.cache.capacity_blocks = 4096;
  wan::Federation fed(sim, fp);
  obs::Histogram cold, warm;
  sim.spawn(cold_warm_reads(fed, count, &cold, &warm));
  sim.run();

  const double cold_p50 = cold.quantile(0.5) / 1e6;
  const double warm_p50 = warm.quantile(0.5) / 1e6;
  table.add_row({"reads", "-", std::to_string(fed.stats().origin_reads),
                 std::to_string(fed.stats().cache_hits),
                 sim::TablePrinter::fmt(cold_p50, 2),
                 sim::TablePrinter::fmt(warm_p50, 2), "-", "-"});
  json.add("reads.count", static_cast<std::uint64_t>(count));
  json.add("reads.cold_p50_ms", cold_p50);
  json.add("reads.cold_p99_ms", cold.quantile(0.99) / 1e6);
  json.add("reads.warm_p50_ms", warm_p50);
  json.add("reads.warm_p99_ms", warm.quantile(0.99) / 1e6);
  json.add("reads.wan_cache_hits", fed.stats().cache_hits);
  json.add("reads.wan_cache_fills", fed.stats().cache_fills);
  add_obs_wan(json, "reads.obs_wan", fed);

  if (fed.stats().cache_hits != static_cast<std::uint64_t>(count)) {
    std::fprintf(stderr,
                 "wan_replication: expected %d warm reads to hit the site "
                 "cache, got %llu\n",
                 count,
                 static_cast<unsigned long long>(fed.stats().cache_hits));
    return 1;
  }
  if (warm_p50 >= cold_p50) {
    std::fprintf(stderr,
                 "wan_replication: site-cache hit (p50 %.2f ms) is not "
                 "faster than the WAN origin fetch (p50 %.2f ms)\n",
                 warm_p50, cold_p50);
    return 1;
  }
  return 0;
}

// ---- recovery: partition builds a backlog, heal drains it ---------------

int run_recovery(sim::JsonWriter& json, sim::TablePrinter& table) {
  const double duration = bench::smoke_pick(2.0, 0.5);
  const double rate = bench::smoke_pick(100.0, 60.0);
  const double part_at = 0.25 * duration;
  const double heal_at = 0.6 * duration;

  sim::Simulation sim;
  wan::FederationParams fp = fed_params(true);
  // Throttled catch-up: the post-heal burst is rate-capped like a rebuild
  // sweep, so recovery time is a function of backlog and throttle.
  fp.repl.ship_mbs = 20.0;
  wan::Federation fed(sim, fp);

  char spec[96];
  std::snprintf(spec, sizeof(spec),
                "partition:site=1@%gs;heal:site=1@%gs", part_at, heal_at);
  const ha::FaultPlan plan = ha::FaultPlan::parse(
      spec, fp.cluster.geometry.nodes * fp.cluster.geometry.disks_per_node *
                fp.sites,
      fp.cluster.geometry.blocks_per_disk, fp.sites,
      wan::Federation::mesh_links(fp.sites));
  fed.arm_faults(plan);

  // Write-heavy local traffic at site 0 only (its primary region starts
  // at LBA 0): every committed write appends to the 0->1 mirror stream,
  // which is exactly the flow the partition dams up.
  (void)load::run_open_loop(fed.engine(0), site_traffic(duration, rate, 1.0));

  const wan::Replicator& r = *fed.replicator();
  const wan::StreamStats t = r.totals();
  const double converged_s = sim::to_seconds(t.last_drain);
  const double recovery_s = converged_s - heal_at;
  table.add_row({"recovery", "-", "-", "-",
                 sim::TablePrinter::fmt(r.lag().quantile(0.99) / 1e6, 2),
                 sim::TablePrinter::fmt(static_cast<double>(t.max_lag) / 1e6,
                                        2),
                 std::to_string(t.peak_backlog),
                 sim::TablePrinter::fmt(converged_s, 3)});
  json.add("recovery.partition_at_s", part_at);
  json.add("recovery.heal_at_s", heal_at);
  json.add("recovery.recovery_s", recovery_s);
  add_repl_keys(json, "recovery.", fed);
  add_obs_wan(json, "recovery.obs_wan", fed);

  if (t.peak_backlog < 8) {
    std::fprintf(stderr,
                 "wan_replication: the partition built no real backlog "
                 "(peak %llu) -- the scenario is not exercising recovery\n",
                 static_cast<unsigned long long>(t.peak_backlog));
    return 1;
  }
  if (t.backlog != 0) {
    std::fprintf(stderr, "wan_replication: backlog never drained after "
                         "the heal (%llu entries left)\n",
                 static_cast<unsigned long long>(t.backlog));
    return 1;
  }
  if (recovery_s <= 0.0) {
    std::fprintf(stderr,
                 "wan_replication: convergence (%.3f s) precedes the heal "
                 "(%.3f s) -- the partition never blocked shipping\n",
                 converged_s, heal_at);
    return 1;
  }
  return 0;
}

}  // namespace

int main() {
  sim::JsonWriter json = bench::bench_json("wan_replication");
  sim::TablePrinter table({"scenario", "goodput MB/s", "origin", "cache hits",
                           "lag/cold p99|p50 ms", "lag/warm max|p50 ms",
                           "peak backlog", "converged s"});
  int rc = run_steady(json, table);
  if (rc == 0) rc = run_reads(json, table);
  if (rc == 0) rc = run_recovery(json, table);

  std::printf("WAN geo-replication: 2 Trojans sites, 60 MB/s / 40 ms RTT "
              "long-haul link\n\n");
  table.print();
  bench::write_bench_json("wan_replication", json);
  std::printf("\nwrote BENCH_wan_replication.json\n");
  if (rc != 0) std::printf("wan_replication: FAILED a hard gate\n");
  return rc;
}
