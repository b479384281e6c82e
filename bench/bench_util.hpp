// Shared scaffolding for the table/figure reproduction harnesses.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "cluster/world.hpp"
#include "obs/obs.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"

namespace raidx::bench {

/// What one data point owns besides its world: the Simulation the world
/// runs on and the obs Hub its snapshot reads.  Metrics and timelines on,
/// span tracing off: recording busy windows never adds or reorders
/// simulation events, so bench numbers are identical to a hub-less run
/// (only span tracing would grow memory with run length, and benches do
/// not need spans).
struct Stage {
  Stage() { simulation.set_hub(&hub); }
  sim::Simulation simulation;
  obs::Hub hub;
};

/// One data point: a cluster::World (Cluster -> CddFabric -> CacheFabric
/// -> engine, plus whatever tiers arm() adds) on the point's own Stage,
/// which outlives it.  Every data point gets a fresh world so runs are
/// independent and reproducible.  The default cache (capacity 0) leaves
/// the engine bit-identical to a cacheless build; pass CacheParams to put
/// a block cache in front.
struct World : Stage, cluster::World {
  World(const cluster::ClusterParams& params, workload::Arch arch,
        raid::EngineParams engine_params = {},
        cache::CacheParams cache_params = {})
      : cluster::World(simulation, params,
                       {arch, engine_params, cache_params}) {}
};

/// True when RAIDX_BENCH_SMOKE is set: benches shrink to a scale that
/// finishes in CI seconds while exercising every code path.  BENCH_*.json
/// records which mode produced it.
inline bool smoke() { return std::getenv("RAIDX_BENCH_SMOKE") != nullptr; }

/// Pick the full-scale value normally, the reduced one under smoke.
template <typename T>
inline T smoke_pick(T full, T reduced) {
  return smoke() ? reduced : full;
}

/// Version of the BENCH_*.json layout.  Bump when keys change meaning so
/// cross-PR trajectory tooling can tell schema drift from regressions.
/// v2: adds "smoke", and nested registry/timeline snapshots from the obs
/// layer ("obs_*" keys); every v1 key is unchanged.
/// v3: the obs registry snapshot gains the engine-internal counters
/// `sim.queue.*` and `sim.frame_pool.*`; every v2 key is unchanged and
/// every simulated result is bit-identical to v2.  (Still at v10, the
/// timing-wheel counters `sim.queue.cascaded_events` and
/// `sim.queue.overflow_{inserts,migrated}` left the snapshot with the
/// wheel itself; no other key changed.)
/// v4: obs snapshots may carry the recovery-orchestration keys (`ha.*`
/// histograms/counters, `cdd.timeouts`/`cdd.retries*`/`cdd.late_replies`,
/// `net.messages_dropped`) -- but only in worlds that configure an
/// orchestrator or inject faults (the new bench/mttr report).  Fault-free
/// benches emit the exact v3 key set with bit-identical values.
/// v5: obs snapshots may carry the integrity keys (`integrity.*` counters,
/// the `integrity.mttd_ns` histogram, scrub-throttle counters) -- but only
/// in worlds that attach an IntegrityPlane (the new bench/scrub report).
/// Integrity-free benches emit the exact v4 key set and every simulated
/// result is bit-identical to v4; only the engine-internal
/// `sim.frame_pool.{fresh,reuses}` counters shift (coroutine frames grew
/// with the verify-on-read branch, moving a few frames across pool size
/// classes).
/// v6: obs snapshots may carry the open-loop traffic keys (`load.*`
/// counters/gauges and the `load.latency_ns` histograms) and the
/// multi-tenant QoS keys (`qos.tenant.*`) -- but only in worlds driven by
/// the open-loop tier (the new bench/saturation report).  Every histogram
/// in every registry snapshot additionally renders exact-rank interpolated
/// `p50_interp`/`p99_interp`/`p999_interp` keys, and cache-enabled worlds
/// gain `cache.directory_peak_{entries,sharers}`.  All pre-existing
/// simulated keys keep bit-identical values; as in v5, only the
/// engine-internal `sim.frame_pool.{fresh,reuses}` counters shift (the
/// admission hook grew the controller read/write coroutine frames, moving
/// a few frames across pool size classes).
/// v7: obs snapshots may carry the continuous-telemetry keys -- the
/// per-request attribution matrix (`attr.<read|write>.<lane>_ns` plus
/// count/total_ns/aborted counters) and the SLO monitor
/// (`slo.*` counters/gauges) -- but only in worlds that enable them
/// (bench/saturation); the saturation report also gains a selective-trace
/// capture section (`trace_*` keys) and writes the slow-request reservoir
/// to BENCH_saturation_traces.json.  All pre-existing simulated keys keep
/// bit-identical values; as in v5/v6, only the engine-internal
/// `sim.frame_pool.{fresh,reuses}` counters shift (the attribution root
/// grew the controller read/write coroutine frames).
/// v8: the engine-internal `sim.frame_pool.*` counters move OUT of the
/// gated registry snapshot into an unguarded informational "frame_pool"
/// section next to each obs block (they shift whenever any coroutine frame
/// changes size -- every engine change -- and were forcing baseline
/// regeneration every PR; bench_diff.py now always ignores them, like
/// wall_ms).  Sharded runs add `sim.shard.*`/`remote.*`/`shard.NNN.*` keys
/// and the bench/shard_scaling report.  All other simulated keys keep
/// bit-identical values.
/// v9: obs snapshots may carry the flash-device keys (`flash.NNN.*` FTL
/// counters and the `write_amp` gauge) -- but only for array slots the
/// device map populates with flash (the new bench/gc_tail report; spindles
/// export no flash keys).  Spindle-only benches emit the exact v8 key set
/// and every simulated result is bit-identical to v8: the disk::Device
/// extraction is a pure interface split, and the spindle implementation is
/// unchanged behind it.
/// v10: obs snapshots may carry the WAN federation keys (`site.NNN.*`
/// per-site registry merges, `wan.link.NNN.*` per-link counters, the
/// `wan.read.*`/`wan.write.*` hierarchy counters, and the `wan.repl.*`
/// mirror-pipeline keys) -- but only in worlds that build a
/// wan::Federation (the new bench/wan_replication report).  Single-site
/// benches emit the exact v9 key set with bit-identical values: the
/// controller's write-observer hook defaults to null and the open-loop
/// base_lba defaults to 0, so no event is added or reordered anywhere in
/// a non-federated run.
inline constexpr int kBenchSchemaVersion = 10;

/// Start a machine-readable report: every BENCH_*.json leads with the
/// schema version and bench name.
inline sim::JsonWriter bench_json(const std::string& bench) {
  sim::JsonWriter w;
  w.add("schema_version", kBenchSchemaVersion);
  w.add("bench", bench);
  w.add("smoke", smoke());
  return w;
}

/// Engine-internal frame-pool statistics as a small JSON object.  These
/// live OUTSIDE the registry snapshot (v8): they change with every
/// coroutine-frame size change, so bench_diff.py ignores them
/// unconditionally -- informational, never gated.  `pooled_bytes` is the
/// bytes parked in the free lists; after a drain, that is the world's
/// high-water of transient frame bytes (its frame footprint).
inline std::string frame_pool_json(const sim::Simulation& sim) {
  const sim::FramePool::Stats& fp = sim.frame_pool_stats();
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"allocations\":%llu,\"reuses\":%llu,\"fresh\":%llu,"
                "\"oversize\":%llu,\"live\":%llu,\"pooled_bytes\":%llu}",
                static_cast<unsigned long long>(fp.allocations),
                static_cast<unsigned long long>(fp.reuses),
                static_cast<unsigned long long>(fp.fresh),
                static_cast<unsigned long long>(fp.oversize),
                static_cast<unsigned long long>(fp.live),
                static_cast<unsigned long long>(fp.pooled_bytes));
  return buf;
}

/// Embed one world's metrics-registry snapshot and utilization/queue-depth
/// timelines under "<key>" -- per-disk and per-link counters, histogram
/// percentiles, and windowed busy fractions, all from the shared registry.
/// World::collect exports every tier the world holds, so an armed
/// orchestrator or integrity plane adds its gated key section (`ha.*`,
/// `integrity.*`).
inline void add_obs(sim::JsonWriter& w, const std::string& key, World& world) {
  world.collect(world.hub.registry());
  w.add_raw(key, "{\"registry\":" + world.hub.registry().snapshot_json() +
                     ",\"timelines\":" + world.hub.timelines().json() +
                     ",\"frame_pool\":" + frame_pool_json(world.sim()) +
                     "}");
}

/// Append the block-cache counters (zeros when no cache was attached, so
/// the key set is stable across configurations).
inline void add_cache_counters(sim::JsonWriter& w,
                               const cache::CacheStats& s) {
  w.add("cache_hits", s.hits);
  w.add("cache_peer_hits", s.peer_hits);
  w.add("cache_misses", s.misses);
  w.add("cache_fills", s.fills);
  w.add("cache_writes_absorbed", s.writes_absorbed);
  w.add("cache_invalidations", s.invalidations);
  w.add("cache_flushes", s.flushes);
  w.add("cache_evictions", s.evictions);
  w.add("cache_hit_ratio", s.hit_ratio());
}

/// Write the report to BENCH_<bench>.json in the working directory.
inline void write_bench_json(const std::string& bench,
                             const sim::JsonWriter& w) {
  const std::string path = "BENCH_" + bench + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  out << w.str() << "\n";
}

/// The Trojans cluster with byte storage disabled (pure timing): the
/// perf sweeps move gigabytes and must not allocate them.
inline cluster::ClusterParams perf_trojans() {
  auto p = cluster::ClusterParams::trojans();
  p.disk.store_data = false;
  return p;
}

/// The paper-faithful engine configuration.  The paper's RAID-5 driver
/// checks parity (Table 1: reliability via "parity checks"; Section 5
/// attributes its overhead to "parity calculations"), so the figure
/// reproductions enable read-side parity verification; it only affects
/// the RAID-5 engine.
inline raid::EngineParams paper_engine() {
  raid::EngineParams p;
  p.verify_parity_on_read = true;
  return p;
}

}  // namespace raidx::bench
