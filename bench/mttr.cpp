// Recovery-orchestration characterization (DESIGN.md §11): detection
// latency as a function of the probe cadence, and mean-time-to-repair as
// a function of the rebuild throttle.
//
// Expected shape: detection latency tracks the probe interval (the
// monitor finds a silent drive within roughly one round, plus the probe
// RPC itself), while MTTR is flat across probe cadences -- the rebuild
// sweep dominates.  Tightening the write-bandwidth cap stretches MTTR
// roughly in proportion once the cap drops below the sweep's natural,
// seek-dominated rate.
//
// Every number is simulated time, so the report is bit-reproducible and
// gated in CI against the committed baseline with
//   tools/bench_diff.py --threshold 0 --require 'ha\.'
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "ha/ha.hpp"
#include "sim/stats.hpp"
#include "sim/token_bucket.hpp"

namespace {

using namespace raidx;
using bench::World;
using workload::Arch;

struct Point {
  double detection_ms = 0.0;
  double mttr_s = 0.0;
  std::uint64_t rebuild_bytes = 0;
};

// A RAID-x array small enough that the full-disk rebuild sweep finishes
// in CI seconds yet long enough that throttle effects dominate the swap
// latency.  Pure timing: no payload bytes are stored.
cluster::ClusterParams mttr_cluster() {
  cluster::ClusterParams p = bench::perf_trojans();
  p.geometry.nodes = 4;
  p.geometry.blocks_per_disk = bench::smoke_pick<std::uint64_t>(2048, 256);
  return p;
}

// One failure lifecycle: fail a drive mid-run, let the orchestrator
// detect, fail over and rebuild it, and read the latencies back out of
// its stats.  `json`/`obs_key` optionally embed the full obs snapshot
// (the ha.* keys) for this world.
Point measure(sim::Time probe_interval, double rebuild_mbs,
              sim::JsonWriter* json = nullptr,
              const std::string& obs_key = {}) {
  World world(mttr_cluster(), Arch::kRaidX, bench::paper_engine());

  ha::HaParams hp;
  hp.probe_interval = probe_interval;
  hp.probe_timeout = sim::milliseconds(5);
  hp.spare_swap_time = sim::milliseconds(500);
  hp.rebuild_mbs = rebuild_mbs;
  // Fail the drive mid-run, so detection latency is measured from a
  // mid-run instant, not t=0.
  world.faults =
      ha::FaultPlan::parse("fail:disk=2@50ms", world.cluster->total_disks());
  world.arm(&hp, nullptr);
  world.sim().run();

  Point pt;
  const ha::Orchestrator& orch = *world.orchestrator;
  const ha::HaStats& s = orch.stats();
  if (s.rebuilds_completed != 1 || s.detection_ns.size() != 1 ||
      s.mttr_ns.size() != 1) {
    std::fprintf(stderr, "mttr: lifecycle did not converge (rebuilt=%llu)\n",
                 static_cast<unsigned long long>(s.rebuilds_completed));
    std::exit(1);
  }
  pt.detection_ms = sim::to_seconds(s.detection_ns[0]) * 1e3;
  pt.mttr_s = sim::to_seconds(s.mttr_ns[0]);
  if (const sim::TokenBucket* tb = orch.throttle()) {
    pt.rebuild_bytes = tb->granted_tokens();
  }
  if (json != nullptr) bench::add_obs(*json, obs_key, world);
  return pt;
}

}  // namespace

int main() {
  std::printf(
      "Recovery orchestration: detection latency and MTTR on RAID-x\n"
      "4-node array, one drive failed mid-run, automatic failover+rebuild\n\n");

  sim::JsonWriter json = bench::bench_json("mttr");

  // Sweep 1: probe cadence vs detection latency (rebuild uncapped).
  const std::vector<int> probe_ms =
      bench::smoke() ? std::vector<int>{5, 50} : std::vector<int>{5, 50, 250};
  {
    sim::TablePrinter table({"probe_ms", "detection_ms", "mttr_s"});
    for (int ms : probe_ms) {
      const Point p = measure(sim::milliseconds(ms), /*rebuild_mbs=*/0.0);
      table.add_row({std::to_string(ms),
                     sim::TablePrinter::fmt(p.detection_ms, 3),
                     sim::TablePrinter::fmt(p.mttr_s, 3)});
      const std::string k = "probe" + std::to_string(ms) + "ms";
      json.add("detection_ms_" + k, p.detection_ms);
      json.add("mttr_s_" + k, p.mttr_s);
    }
    std::printf("Detection latency vs probe cadence\n");
    table.print();
    std::printf("\n");
  }

  // Sweep 2: rebuild throttle vs MTTR (probe cadence fixed at 5 ms).
  // Caps are chosen around the sweep's natural rate: the uncapped row is
  // the floor, and each tighter cap should stretch MTTR monotonically.
  struct Cap {
    double mbs;
    const char* label;
  };
  const std::vector<Cap> caps = {{0.0, "uncapped"},
                                 {4.0, "cap4mbs"},
                                 {1.0, "cap1mbs"},
                                 {0.25, "cap0p25mbs"}};
  {
    sim::TablePrinter table({"cap", "mttr_s", "rebuild_bytes"});
    for (std::size_t i = 0; i < caps.size(); ++i) {
      const Cap& c = caps[i];
      const bool last = i + 1 == caps.size();
      const Point p = measure(sim::milliseconds(5), c.mbs,
                              last ? &json : nullptr, "obs_mttr");
      table.add_row({c.label, sim::TablePrinter::fmt(p.mttr_s, 3),
                     std::to_string(p.rebuild_bytes)});
      json.add(std::string("mttr_s_") + c.label, p.mttr_s);
      if (c.mbs > 0.0) {
        json.add(std::string("rebuild_bytes_") + c.label,
                 static_cast<std::uint64_t>(p.rebuild_bytes));
      }
    }
    std::printf("MTTR vs rebuild throttle (probe every 5 ms)\n");
    table.print();
    std::printf("\n");
  }

  bench::write_bench_json("mttr", json);
  return 0;
}
