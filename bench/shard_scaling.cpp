// Shard-scaling sweep (DESIGN.md §15, EXPERIMENTS.md): the same total
// cluster -- 64 and 256 nodes at 4 disks per node (256 and 1024 disks) --
// partitioned into 1/2/4/8 placement groups and driven at the same total
// offered load, measuring how wall-clock time falls as the conservative
// synchronizer spreads the groups over a worker pool.
//
// shards=1 is the legacy single-queue engine by construction (ShardGroup
// bypasses the windowed loop entirely), so the sweep's speedup column is
// an honest before/after: windowed multi-shard wall time against the
// exact pre-shard drain loop on the same hardware and workload.
//
// Two kinds of numbers leave this harness:
//   * simulated totals (offered/goodput/latency/windows/messages) -- a
//     pure function of (seed, shard count), bit-reproducible, gated in CI
//     with tools/bench_diff.py --threshold 0;
//   * host timings (wall_ms, speedup_wall) -- machine-dependent, always
//     ignored by bench_diff.py, recorded so the committed baseline
//     documents the scaling shape of the host that produced it.
// Worker count is min(shards, hardware threads): on a single-core host the
// sweep still validates determinism and records synchronizer overhead; the
// near-linear column needs a machine with >= 8 hardware threads.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "cluster/sharded.hpp"
#include "load/open_loop.hpp"
#include "sim/stats.hpp"

namespace {

using namespace raidx;

struct Row {
  int nodes = 0;
  int shards = 0;
  int threads = 0;
  double wall_ms = 0.0;
  double offered_mbs = 0.0;
  double goodput_mbs = 0.0;
  double p99_ms = 0.0;
  double drained_s = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t remote_ops = 0;
  std::uint64_t windows = 0;
  std::uint64_t messages = 0;
};

Row run_config(int total_nodes, int shards) {
  auto gparams = cluster::ClusterParams::trojans();
  gparams.geometry.nodes = total_nodes / shards;
  gparams.geometry.disks_per_node = 4;
  gparams.disk.store_data = false;

  cluster::ShardedParams sp;
  sp.shards = shards;
  sp.arch = workload::Arch::kRaidX;
  cluster::ShardedCluster world(gparams, sp);

  // Constant total offered load per node count: each group's tenant gets
  // an equal slice, so shards=1 and shards=8 simulate the same cluster
  // under the same aggregate traffic.
  load::TenantLoad t;
  t.rate_ops = bench::smoke_pick(30.0, 10.0) * total_nodes / shards;
  t.blocks_per_op = 4;
  t.write_fraction = 0.3;
  t.working_set_blocks = 65536;
  t.sessions = 512;
  load::OpenLoopConfig cfg;
  cfg.tenants = {t};
  cfg.duration = sim::seconds(bench::smoke_pick(1.0, 0.1));
  cfg.seed = 42;

  Row row;
  row.nodes = total_nodes;
  row.shards = shards;
  row.threads = std::min(
      shards,
      std::max(1, static_cast<int>(std::thread::hardware_concurrency())));

  const auto t0 = std::chrono::steady_clock::now();
  const load::ShardedLoadResult r =
      load::run_open_loop(world, cfg, 0.1, row.threads);
  const auto t1 = std::chrono::steady_clock::now();
  row.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  row.offered_mbs = r.offered_mbs;
  row.goodput_mbs = r.goodput_mbs;
  row.p99_ms = r.latency.quantile(0.99) / 1e6;
  row.drained_s = sim::to_seconds(r.drained_at);
  row.completed = r.completed;
  row.remote_ops = r.remote_ops;
  row.windows = world.group().stats().windows;
  row.messages = world.group().stats().messages;
  return row;
}

}  // namespace

int main() {
  const std::vector<int> node_counts = {64, 256};
  const std::vector<int> shard_counts = {1, 2, 4, 8};

  sim::JsonWriter json = bench::bench_json("shard_scaling");
  sim::TablePrinter table({"nodes", "disks", "shards", "threads", "wall ms",
                           "speedup", "goodput MB/s", "p99 ms", "windows",
                           "messages"});
  for (int nodes : node_counts) {
    double base_wall = 0.0;
    for (int shards : shard_counts) {
      const Row row = run_config(nodes, shards);
      if (shards == 1) base_wall = row.wall_ms;
      const double speedup = row.wall_ms > 0.0 ? base_wall / row.wall_ms : 0.0;
      table.add_row({std::to_string(row.nodes),
                     std::to_string(row.nodes * 4),
                     std::to_string(row.shards),
                     std::to_string(row.threads),
                     sim::TablePrinter::fmt(row.wall_ms, 1),
                     sim::TablePrinter::fmt(speedup, 2),
                     sim::TablePrinter::fmt(row.goodput_mbs, 2),
                     sim::TablePrinter::fmt(row.p99_ms, 2),
                     std::to_string(row.windows),
                     std::to_string(row.messages)});
      char prefix[32];
      std::snprintf(prefix, sizeof(prefix), "n%03d.s%d.", row.nodes,
                    row.shards);
      const std::string p(prefix);
      // Host timings first (always ignored by bench_diff.py), then the
      // gated simulated totals.
      json.add(p + "wall_ms", row.wall_ms);
      json.add(p + "speedup_wall", speedup);
      json.add(p + "threads", row.threads);
      json.add(p + "offered_mbs", row.offered_mbs);
      json.add(p + "goodput_mbs", row.goodput_mbs);
      json.add(p + "p99_ms", row.p99_ms);
      json.add(p + "drained_s", row.drained_s);
      json.add(p + "completed", row.completed);
      json.add(p + "remote_ops", row.remote_ops);
      json.add(p + "sim.shard.windows", row.windows);
      json.add(p + "sim.shard.messages", row.messages);
    }
  }
  std::printf("Shard scaling: conservative windows over placement groups "
              "(RAID-x, 4 disks/node, remote 10%%)\n\n");
  table.print();
  bench::write_bench_json("shard_scaling", json);
  std::printf("\nwrote BENCH_shard_scaling.json\n");
  return 0;
}
