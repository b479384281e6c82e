// Figure 7 / Section 6 reproduction: striped checkpointing with staggering
// on the distributed RAID-x.
//
// Three experiments:
//  1. Scheduling strategies on a 4x3 RAID-x (12 processes, one per disk):
//     simultaneous vs Vaidya staggered vs the paper's striped staggering.
//     Striped staggering should beat simultaneous (less contention) and
//     staggered (more parallelism).
//  2. Vaidya's limitation: staggering on *central* stable storage (NFS)
//     cannot fix the I/O bottleneck; RAID-x solves both problems.
//  3. Array reconfiguration (Fig 7 discussion): the 4x3 layout can be
//     traded against 6x2 and 12x1 -- striping parallelism n vs pipeline
//     depth k.
//  4. Recovery: transient failures recover from the *local* mirror images,
//     permanent disk failures from the stripes (degraded reads).
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "ckpt/checkpoint.hpp"
#include "sim/stats.hpp"

namespace {

using namespace raidx;
using bench::World;
using ckpt::CheckpointConfig;
using ckpt::CheckpointResult;
using ckpt::Strategy;
using workload::Arch;

std::string secs(sim::Time t) {
  return sim::TablePrinter::fmt(sim::to_seconds(t), 3);
}

cluster::ClusterParams geometry(int nodes, int disks_per_node) {
  auto p = bench::perf_trojans();
  p.geometry.nodes = nodes;
  p.geometry.disks_per_node = disks_per_node;
  return p;
}

CheckpointResult run(Arch arch, cluster::ClusterParams params,
                     Strategy strategy, int waves) {
  World world(params, arch);
  CheckpointConfig cfg;
  cfg.processes = 12;
  cfg.bytes_per_process = bench::smoke_pick(4ull << 20, 1ull << 20);
  cfg.strategy = strategy;
  cfg.waves = waves;
  cfg.rounds = bench::smoke_pick(3, 1);
  return ckpt::run_checkpoint(*world.engine, cfg);
}

}  // namespace

int main() {
  std::printf(
      "Figure 7: striped checkpointing with staggering (12 processes, "
      "4 MB checkpoint each, 3 rounds)\n"
      "C = checkpoint overhead per round, S = mean synchronization wait\n\n");

  sim::JsonWriter json = bench::bench_json("fig7_checkpoint");

  {
    std::printf(
        "Scheduling strategies on RAID-x 4x3 (the paper's 'trade-off "
        "between striped parallelism and staggering depth'):\n");
    sim::TablePrinter table(
        {"strategy", "C (s)", "S (s)", "total elapsed (s)"});
    const auto p = geometry(4, 3);
    for (auto [st, waves] :
         {std::pair{Strategy::kSimultaneous, 1},
          std::pair{Strategy::kStaggered, 12},
          std::pair{Strategy::kStripedStaggered, 3}}) {
      const auto r = run(Arch::kRaidX, p, st, waves);
      table.add_row({ckpt::strategy_name(st), secs(r.overhead_c),
                     secs(r.sync_s), secs(r.total_elapsed)});
      json.add(std::string("total_s_") + ckpt::strategy_name(st),
               sim::to_seconds(r.total_elapsed));
      json.add(std::string("overhead_c_s_") + ckpt::strategy_name(st),
               sim::to_seconds(r.overhead_c));
    }
    table.print();
    std::printf("\n");
  }

  {
    std::printf(
        "Central stable storage (NFS) -- staggering alone cannot remove "
        "the I/O bottleneck (Vaidya):\n");
    sim::TablePrinter table(
        {"storage / strategy", "C (s)", "S (s)", "total elapsed (s)"});
    const auto p = geometry(4, 3);
    const auto nfs_sim = run(Arch::kNfs, p, Strategy::kSimultaneous, 1);
    table.add_row({"NFS / simultaneous", secs(nfs_sim.overhead_c),
                   secs(nfs_sim.sync_s), secs(nfs_sim.total_elapsed)});
    const auto nfs_st = run(Arch::kNfs, p, Strategy::kStaggered, 12);
    table.add_row({"NFS / staggered", secs(nfs_st.overhead_c),
                   secs(nfs_st.sync_s), secs(nfs_st.total_elapsed)});
    const auto rx = run(Arch::kRaidX, p, Strategy::kStripedStaggered, 3);
    table.add_row({"RAID-x / striped-staggered", secs(rx.overhead_c),
                   secs(rx.sync_s), secs(rx.total_elapsed)});
    const auto rx_sim = run(Arch::kRaidX, p, Strategy::kSimultaneous, 1);
    table.add_row({"RAID-x / striped simultaneous", secs(rx_sim.overhead_c),
                   secs(rx_sim.sync_s), secs(rx_sim.total_elapsed)});
    table.print();
    std::printf("\n");
  }

  {
    std::printf(
        "Array reconfiguration (12 disks): striping parallelism n vs "
        "pipeline depth k, striped staggering with k waves:\n");
    sim::TablePrinter table({"array", "C (s)", "S (s)", "total elapsed (s)"});
    for (auto [n, k] : {std::pair{4, 3}, std::pair{6, 2}, std::pair{12, 1}}) {
      const auto r = run(Arch::kRaidX, geometry(n, k),
                         Strategy::kStripedStaggered, k);
      char label[32];
      std::snprintf(label, sizeof(label), "%dx%d", n, k);
      table.add_row({label, secs(r.overhead_c), secs(r.sync_s),
                     secs(r.total_elapsed)});
      json.add(std::string("total_s_") + label,
               sim::to_seconds(r.total_elapsed));
    }
    table.print();
    std::printf("\n");
  }

  {
    std::printf("Recovery paths on RAID-x 4x3 (one 4 MB checkpoint):\n");
    sim::TablePrinter table({"path", "recovery time (s)"});
    CheckpointConfig cfg;
    cfg.processes = 12;
    cfg.bytes_per_process = bench::smoke_pick(4ull << 20, 1ull << 20);
    cfg.rounds = 1;
    cfg.compute_between = 0;

    // Write one checkpoint, then time the three recovery paths.
    World world(geometry(4, 3), Arch::kRaidX);
    auto* rx = dynamic_cast<raid::RaidxController*>(world.engine.get());
    (void)ckpt::run_checkpoint(*rx, cfg);

    sim::Time t_local = 0, t_striped = 0, t_degraded = 0;
    auto probe = [](raid::RaidxController* eng, const CheckpointConfig* c,
                    sim::Time* local, sim::Time* striped) -> sim::Task<> {
      *local = co_await ckpt::recover_from_local_mirror(*eng, *c, 0);
      *striped = co_await ckpt::recover_striped(*eng, *c, 0);
    };
    world.sim().spawn(probe(rx, &cfg, &t_local, &t_striped));
    world.sim().run();

    // Permanent failure: lose a disk, recover from the stripes (degraded).
    world.cluster->disk(1).fail();
    auto probe2 = [](raid::RaidxController* eng, const CheckpointConfig* c,
                     sim::Time* out) -> sim::Task<> {
      *out = co_await ckpt::recover_striped(*eng, *c, 0);
    };
    world.sim().spawn(probe2(rx, &cfg, &t_degraded));
    world.sim().run();

    table.add_row({"transient: local mirror images", secs(t_local)});
    table.add_row({"striped read (all disks healthy)", secs(t_striped)});
    table.add_row({"permanent: striped read, 1 disk failed",
                   secs(t_degraded)});
    table.print();
    json.add("recover_local_s", sim::to_seconds(t_local));
    json.add("recover_striped_s", sim::to_seconds(t_striped));
    json.add("recover_degraded_s", sim::to_seconds(t_degraded));
    bench::add_obs(json, "obs_recovery", world);
  }
  bench::write_bench_json("fig7_checkpoint", json);
  return 0;
}
