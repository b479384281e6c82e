// Striped checkpointing of a long-running parallel application (Section 6).
//
// Twelve worker processes on a 4x3 RAID-x array checkpoint their state
// periodically with striped staggering.  Then the two failure modes:
//   * transient (a node reboots): its state comes back from the checkpoint
//     images clustered on its OWN disk -- mostly local reads;
//   * permanent (a disk dies): state is re-read from the striped
//     checkpoint in degraded mode.
#include <cstdio>

#include "ckpt/checkpoint.hpp"
#include "cluster/world.hpp"
#include "sim/event_queue.hpp"

using namespace raidx;

namespace {

sim::Task<> recover_demo(raid::RaidxController& array,
                         cluster::Cluster& cluster,
                         const ckpt::CheckpointConfig& cfg) {
  // Transient failure of process 3's node: local-mirror recovery.
  sim::Time local = co_await ckpt::recover_from_local_mirror(array, cfg, 3);
  std::printf("  transient failure : recovered 4 MB from local mirror "
              "images in %.3f s\n",
              sim::to_seconds(local));

  // For comparison: the striped read path while healthy.
  sim::Time striped = co_await ckpt::recover_striped(array, cfg, 3);
  std::printf("  striped re-read   : %.3f s (healthy array)\n",
              sim::to_seconds(striped));

  // Permanent failure: lose a disk, recover through degraded reads.
  cluster.disk(5).fail();
  sim::Time degraded = co_await ckpt::recover_striped(array, cfg, 3);
  std::printf("  permanent failure : disk 5 lost; striped recovery in "
              "%.3f s (degraded reads through images)\n",
              sim::to_seconds(degraded));
}

}  // namespace

int main() {
  std::printf("Striped checkpointing with staggering on a 4x3 RAID-x\n\n");
  sim::Simulation sim;
  cluster::World world(sim, cluster::ClusterParams::trojans_4x3(),
                       {.arch = workload::Arch::kRaidX});
  auto& array = dynamic_cast<raid::RaidxController&>(*world.engine);

  ckpt::CheckpointConfig cfg;
  cfg.processes = 12;
  cfg.bytes_per_process = 4ull << 20;
  cfg.strategy = ckpt::Strategy::kStripedStaggered;
  cfg.waves = 3;  // one wave per disk row: stripes pipeline across rows
  cfg.rounds = 4;
  cfg.compute_between = sim::seconds(3.0);

  std::printf("running %d rounds: %d processes x %.0f MB, %s, %d waves\n",
              cfg.rounds, cfg.processes,
              static_cast<double>(cfg.bytes_per_process) / 1e6,
              ckpt::strategy_name(cfg.strategy), cfg.waves);
  const auto result = ckpt::run_checkpoint(array, cfg);
  std::printf("  checkpoint overhead C : %.3f s per round\n",
              sim::to_seconds(result.overhead_c));
  std::printf("  synchronization  S    : %.3f s mean wait\n",
              sim::to_seconds(result.sync_s));
  std::printf("  total elapsed         : %.3f s (compute + %d "
              "checkpoints)\n\n",
              sim::to_seconds(result.total_elapsed), cfg.rounds);

  std::printf("recovery paths:\n");
  sim.spawn(recover_demo(array, *world.cluster, cfg));
  sim.run();

  std::printf("\nOSM placement guarantee: every process's checkpoint "
              "stripes have their images clustered on its own node's "
              "disks.\n");
  return 0;
}
