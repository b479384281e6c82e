// Striped checkpointing on the distributed RAID (Section 6 / Fig. 7).
//
// Coordinated checkpointing of P processes onto the disk array, under three
// scheduling strategies:
//  * kSimultaneous      -- everyone writes at once (network/disk contention,
//                          the problem Vaidya identified);
//  * kStaggered         -- Vaidya's staggered writing: one process at a
//                          time (no contention, long total span);
//  * kStripedStaggered  -- the paper's scheme: processes are grouped into
//                          waves; a wave writes a full stripe in parallel
//                          while other waves wait, pipelining successive
//                          stripes across disk groups.
//
// With OSM placement on RAID-x each process can choose checkpoint stripes
// whose *image node is its own node*, so a transient local failure recovers
// from the local mirror while a permanent disk loss recovers from the
// stripes -- both measured here.
#pragma once

#include <cstdint>
#include <vector>

#include "raid/controller.hpp"
#include "sim/time.hpp"

namespace raidx::ckpt {

enum class Strategy { kSimultaneous, kStaggered, kStripedStaggered };

const char* strategy_name(Strategy s);

struct CheckpointConfig {
  int processes = 12;
  std::uint64_t bytes_per_process = 4ull << 20;
  Strategy strategy = Strategy::kStripedStaggered;
  /// Wave count for kStripedStaggered (the staggering depth; the paper
  /// trades it against stripe parallelism when reconfiguring 4x3 -> 6x2).
  int waves = 3;
  /// Checkpoint rounds, with compute time between them.
  int rounds = 3;
  sim::Time compute_between = sim::seconds(2.0);
  std::uint64_t seed = 11;
};

struct ProcessStats {
  sim::Time write_total = 0;  // time spent writing checkpoints (C)
  sim::Time sync_total = 0;   // time spent waiting at barriers (S)
};

struct CheckpointResult {
  sim::Time total_elapsed = 0;
  /// Mean per-round checkpoint overhead C: barrier release to last
  /// process's write completion.
  sim::Time overhead_c = 0;
  /// Mean per-round synchronization overhead S.
  sim::Time sync_s = 0;
  std::vector<ProcessStats> procs;
};

/// Run `rounds` coordinated checkpoints to completion.
CheckpointResult run_checkpoint(raid::ArrayController& engine,
                                const CheckpointConfig& config);

/// First logical block of process `proc`'s checkpoint stripe number `index`
/// under the configured placement.
std::uint64_t checkpoint_stripe_lba(const raid::ArrayController& engine,
                                    const CheckpointConfig& config, int proc,
                                    std::uint64_t index);

/// Recover one process's checkpoint from its local mirror images (RAID-x
/// transient-failure path).  Returns the simulated recovery time.
sim::Task<sim::Time> recover_from_local_mirror(raid::RaidxController& engine,
                                               const CheckpointConfig& config,
                                               int proc);

/// Recover by reading the striped checkpoint normally (permanent-failure
/// path; works degraded after a disk loss).  Returns the recovery time.
sim::Task<sim::Time> recover_striped(raid::ArrayController& engine,
                                     const CheckpointConfig& config,
                                     int proc);

}  // namespace raidx::ckpt
