// Shared helpers for the RAID-x test suite: small clusters, deterministic
// data patterns, and a driver that runs one task to completion.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cdd/cdd.hpp"
#include "cluster/cluster.hpp"
#include "sim/event_queue.hpp"
#include "sim/task.hpp"

namespace raidx::test {

// Sanitizer instrumentation grows coroutine frames, so frame-byte bounds
// hold only for uninstrumented builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kInstrumentedFrames = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kInstrumentedFrames = true;
#else
constexpr bool kInstrumentedFrames = false;
#endif
#else
constexpr bool kInstrumentedFrames = false;
#endif

/// A small cluster geometry that keeps tests fast: tiny blocks, few blocks
/// per disk, but the full network/CPU/disk stack.
inline cluster::ClusterParams small_cluster(int nodes = 4,
                                            int disks_per_node = 1,
                                            std::uint64_t blocks_per_disk =
                                                600,
                                            std::uint32_t block_bytes = 512) {
  cluster::ClusterParams p = cluster::ClusterParams::trojans();
  p.geometry.nodes = nodes;
  p.geometry.disks_per_node = disks_per_node;
  p.geometry.blocks_per_disk = blocks_per_disk;
  p.geometry.block_bytes = block_bytes;
  return p;
}

/// Test rig bundling the simulation, cluster, and CDD fabric.
struct Rig {
  explicit Rig(cluster::ClusterParams params, cdd::CddParams cdd_params = {})
      : cluster(sim, params), fabric(cluster, cdd_params) {}

  sim::Simulation sim;
  cluster::Cluster cluster;
  cdd::CddFabric fabric;

  /// Spawn a task and drain the simulation (background work included).
  void run(sim::Task<> t) {
    sim.spawn(std::move(t));
    sim.run();
  }
};

/// Deterministic per-block data pattern so any misplaced block is caught.
inline std::vector<std::byte> pattern_block(std::uint64_t lba,
                                            std::uint32_t block_bytes,
                                            std::uint8_t salt = 0) {
  std::vector<std::byte> out(block_bytes);
  for (std::uint32_t i = 0; i < block_bytes; ++i) {
    out[i] = static_cast<std::byte>(
        static_cast<std::uint8_t>(lba * 131 + i * 7 + salt));
  }
  return out;
}

/// Pattern for a run of blocks starting at `lba`.
inline std::vector<std::byte> pattern_run(std::uint64_t lba,
                                          std::uint32_t nblocks,
                                          std::uint32_t block_bytes,
                                          std::uint8_t salt = 0) {
  std::vector<std::byte> out;
  out.reserve(static_cast<std::size_t>(nblocks) * block_bytes);
  for (std::uint32_t i = 0; i < nblocks; ++i) {
    auto blk = pattern_block(lba + i, block_bytes, salt);
    out.insert(out.end(), blk.begin(), blk.end());
  }
  return out;
}

}  // namespace raidx::test
