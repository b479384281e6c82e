#include "cluster/sharded.hpp"

#include <algorithm>
#include <cassert>
#include <span>

#include "block/payload.hpp"

namespace raidx::cluster {

ShardedCluster::Shard::Shard(sim::Simulation& sim,
                             const ClusterParams& group_params,
                             const WorldParams& params)
    : World(sim, group_params, params), uplink_tx(sim, 1), uplink_rx(sim, 1) {
  sim.set_hub(&hub);
}

// Frames still suspended may hold the uplinks, which die before the
// World's own teardown: destroy them first.  The hub dies before the
// World's tiers; detach it so nothing torn down after it can reach it
// through the Simulation.
ShardedCluster::Shard::~Shard() {
  sim().abandon();
  sim().set_hub(nullptr);
}

ShardedCluster::ShardedCluster(const ClusterParams& group_params,
                               const ShardedParams& sp)
    : group_params_(group_params),
      sharded_params_(sp),
      group_(sp.shards, sp.hop_latency) {
  shards_.reserve(static_cast<std::size_t>(sp.shards));
  for (int s = 0; s < sp.shards; ++s) {
    shards_.push_back(
        std::make_unique<Shard>(group_.sim(s), group_params, sp));
    worlds_.push_back(shards_.back().get());
  }
}

// Members declare group_ before shards_, so the sub-worlds die before
// their Simulations.
ShardedCluster::~ShardedCluster() = default;

sim::Time ShardedCluster::spine_ns(std::uint64_t bytes) const {
  // MB/s = 1e6 bytes/s = 1e-3 bytes/ns.
  return static_cast<sim::Time>(static_cast<double>(bytes) * 1000.0 /
                                sharded_params_.uplink_mbs);
}

sim::Task<bool> ShardedCluster::remote_io(int src, int dst, bool write,
                                          std::uint64_t lba,
                                          std::uint32_t nblocks) {
  assert(src != dst && "remote_io is the cross-shard path");
  Shard& a = shard(src);
  sim::Simulation& ssim = group_.sim(src);
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(nblocks) * engine(src).block_bytes();
  ++a.remote_sent;
  {
    // Serialize the request onto this group's spine uplink: full payload
    // for writes, a header for reads.
    auto guard = co_await a.uplink_tx.acquire();
    co_await ssim.delay(
        spine_ns(write ? bytes + sharded_params_.header_bytes
                       : sharded_params_.header_bytes));
  }
  sim::Oneshot<bool> done(ssim);
  group_.post(src, dst, ssim.now() + sharded_params_.hop_latency,
              [this, src, dst, write, lba, nblocks, &done] {
                // Runs on dst's worker inside a later window; the gateway
                // service task is a dst-shard coroutine from birth.
                group_.sim(dst).spawn(
                    serve_remote(src, dst, write, lba, nblocks, done));
              });
  co_return co_await done.wait();
}

sim::Task<bool> ShardedCluster::remote_io(int src, std::uint64_t slot,
                                          std::uint32_t nblocks, bool write) {
  const int dst = (src + 1) % shards();
  const std::uint64_t span =
      std::max<std::uint64_t>(1, engine(dst).logical_blocks() / nblocks);
  return remote_io(src, dst, write, (slot % span) * nblocks, nblocks);
}

sim::Task<> ShardedCluster::serve_remote(int src, int dst, bool write,
                                         std::uint64_t lba,
                                         std::uint32_t nblocks,
                                         sim::Oneshot<bool>& done) {
  Shard& b = shard(dst);
  sim::Simulation& dsim = group_.sim(dst);
  raid::ArrayController& eng = *b.engine;
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(nblocks) * eng.block_bytes();
  {
    auto guard = co_await b.uplink_rx.acquire();
    co_await dsim.delay(
        spine_ns(write ? bytes + sharded_params_.header_bytes
                       : sharded_params_.header_bytes));
  }
  // Rotate the gateway so forwarded traffic spreads over the group's
  // nodes; the rotation is driven by deterministic delivery order.
  const int gateway = static_cast<int>(
      b.next_gateway++ % static_cast<std::uint64_t>(nodes_per_shard()));
  bool ok = true;
  try {
    if (write) {
      co_await eng.write(gateway, lba, block::Payload::zeros(bytes));
    } else {
      if (b.remote_scratch.size() < bytes) {
        b.remote_scratch.resize(static_cast<std::size_t>(bytes));
      }
      co_await eng.read(gateway, lba, nblocks,
                        std::span<std::byte>(b.remote_scratch.data(),
                                             static_cast<std::size_t>(bytes)));
    }
  } catch (const raid::IoError&) {  // lost blocks or refused admission
    ok = false;
  }
  if (ok) {
    ++b.remote_served;
  } else {
    ++b.remote_failed;
  }
  {
    // Reply rides the spine back: payload for reads, an ack for writes.
    auto guard = co_await b.uplink_tx.acquire();
    co_await dsim.delay(
        spine_ns(write ? sharded_params_.header_bytes
                       : bytes + sharded_params_.header_bytes));
  }
  group_.post(dst, src, dsim.now() + sharded_params_.hop_latency,
              [&done, ok] { done.set(ok); });
}

void ShardedCluster::collect(obs::Registry& reg) {
  // Each group's hub holds what its load tier exported during the run;
  // its collected counters fold in under the same prefix.
  for (int s = 0; s < shards(); ++s) {
    reg.merge_from(shard(s).hub.registry(), world_prefix("shard", s));
  }
  merge_worlds(reg, "shard", worlds_);
  reg.counter("sim.shard.windows").inc(group_.stats().windows);
  reg.counter("sim.shard.messages").inc(group_.stats().messages);
  std::uint64_t sent = 0, served = 0, failed = 0;
  for (int s = 0; s < shards(); ++s) {
    sent += shard(s).remote_sent;
    served += shard(s).remote_served;
    failed += shard(s).remote_failed;
  }
  reg.counter("remote.sent").inc(sent);
  reg.counter("remote.served").inc(served);
  reg.counter("remote.failed").inc(failed);
}

std::string ShardedCluster::merged_snapshot_json() {
  obs::Registry merged;
  collect(merged);
  return merged.snapshot_json();
}

}  // namespace raidx::cluster
