// Federation of per-shard sub-clusters under one conservative synchronizer.
//
// The single-Simulation stack couples every node through one Network, one
// CddFabric pending-RPC map, and one ArrayController striping across all
// disks -- partitioning the nodes of *that* world across threads would make
// nearly every request cross-shard and serialize on shared state.  The
// scale-out model here is the one real deployments of the paper's design
// use (and the OSDF federation papers measure): the cluster is a set of
// placement groups.  Each shard owns a complete cluster::World -- Cluster,
// CddFabric, cache fabric, array controller, and the recovery, integrity
// and QoS tiers a run arms -- plus an obs hub, living entirely on that
// shard's Simulation, so the intra-group fast paths
// (symmetric-transfer resumes, the local CDD path, lock groups) run
// untouched and lock-free.  Groups are coupled only by an inter-group
// spine: a client in group A reaches data homed in group B through a
// gateway RPC that serializes onto A's uplink, crosses the spine (one
// hop >= the ShardGroup lookahead), executes against B's controller on
// B's shard, and returns the same way.
//
// Every shard seeds its own RNG streams (callers fork per shard index),
// and every cross-shard interaction rides ShardGroup's deterministic
// mailboxes, so results are a pure function of (seed, shard count).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/world.hpp"
#include "obs/obs.hpp"
#include "sim/channel.hpp"
#include "sim/resource.hpp"
#include "sim/shard.hpp"
#include "sim/task.hpp"

namespace raidx::cluster {

struct ShardedParams : WorldParams {
  int shards = 1;
  /// Inter-group spine: per-group uplink serialization bandwidth and the
  /// one-way hop latency.  The hop is the ShardGroup lookahead, so it must
  /// be positive; the default models a gigabit spine above the groups'
  /// Fast-Ethernet access tier.
  double uplink_mbs = 125.0;
  sim::Time hop_latency = sim::microseconds(100);
  /// Fixed header cost charged on the spine for requests without payload
  /// (read requests, write acks).
  std::uint32_t header_bytes = 512;
};

class ShardedCluster final : public Composition {
 public:
  /// `group_params` describes ONE group (geometry.nodes = nodes per
  /// shard); the federation is `sp.shards` identical groups.
  ShardedCluster(const ClusterParams& group_params, const ShardedParams& sp);
  ~ShardedCluster();
  ShardedCluster(const ShardedCluster&) = delete;
  ShardedCluster& operator=(const ShardedCluster&) = delete;

  /// One group: its World, on the shard's own Simulation, plus what the
  /// spine gives it -- the shard's observability hub (its load tier
  /// exports there), the uplink serializers and the gateway's state.  A
  /// 1-shard federation is event-for-event the plain single-Simulation
  /// world.
  struct Shard : World {
    Shard(sim::Simulation& sim, const ClusterParams& group_params,
          const WorldParams& params);
    ~Shard();
    obs::Hub hub;
    sim::Resource uplink_tx;
    sim::Resource uplink_rx;
    std::vector<std::byte> remote_scratch;  // gateway read landing buffer
    std::uint64_t next_gateway = 0;         // round-robin gateway node
    std::uint64_t remote_sent = 0;
    std::uint64_t remote_served = 0;
    std::uint64_t remote_failed = 0;
  };

  int shards() const { return static_cast<int>(shards_.size()); }
  int nodes_per_shard() const { return group_params_.geometry.nodes; }
  int total_nodes() const { return nodes_per_shard() * shards(); }
  int disks_per_shard() const { return group_params_.geometry.total_disks(); }
  int total_disks() const { return disks_per_shard() * shards(); }
  const ShardedParams& params() const { return sharded_params_; }

  sim::ShardGroup& group() { return group_; }
  Shard& shard(int s) { return *shards_[static_cast<std::size_t>(s)]; }
  raid::ArrayController& engine(int s) { return *shard(s).engine; }
  sim::Simulation& sim(int s) { return group_.sim(s); }

  /// Advance the federation to global completion on `threads` workers.
  void run(int threads) override { group_.run(threads); }

  /// Execute one op against shard `dst`'s array on behalf of a client in
  /// shard `src`: uplink serialization, spine hop, gateway execution on
  /// dst, reply hop.  Must be awaited from a coroutine running on shard
  /// `src`'s Simulation.  Returns false on I/O failure at the far end.
  sim::Task<bool> remote_io(int src, int dst, bool write, std::uint64_t lba,
                            std::uint32_t nblocks);
  /// The open-loop entry: run the op on the ring neighbour (src + 1) % S,
  /// with `slot` wrapped into the neighbour's logical space so remote
  /// traffic keeps its skew but lands on the remote array.  A plain
  /// function returning the gateway's task: no frame of its own.
  sim::Task<bool> remote_io(int src, std::uint64_t slot,
                            std::uint32_t nblocks, bool write) override;

  /// Fold every group's hub registry (the load tier's keys) and its
  /// collected counters under "shard.NNN." prefixes in shard order, then
  /// append the federation-level keys (sim.shard.windows/messages,
  /// remote.*).  Byte-deterministic for fixed (seed, shards).
  void collect(obs::Registry& reg) override;
  /// collect() into a fresh registry, as JSON.
  std::string merged_snapshot_json();

 private:
  sim::Task<> serve_remote(int src, int dst, bool write, std::uint64_t lba,
                           std::uint32_t nblocks, sim::Oneshot<bool>& done);
  sim::Time spine_ns(std::uint64_t bytes) const;

  ClusterParams group_params_;
  ShardedParams sharded_params_;
  sim::ShardGroup group_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace raidx::cluster
