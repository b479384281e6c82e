// One sub-world: the unit every run composes.
//
// In RAID-x the unit of composition is one serverless cluster whose CDDs
// pool every node's disks into a single I/O space.  A World is that unit,
// built in one order -- Cluster, CddFabric, CacheFabric, array engine,
// attach_cache -- plus the tiers that ride on one array when a run asks
// for them: a recovery orchestrator, an integrity plane, a QoS gate, and
// the world's own slice of the run's fault plan.
//
// Every run builds its worlds through this type.  The classic run is one
// World.  A cluster::ShardedCluster is S of them, each on its own shard's
// Simulation, joined by the spine.  A wan::Federation is N of them sharing
// one Simulation, joined by WAN links.  What the compositions share lives
// here too: the global -> local split of a fault plan, and the prefixed
// registry merge.  Each composition keeps only its link model.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "cache/cache_fabric.hpp"
#include "cdd/cdd.hpp"
#include "cluster/cluster.hpp"
#include "ha/fault_plan.hpp"
#include "ha/ha.hpp"
#include "integrity/integrity.hpp"
#include "load/qos.hpp"
#include "obs/metrics.hpp"
#include "raid/controller.hpp"
#include "workload/engines.hpp"

namespace raidx::cluster {

/// The knobs every sub-world of a run shares.
struct WorldParams {
  workload::Arch arch = workload::Arch::kRaidX;
  raid::EngineParams engine = {};
  cache::CacheParams cache = {};
  cdd::CddParams cdd = {};
};

struct World {
  /// Build the array stack on `sim`.  Coroutine frames the stack creates
  /// come from `sim`'s frame pool, so a shard's world recycles them on
  /// whichever worker drives the shard.
  World(sim::Simulation& sim, const ClusterParams& cluster_params,
        const WorldParams& params);
  /// Abandons the simulation first (Simulation::abandon): every process
  /// still suspended on it dies while the tiers it holds grants on are
  /// alive.  So a world dies with its simulation's run, never while
  /// another world on the same simulation keeps running.
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  sim::Simulation& sim() { return cluster->sim(); }

  /// Build the orchestrator (when `ha` is given) and the integrity plane
  /// (when `integrity` is given), then arm `faults` against them.  Call
  /// once, before the run.
  void arm(const ha::HaParams* ha, const integrity::IntegrityParams* integrity);

  /// Export this world's counters into `reg` (obs::collect_cluster over
  /// every tier the world holds).
  void collect(obs::Registry& reg);

  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<cdd::CddFabric> fabric;
  std::unique_ptr<cache::CacheFabric> cache;
  std::unique_ptr<raid::ArrayController> engine;
  std::unique_ptr<ha::Orchestrator> orchestrator;
  std::unique_ptr<integrity::IntegrityPlane> plane;
  std::unique_ptr<load::QosGate> gate;
  ha::FaultPlan faults;  // this world's slice, in local ids
};

/// Split `plan` -- written in global ids over `worlds` identical worlds,
/// world w owning disks [w*D, (w+1)*D) and nodes [w*N, (w+1)*N) -- into
/// each world's `faults` slice in local ids, then arm every world (see
/// World::arm).  Returns the site and link events, which belong to no
/// world.  Throws std::invalid_argument for a disk or node outside every
/// world, before arming any.
ha::FaultPlan arm_worlds(const ha::FaultPlan& plan,
                         std::span<World* const> worlds,
                         const ha::HaParams* ha,
                         const integrity::IntegrityParams* integrity);

/// "<kind>.NNN." -- the registry prefix of world `index`.
std::string world_prefix(const char* kind, int index);

/// Collect every world once and fold it into `out` under its
/// world_prefix, in world order.  Byte-deterministic for a fixed run.
void merge_worlds(obs::Registry& out, const char* kind,
                  std::span<World* const> worlds);

}  // namespace raidx::cluster
