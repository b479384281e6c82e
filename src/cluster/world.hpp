// One sub-world: the unit every run composes.
//
// In RAID-x the unit of composition is one serverless cluster whose CDDs
// pool every node's disks into a single I/O space.  A World is that unit,
// built in one order -- Cluster, CddFabric, CacheFabric, array engine,
// attach_cache -- plus the tiers that ride on one array when a run asks
// for them: a recovery orchestrator, an integrity plane, a QoS gate, and
// the world's own slice of the run's fault plan.
//
// Every run builds its worlds through this type, and puts them together
// through one contract, the Composition below.  The classic run is a
// OneWorld.  A cluster::ShardedCluster is S worlds, each on its own
// shard's Simulation, joined by the spine.  A wan::Federation is N worlds
// sharing one Simulation, joined by WAN links.  What the compositions
// share lives here: the global -> local split of a fault plan, and the
// prefixed registry merge.  Each composition keeps only its link model.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cache/cache_fabric.hpp"
#include "cdd/cdd.hpp"
#include "cluster/cluster.hpp"
#include "ha/fault_plan.hpp"
#include "ha/ha.hpp"
#include "integrity/integrity.hpp"
#include "load/qos.hpp"
#include "obs/metrics.hpp"
#include "raid/controller.hpp"
#include "sim/task.hpp"
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

/// How a run puts its worlds together: the classic run's one World, the
/// placement groups of a ShardedCluster, or the sites of a
/// wan::Federation.  Every multi-world driver (load::run_open_loop over a
/// composition, raidxsim) builds, arms, runs and collects a run through
/// this contract alone.
class Composition {
 public:
  Composition() = default;
  virtual ~Composition() = default;
  Composition(const Composition&) = delete;
  Composition& operator=(const Composition&) = delete;

  /// The worlds, in order: world w owns disks [w*D, (w+1)*D) and nodes
  /// [w*N, (w+1)*N) of the run's global ids.
  std::span<World* const> worlds() const { return worlds_; }

  /// Advance every world to completion, on `threads` workers where the
  /// composition has a worker pool.  Results never depend on `threads`.
  virtual void run(int threads) = 0;

  /// First LBA of world `w`'s own region: a site's primary region, 0
  /// where a world owns its whole array.
  virtual std::uint64_t home_base(int /*w*/) const { return 0; }

  /// One op for a client in world `src`, run at a peer world the
  /// composition picks; `slot` is a popularity slot it maps into the
  /// peer's space.  Resolves to the op's success.  A one-world
  /// composition has no peer: the default throws std::logic_error.
  virtual sim::Task<bool> remote_io(int src, std::uint64_t slot,
                                    std::uint32_t nblocks, bool write);

  /// Split `plan`, written in run-global ids, into each world's `faults`
  /// slice in local ids, arm every world (World::arm, with an
  /// orchestrator when `ha` is given and an integrity plane when
  /// `integrity` is), then hand the site and link events to arm_wan.
  /// Throws std::invalid_argument for a disk or node outside every world
  /// before arming any.  Call once, before the run.
  void arm_faults(const ha::FaultPlan& plan, const ha::HaParams* ha = nullptr,
                  const integrity::IntegrityParams* integrity = nullptr);

  /// Export every world's counters, and the composition's own, into
  /// `reg`.  Byte-deterministic for a fixed run.
  virtual void collect(obs::Registry& reg) = 0;

 protected:
  /// Drive the plan's site and link events, which belong to no world.
  /// Called after every world is armed (spawn order fixes event sequence
  /// numbers), and only with events.  Only a WAN federation has sites
  /// and links: the default throws std::invalid_argument.
  virtual void arm_wan(std::vector<ha::FaultEvent> events);

  std::vector<World*> worlds_;  // filled as the composition builds them
};

/// The classic run: one World on the caller's Simulation, collected with
/// no prefix.
class OneWorld final : public Composition {
 public:
  OneWorld(sim::Simulation& sim, const ClusterParams& cluster_params,
           const WorldParams& params)
      : world_(sim, cluster_params, params) {
    worlds_.push_back(&world_);
  }
  void run(int /*threads*/) override { world_.sim().run(); }
  void collect(obs::Registry& reg) override { world_.collect(reg); }

 private:
  World world_;
};

/// "<kind>.NNN." -- the registry prefix of world `index`.
std::string world_prefix(const char* kind, int index);

/// Collect every world once and fold it into `out` under its
/// world_prefix, in world order.  Byte-deterministic for a fixed run.
void merge_worlds(obs::Registry& out, const char* kind,
                  std::span<World* const> worlds);

}  // namespace raidx::cluster
