#include "cluster/world.hpp"

#include <cstdio>
#include <stdexcept>
#include <vector>

#include "obs/collect.hpp"

namespace raidx::cluster {

World::World(sim::Simulation& sim, const ClusterParams& cluster_params,
             const WorldParams& params) {
  // The CDD server loops the fabric spawns, and all later I/O, take their
  // frames from this world's own pool.
  sim::FramePool::Scope scope(&sim.frame_pool());
  cluster = std::make_unique<Cluster>(sim, cluster_params);
  fabric = std::make_unique<cdd::CddFabric>(*cluster, params.cdd);
  cache = std::make_unique<cache::CacheFabric>(*cluster, params.cache);
  engine = workload::make_engine(params.arch, *fabric, params.engine);
  engine->attach_cache(cache.get());
}

// Members die in reverse order: the gate, plane and orchestrator let go of
// the engine before it dies, and the orchestrator precedes the fabric's
// destruction as its contract requires.
World::~World() { sim().abandon(); }

void World::arm(const ha::HaParams* ha,
                const integrity::IntegrityParams* integrity) {
  sim::FramePool::Scope scope(&sim().frame_pool());
  if (ha != nullptr) {
    orchestrator = std::make_unique<ha::Orchestrator>(*engine, *ha);
  }
  if (integrity != nullptr) {
    plane = std::make_unique<integrity::IntegrityPlane>(*engine, *integrity);
  }
  faults.arm(*cluster, orchestrator.get(), plane.get());
}

void World::collect(obs::Registry& reg) {
  obs::collect_cluster(reg, *cluster, fabric.get(), cache.get(),
                       orchestrator.get(), plane.get());
}

ha::FaultPlan arm_worlds(const ha::FaultPlan& plan,
                         std::span<World* const> worlds,
                         const ha::HaParams* ha,
                         const integrity::IntegrityParams* integrity) {
  const int disks = worlds.front()->cluster->total_disks();
  const int nodes = worlds.front()->cluster->geometry().nodes;
  const auto count = static_cast<int>(worlds.size());
  std::vector<ha::FaultPlan> slices(worlds.size());
  ha::FaultPlan links;
  for (const ha::FaultEvent& ev : plan.events()) {
    if (ev.wan()) {
      links.add(ev);
      continue;
    }
    const bool node = ev.kind == ha::FaultEvent::Kind::kPartitionNode ||
                      ev.kind == ha::FaultEvent::Kind::kJoinNode;
    const int per = node ? nodes : disks;
    if (ev.target < 0 || ev.target / per >= count) {
      throw std::invalid_argument(
          "fault plan targets a disk or node outside every world");
    }
    ha::FaultEvent local = ev;
    local.target = ev.target % per;
    slices[static_cast<std::size_t>(ev.target / per)].add(local);
  }
  for (std::size_t w = 0; w < worlds.size(); ++w) {
    for (const ha::FaultEvent& ev : slices[w].events()) {
      worlds[w]->faults.add(ev);
    }
    worlds[w]->arm(ha, integrity);
  }
  return links;
}

std::string world_prefix(const char* kind, int index) {
  char prefix[24];
  std::snprintf(prefix, sizeof(prefix), "%s.%03d.", kind, index);
  return prefix;
}

void merge_worlds(obs::Registry& out, const char* kind,
                  std::span<World* const> worlds) {
  for (std::size_t w = 0; w < worlds.size(); ++w) {
    obs::Registry reg;
    worlds[w]->collect(reg);
    out.merge_from(reg, world_prefix(kind, static_cast<int>(w)));
  }
}

}  // namespace raidx::cluster
