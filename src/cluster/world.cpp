#include "cluster/world.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>
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

sim::Task<bool> Composition::remote_io(int /*src*/, std::uint64_t /*slot*/,
                                       std::uint32_t /*nblocks*/,
                                       bool /*write*/) {
  throw std::logic_error("a one-world run has no peer world");
}

void Composition::arm_wan(std::vector<ha::FaultEvent> /*events*/) {
  throw std::invalid_argument(
      "site and link faults need a WAN federation of sites");
}

void Composition::arm_faults(const ha::FaultPlan& plan,
                             const ha::HaParams* ha,
                             const integrity::IntegrityParams* integrity) {
  const int disks = worlds_.front()->cluster->total_disks();
  const int nodes = worlds_.front()->cluster->geometry().nodes;
  const auto count = static_cast<int>(worlds_.size());
  std::vector<ha::FaultPlan> slices(worlds_.size());
  std::vector<ha::FaultEvent> wan;
  for (const ha::FaultEvent& ev : plan.events()) {
    if (ev.wan()) {
      wan.push_back(ev);
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
  for (std::size_t w = 0; w < worlds_.size(); ++w) {
    for (const ha::FaultEvent& ev : slices[w].events()) {
      worlds_[w]->faults.add(ev);
    }
    worlds_[w]->arm(ha, integrity);
  }
  if (!wan.empty()) arm_wan(std::move(wan));
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
