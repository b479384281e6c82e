// Quickstart: build a simulated serverless cluster, pool its disks into a
// RAID-x array through the cooperative disk drivers, and do block I/O from
// any node.
//
//   $ ./examples/quickstart
//
// Walks through the core public API: Simulation -> Cluster -> CddFabric ->
// RaidxController, then a write/read round trip with timing.
#include <cstdio>

#include "cluster/cluster.hpp"
#include "raid/controller.hpp"
#include "sim/event_queue.hpp"

using namespace raidx;

namespace {

sim::Task<> demo(raid::RaidxController& array, sim::Simulation& sim,
                 bool* match) {
  const std::uint32_t bs = array.block_bytes();

  // 1 MB of application data, written from node 5 starting at block 100.
  std::vector<std::byte> payload(32 * bs);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i * 2654435761u >> 24);
  }

  sim::Time t0 = sim.now();
  co_await array.write(/*client node=*/5, /*lba=*/100, payload);
  std::printf("write : %zu KB in %.2f ms (foreground; mirror images flush "
              "in the background)\n",
              payload.size() / 1024, sim::to_milliseconds(sim.now() - t0));

  // Read it back from a *different* node: the single I/O space makes every
  // disk addressable everywhere.
  std::vector<std::byte> back(payload.size());
  t0 = sim.now();
  co_await array.read(/*client node=*/11, 100, 32, back);
  std::printf("read  : %zu KB in %.2f ms from another node\n",
              back.size() / 1024, sim::to_milliseconds(sim.now() - t0));

  *match = back == payload;
  std::printf("verify: %s\n", *match ? "contents match" : "MISMATCH");
}

}  // namespace

int main() {
  std::printf("RAID-x quickstart -- orthogonal striping and mirroring on a "
              "simulated 16-node cluster\n\n");

  // The simulated world: 16 nodes, one 10 GB disk each, switched Fast
  // Ethernet -- the paper's Trojans cluster.
  sim::Simulation sim;
  cluster::Cluster cluster(sim, cluster::ClusterParams::trojans());

  // Cooperative disk drivers pool all 16 disks into a single I/O space.
  cdd::CddFabric fabric(cluster);

  // A RAID-x array over the SIOS.
  raid::RaidxController array(fabric);
  std::printf("array : %s, %llu logical blocks of %u KB (%.1f GB usable)\n",
              array.name().c_str(),
              static_cast<unsigned long long>(array.logical_blocks()),
              array.block_bytes() / 1024,
              static_cast<double>(array.logical_blocks()) *
                  array.block_bytes() / 1e9);

  bool match = false;
  sim.spawn(demo(array, sim, &match));
  sim.run();

  std::printf("\ncluster counters: %llu local + %llu remote CDD requests\n",
              static_cast<unsigned long long>(fabric.local_requests()),
              static_cast<unsigned long long>(fabric.remote_requests()));
  return match ? 0 : 1;
}
