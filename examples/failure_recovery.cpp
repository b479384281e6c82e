// Failure and recovery walkthrough on RAID-x.
//
// The scenario the paper's reliability story covers:
//   1. an application writes data across the array;
//   2. a disk dies -- reads continue from the orthogonal mirror images
//      (degraded mode), at a measurable latency cost;
//   3. the disk is replaced and the rebuild engine restores both its data
//      blocks and its image zones from the survivors, in the background;
//   4. service returns to normal, contents intact.
#include <cstdio>

#include "cluster/world.hpp"
#include "sim/event_queue.hpp"

using namespace raidx;

namespace {

constexpr std::uint32_t kBlocks = 64;

std::vector<std::byte> make_payload(std::uint32_t bs) {
  std::vector<std::byte> payload(kBlocks * bs);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i * 131 + 7);
  }
  return payload;
}

sim::Task<sim::Time> timed_read(raid::ArrayController& array,
                                std::vector<std::byte>& out) {
  auto& sim = array.simulation();
  const sim::Time t0 = sim.now();
  co_await array.read(0, 0, kBlocks, out);
  co_return sim.now() - t0;
}

sim::Task<> scenario(raid::ArrayController& array, cluster::Cluster& cluster,
                     int* mismatches) {
  auto& sim = array.simulation();
  const auto payload = make_payload(array.block_bytes());
  std::vector<std::byte> buf(payload.size());
  auto check = [&] {
    if (buf == payload) return "contents ok";
    ++*mismatches;
    return "MISMATCH";
  };

  std::printf("[%7.3f s] writing %zu KB across the array...\n",
              sim::to_seconds(sim.now()), payload.size() / 1024);
  co_await array.write(0, 0, payload);

  sim::Time healthy = co_await timed_read(array, buf);
  std::printf("[%7.3f s] healthy read: %.2f ms  (%s)\n",
              sim::to_seconds(sim.now()), sim::to_milliseconds(healthy),
              check());

  const int victim = 2;
  cluster.disk(victim).fail();
  std::printf("[%7.3f s] *** disk %d failed ***\n",
              sim::to_seconds(sim.now()), victim);

  sim::Time degraded = co_await timed_read(array, buf);
  std::printf("[%7.3f s] degraded read: %.2f ms  (%.1fx healthy, served "
              "from mirror images; %s)\n",
              sim::to_seconds(sim.now()), sim::to_milliseconds(degraded),
              static_cast<double>(degraded) / static_cast<double>(healthy),
              check());

  cluster.disk(victim).replace();
  std::printf("[%7.3f s] replacement disk installed; rebuilding...\n",
              sim::to_seconds(sim.now()));
  const sim::Time rb0 = sim.now();
  // Rebuild the region the data occupies (a full-disk sweep works the same
  // way, block row by block row).
  co_await array.rebuild_disk(/*client=*/victim, victim,
                              /*max_offset=*/64);
  std::printf("[%7.3f s] rebuild finished in %.2f ms\n",
              sim::to_seconds(sim.now()),
              sim::to_milliseconds(sim.now() - rb0));

  sim::Time restored = co_await timed_read(array, buf);
  std::printf("[%7.3f s] post-rebuild read: %.2f ms  (%s)\n",
              sim::to_seconds(sim.now()), sim::to_milliseconds(restored),
              check());

  // Prove the rebuilt disk's *image zones* are also correct: fail a
  // neighbor and read through the rebuilt disk's mirrors.
  const int second = 0;
  cluster.disk(second).fail();
  std::printf("[%7.3f s] *** disk %d failed (after rebuild) ***\n",
              sim::to_seconds(sim.now()), second);
  sim::Time via_rebuilt = co_await timed_read(array, buf);
  std::printf("[%7.3f s] read via rebuilt images: %.2f ms  (%s)\n",
              sim::to_seconds(sim.now()),
              sim::to_milliseconds(via_rebuilt), check());
}

}  // namespace

int main() {
  std::printf("RAID-x failure & recovery walkthrough (4-node array)\n\n");
  sim::Simulation sim;
  // A small array keeps the rebuild sweep readable.
  auto params = cluster::ClusterParams::trojans();
  params.geometry.nodes = 4;
  params.geometry.blocks_per_disk = 4096;
  cluster::World world(sim, params, {.arch = workload::Arch::kRaidX});

  int mismatches = 0;
  sim.spawn(scenario(*world.engine, *world.cluster, &mismatches));
  sim.run();
  return mismatches == 0 ? 0 : 1;
}
