// Collaborative engineering design on a serverless cluster -- one of the
// I/O-centric applications the paper's introduction motivates.
//
// A team of engineers on different cluster nodes shares one file system
// built over the RAID-x single I/O space: each engineer checks in CAD
// part files, then everyone reads the whole assembly back.  No file
// server exists anywhere -- every node's CDD serves its local disk to the
// rest of the team.
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/world.hpp"
#include "fs/filesystem.hpp"
#include "sim/event_queue.hpp"
#include "sim/join.hpp"
#include "sim/random.hpp"

using namespace raidx;

namespace {

constexpr int kEngineers = 8;
constexpr int kPartsEach = 6;

sim::Task<> engineer(fs::FileSystem& fsys, int node, sim::Rng rng) {
  auto& sim = fsys.engine().simulation();
  const std::string dir = "/assembly/eng" + std::to_string(node);
  co_await fsys.mkdir(node, dir);

  const sim::Time t0 = sim.now();
  std::uint64_t bytes = 0;
  for (int p = 0; p < kPartsEach; ++p) {
    const std::string path = dir + "/part" + std::to_string(p) + ".cad";
    const fs::Ino ino = co_await fsys.create(node, path);
    // CAD part files: tens to hundreds of KB.
    const std::uint64_t size = rng.uniform_u64(20'000, 400'000);
    std::vector<std::byte> data(size,
                                std::byte{static_cast<unsigned char>(node)});
    co_await fsys.write_at(node, ino, 0, data);
    bytes += size;
  }
  std::printf("  engineer@node%-2d checked in %2d parts (%6.1f KB) in "
              "%6.2f s\n",
              node, kPartsEach, static_cast<double>(bytes) / 1024,
              sim::to_seconds(sim.now() - t0));
}

sim::Task<> review(fs::FileSystem& fsys, int node) {
  auto& sim = fsys.engine().simulation();
  const sim::Time t0 = sim.now();
  std::uint64_t bytes = 0;
  int files = 0;
  const fs::Ino root = co_await fsys.lookup(node, "/assembly");
  auto subdirs = co_await fsys.readdir(node, root);
  for (const auto& d : subdirs) {
    auto parts = co_await fsys.readdir(node, d.ino);
    for (const auto& p : parts) {
      const fs::FileInfo info = fsys.stat(p.ino);
      std::vector<std::byte> buf(info.size);
      bytes += co_await fsys.read_at(node, p.ino, 0, buf);
      ++files;
    }
  }
  std::printf("  reviewer@node%-2d read the whole assembly: %d files, "
              "%.1f MB in %.2f s (%.2f MB/s)\n",
              node, files, static_cast<double>(bytes) / 1e6,
              sim::to_seconds(sim.now() - t0),
              static_cast<double>(bytes) / 1e6 /
                  sim::to_seconds(sim.now() - t0));
}

sim::Task<> project(fs::FileSystem& fsys) {
  co_await fsys.format(0);
  co_await fsys.mkdir(0, "/assembly");

  std::printf("check-in phase (%d engineers in parallel):\n", kEngineers);
  sim::Joiner join(fsys.engine().simulation());
  sim::Rng root_rng(2026);
  for (int e = 0; e < kEngineers; ++e) {
    join.spawn(engineer(fsys, e, root_rng.fork()));
  }
  co_await join.wait();

  std::printf("\nreview phase (two reviewers on other nodes):\n");
  sim::Joiner reviewers(fsys.engine().simulation());
  reviewers.spawn(review(fsys, 12));
  reviewers.spawn(review(fsys, 13));
  co_await reviewers.wait();
}

}  // namespace

int main() {
  std::printf("Serverless engineering file store on RAID-x "
              "(16-node Trojans cluster)\n\n");
  sim::Simulation sim;
  cluster::World world(sim, cluster::ClusterParams::trojans(),
                       {.arch = workload::Arch::kRaidX});
  fs::FileSystem fsys(*world.engine);

  sim.spawn(project(fsys));
  sim.run();

  std::printf("\nfile system: %llu blocks in use; every byte has an "
              "orthogonal mirror image\n",
              static_cast<unsigned long long>(fsys.blocks_in_use()));
  return 0;
}
