// Cache ablation: per-node block-cache capacity x write policy x
// cooperative forwarding, over the two workloads the paper's figures use:
//
//   * the Fig 5(b) small-read point (32 KB scattered reads, 8 clients,
//     RAID-x), re-run after one warming pass so the measured pass hits a
//     warm cache,
//   * a shared scan -- every client reads the same 8 MB region that one
//     node's cache already holds, the workload where cooperative
//     peer-memory forwarding (vs everyone seeking the disks) shows up, and
//   * the Andrew benchmark (Fig 6), whose ScanDir/ReadAll phases re-read
//     what Copy just wrote -- the natural beneficiary of a block cache.
//
// The capacity-0 row is the control: every hook in the I/O path is
// bypassed, so its numbers must be bit-identical to a cacheless build
// (EXPERIMENTS.md pins the Fig 5 / Fig 6 reference runs to that state).
// Expected shape: a warm 64 MB/node cooperative cache lifts the small-read
// point and the ScanDir/ReadAll phases by well over 2x (memory + Ethernet
// vs disk seeks); 8 MB/node thrashes on the ~12 MB/client scattered
// working set and lands in between; write-back vs write-through only
// matters for the Andrew Copy/Compile phases (absorbed small writes); the
// cooperative switch only moves the shared scan.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "sim/stats.hpp"
#include "sim/random.hpp"
#include "workload/andrew.hpp"
#include "workload/parallel_io.hpp"

namespace {

using namespace raidx;
using bench::World;
using cache::WritePolicy;
using workload::AndrewResult;
using workload::Arch;

struct Cfg {
  std::string tag;
  std::uint64_t mb;  // per-node capacity; 0 = cache disabled
  WritePolicy policy = WritePolicy::kWriteThrough;
  bool coop = false;
};

cache::CacheParams to_cache(const Cfg& c, std::uint32_t block_bytes) {
  cache::CacheParams cp;
  cp.capacity_blocks = c.mb * (1ull << 20) / block_bytes;
  cp.write_policy = c.policy;
  cp.eviction = cache::EvictionPolicy::k2Q;
  cp.cooperative = c.coop;
  return cp;
}

constexpr int kClients = 8;

struct ReadPoint {
  double mbs = 0.0;
  cache::CacheStats stats;
};

ReadPoint small_read(const Cfg& c) {
  const auto clp = bench::perf_trojans();
  World world(clp, Arch::kRaidX, bench::paper_engine(),
              to_cache(c, clp.geometry.block_bytes));
  workload::ParallelIoConfig cfg;
  cfg.clients = kClients;
  cfg.op = workload::IoOp::kRead;
  cfg.bytes_per_op = 32ull << 10;
  cfg.ops_per_client =
      bench::smoke_pick(400, 50);  // ~12 MB touched per client: thrashes 8 MB
  cfg.scattered = true;
  // One unmeasured pass over the same access sequence warms the cache;
  // the control keeps the seed's single-pass behavior.
  cfg.warm_passes = world.cache->enabled() ? 1 : 0;
  const auto r = workload::run_parallel_io(*world.engine, cfg);
  return {r.aggregate_mbs, world.cache->stats()};
}

sim::Task<> warm_quarter(raid::ArrayController* eng, int node,
                         std::uint64_t lba, std::uint32_t nblocks,
                         std::vector<std::byte>* buf) {
  co_await eng->read(node, lba, nblocks, *buf);
}

sim::Task<> shared_reads(raid::ArrayController* eng, int client,
                         std::uint64_t region_blocks, int ops,
                         std::uint64_t seed, std::vector<std::byte>* buf) {
  sim::Rng rng(seed);
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t lba = rng.uniform_u64(0, region_blocks - 1);
    co_await eng->read(client, lba, 1, *buf);
  }
}

struct SharedPoint {
  double mbs = 0.0;
  cache::CacheStats stats;
};

// The cooperative-tier workload: a 32 MB shared region -- larger than one
// 8 MB cache but far smaller than the cluster's pooled memory -- whose
// quarters were warmed into four different nodes' caches.  Eight clients
// then read it in scattered order.  Without cooperative forwarding a miss
// at a node that does not hold the block seeks the disks; with it the
// block comes out of a peer's memory, and the load spreads over the four
// holders' Ethernet links.
SharedPoint shared_scan(const Cfg& c) {
  const auto clp = bench::perf_trojans();
  World world(clp, Arch::kRaidX, bench::paper_engine(),
              to_cache(c, clp.geometry.block_bytes));
  const std::uint32_t bs = clp.geometry.block_bytes;
  const std::uint64_t region_blocks = (32ull << 20) / bs;
  const std::uint32_t quarter =
      static_cast<std::uint32_t>(region_blocks / 4);
  std::vector<std::vector<std::byte>> bufs(
      kClients, std::vector<std::byte>(static_cast<std::size_t>(quarter) * bs));
  sim::Simulation& sim = world.sim();
  if (world.cache->enabled()) {
    for (int q = 0; q < 4; ++q) {
      sim.spawn(warm_quarter(world.engine.get(), q,
                             static_cast<std::uint64_t>(q) * quarter, quarter,
                             &bufs[static_cast<std::size_t>(q)]));
    }
    sim.run();
  }
  const int ops = 256;  // 8 MB of 32 KB reads per client
  const sim::Time t0 = sim.now();
  for (int i = 0; i < kClients; ++i) {
    sim.spawn(shared_reads(world.engine.get(), i, region_blocks, ops,
                           /*seed=*/1000 + static_cast<std::uint64_t>(i),
                           &bufs[static_cast<std::size_t>(i)]));
  }
  sim.run();
  return {sim::bandwidth_mbs(
              static_cast<std::uint64_t>(kClients) * ops * bs, sim.now() - t0),
          world.cache->stats()};
}

struct AndrewPoint {
  AndrewResult result;
  cache::CacheStats stats;
};

AndrewPoint andrew(const Cfg& c) {
  const auto clp = bench::perf_trojans();
  World world(clp, Arch::kRaidX, bench::paper_engine(),
              to_cache(c, clp.geometry.block_bytes));
  workload::AndrewConfig cfg;
  cfg.clients = kClients;
  return {workload::run_andrew(*world.engine, cfg), world.cache->stats()};
}

}  // namespace

int main() {
  std::vector<Cfg> cfgs = {{"off", 0}};
  for (std::uint64_t mb : {8ull, 64ull}) {
    for (WritePolicy pol : {WritePolicy::kWriteThrough,
                            WritePolicy::kWriteBack}) {
      for (bool coop : {false, true}) {
        const std::string tag = std::to_string(mb) + "mb_" +
                                (pol == WritePolicy::kWriteBack ? "wb" : "wt") +
                                (coop ? "_coop" : "");
        cfgs.push_back({tag, mb, pol, coop});
      }
    }
  }

  std::printf(
      "Cache ablation: RAID-x on the simulated Trojans cluster, %d clients\n"
      "Small read: 32 KB scattered ops, one warming pass; Andrew: Fig 6 "
      "workload\n\n",
      kClients);

  sim::JsonWriter json = bench::bench_json("ablation_cache");
  json.add("clients", kClients);

  sim::TablePrinter table({"config", "read MB/s", "read x", "shared MB/s",
                           "shared x", "ScanDir s", "scan x", "ReadAll s",
                           "readall x", "Andrew total s"});
  double base_read = 0.0, base_shared = 0.0;
  double base_scan = 0.0, base_readall = 0.0;
  double headline_mbs = 0.0, headline_scan_x = 0.0, headline_readall_x = 0.0;
  cache::CacheStats headline_shared, headline_andrew;
  for (const Cfg& c : cfgs) {
    const ReadPoint rp = small_read(c);
    const SharedPoint sp = shared_scan(c);
    const AndrewPoint ap = andrew(c);
    if (c.mb == 0) {
      base_read = rp.mbs;
      base_shared = sp.mbs;
      base_scan = sim::to_seconds(ap.result.scan_dir);
      base_readall = sim::to_seconds(ap.result.read_all);
    }
    if (c.tag == "64mb_wb_coop") {
      headline_mbs = rp.mbs;
      headline_shared = sp.stats;
      headline_andrew = ap.stats;
      headline_scan_x = base_scan / sim::to_seconds(ap.result.scan_dir);
      headline_readall_x = base_readall / sim::to_seconds(ap.result.read_all);
    }
    const double scan_s = sim::to_seconds(ap.result.scan_dir);
    const double readall_s = sim::to_seconds(ap.result.read_all);
    const double total_s = sim::to_seconds(ap.result.total());
    const auto fmt = sim::TablePrinter::fmt;
    table.add_row({c.tag, fmt(rp.mbs, 2), fmt(rp.mbs / base_read, 2),
                   fmt(sp.mbs, 2), fmt(sp.mbs / base_shared, 2),
                   fmt(scan_s, 3), fmt(base_scan / scan_s, 2),
                   fmt(readall_s, 3), fmt(base_readall / readall_s, 2),
                   fmt(total_s, 3)});
    json.add("read_mbs_" + c.tag, rp.mbs);
    json.add("shared_mbs_" + c.tag, sp.mbs);
    json.add("andrew_scan_s_" + c.tag, scan_s);
    json.add("andrew_readall_s_" + c.tag, readall_s);
    json.add("andrew_total_s_" + c.tag, total_s);
  }
  table.print();

  std::printf(
      "\nHeadline (64 MB/node, write-back, cooperative; >=2x required):\n"
      "  small read %.2fx, ScanDir %.2fx, ReadAll %.2fx\n"
      "  shared-scan peer hits %llu of %llu lookups\n",
      headline_mbs / base_read, headline_scan_x, headline_readall_x,
      static_cast<unsigned long long>(headline_shared.peer_hits),
      static_cast<unsigned long long>(headline_shared.lookups()));
  json.add("read_speedup_64mb_wb_coop", headline_mbs / base_read);
  json.add("scan_speedup_64mb_wb_coop", headline_scan_x);
  json.add("readall_speedup_64mb_wb_coop", headline_readall_x);
  json.add("shared_peer_hits_64mb_wb_coop", headline_shared.peer_hits);
  // Counters from the headline Andrew run: the hit-rate trajectory the
  // next PRs can track.
  bench::add_cache_counters(json, headline_andrew);
  bench::write_bench_json("ablation_cache", json);
  return 0;
}
