// Tests for the workload generators (Fig 5 parallel I/O, Fig 6 Andrew) and
// the analytic Table-2 model.
#include <gtest/gtest.h>

#include <set>

#include "analytic/model.hpp"
#include "cache/cache_fabric.hpp"
#include "test_util.hpp"
#include "workload/andrew.hpp"
#include "workload/engines.hpp"
#include "workload/parallel_io.hpp"

namespace raidx::workload {
namespace {

using test::Rig;

cluster::ClusterParams perf_cluster() {
  auto p = test::small_cluster(4, 1, /*blocks_per_disk=*/4096,
                               /*block_bytes=*/4096);
  p.disk.store_data = false;
  return p;
}

// The paper's 32 KB stripe unit: seeks amortize over real transfers, so
// scaling behaviour is meaningful.
cluster::ClusterParams paper_unit_cluster() {
  auto p = test::small_cluster(4, 1, /*blocks_per_disk=*/4096,
                               /*block_bytes=*/32'768);
  p.disk.store_data = false;
  return p;
}

TEST(ParallelIo, SingleClientMovesConfiguredBytes) {
  Rig rig(perf_cluster());
  raid::RaidxController eng(rig.fabric);
  ParallelIoConfig cfg;
  cfg.clients = 1;
  cfg.op = IoOp::kRead;
  cfg.bytes_per_op = 64 * 4096;
  const auto r = run_parallel_io(eng, cfg);
  ASSERT_EQ(r.clients.size(), 1u);
  EXPECT_EQ(r.clients[0].bytes, cfg.bytes_per_op);
  EXPECT_GT(r.aggregate_mbs, 0.0);
  EXPECT_GT(r.elapsed, 0);
}

TEST(ParallelIo, BarrierAlignsClientStarts) {
  Rig rig(perf_cluster());
  raid::RaidxController eng(rig.fabric);
  ParallelIoConfig cfg;
  cfg.clients = 4;
  cfg.op = IoOp::kWrite;
  cfg.bytes_per_op = 16 * 4096;
  const auto r = run_parallel_io(eng, cfg);
  std::set<sim::Time> starts;
  for (const auto& c : r.clients) starts.insert(c.start);
  EXPECT_EQ(starts.size(), 1u);  // MPI_Barrier semantics
}

TEST(ParallelIo, MoreClientsRaiseAggregateBandwidth) {
  // A single client's scattered small ops are latency-bound; more clients
  // engage more disks in parallel (Fig 5's x-axis effect).
  auto measure = [](int clients) {
    Rig rig(paper_unit_cluster());
    raid::RaidxController eng(rig.fabric);
    ParallelIoConfig cfg;
    cfg.clients = clients;
    cfg.op = IoOp::kRead;
    cfg.bytes_per_op = 32'768;
    cfg.ops_per_client = 30;
    cfg.scattered = true;
    cfg.scatter_region_blocks = 64;
    return run_parallel_io(eng, cfg).aggregate_mbs;
  };
  EXPECT_GT(measure(4), measure(1));
}

TEST(ParallelIo, DeterministicForFixedSeed) {
  auto measure = [] {
    Rig rig(perf_cluster());
    raid::RaidxController eng(rig.fabric);
    ParallelIoConfig cfg;
    cfg.clients = 3;
    cfg.op = IoOp::kWrite;
    cfg.bytes_per_op = 4096;
    cfg.ops_per_client = 20;
    cfg.scattered = true;
    cfg.scatter_region_blocks = 64;
    cfg.seed = 99;
    return run_parallel_io(eng, cfg);
  };
  const auto a = measure();
  const auto b = measure();
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_DOUBLE_EQ(a.aggregate_mbs, b.aggregate_mbs);
}

TEST(ParallelIo, ExcludedNodeHostsNoClient) {
  Rig rig(perf_cluster());
  raid::RaidxController eng(rig.fabric);
  ParallelIoConfig cfg;
  cfg.clients = 3;
  cfg.op = IoOp::kWrite;
  cfg.bytes_per_op = 4 * 4096;
  cfg.exclude_node = 0;
  const auto r = run_parallel_io(eng, cfg);
  (void)r;
  // Node 0 sent no requests of its own -- its traffic is purely serving.
  // (Its TX is used for replies, so check the request counters instead.)
  EXPECT_GT(rig.fabric.remote_requests() + rig.fabric.local_requests(), 0u);
}

TEST(ParallelIo, RejectsOversizedWorkload) {
  Rig rig(perf_cluster());
  raid::RaidxController eng(rig.fabric);
  ParallelIoConfig cfg;
  cfg.clients = 1;
  cfg.bytes_per_op =
      (eng.logical_blocks() + 16) * 4096;  // bigger than the array
  EXPECT_THROW(run_parallel_io(eng, cfg), std::invalid_argument);
}

TEST(ParallelIo, BackgroundDrainReportedForRaidxWrites) {
  Rig rig(perf_cluster());
  raid::RaidxController eng(rig.fabric);
  ParallelIoConfig cfg;
  cfg.clients = 2;
  cfg.op = IoOp::kWrite;
  cfg.bytes_per_op = 64 * 4096;
  const auto r = run_parallel_io(eng, cfg);
  // Deferred image flushes finish after the last client's foreground end.
  EXPECT_GT(r.background_drain, 0);
}

sim::Task<> write_run(raid::ArrayController* eng, std::uint64_t lba,
                      std::vector<std::byte> data) {
  co_await eng->write(0, lba, data);
}

sim::Task<> read_run(raid::ArrayController* eng, int client,
                     std::uint64_t lba, std::uint32_t nblocks,
                     std::vector<std::byte>* out) {
  out->assign(static_cast<std::size_t>(nblocks) * eng->block_bytes(),
              std::byte{0});
  co_await eng->read(client, lba, nblocks, *out);
}

TEST(ParallelIo, CachedReadsOfStoredBytesStayByteExact) {
  // A world that stores bytes, with a cache: a read miss fills the cache
  // from the reading client's buffer, so concurrent clients must not
  // share one.  Each client's region holds bytes of its own first; a
  // shared buffer would leave another client's bytes in the cache.  One
  // chunk per op spans every disk, so the chunk's blocks land at different
  // instants and other clients' blocks land in between, before the fill.
  constexpr std::uint32_t kBs = 4096;
  constexpr std::uint32_t kOpBlocks = 8;
  constexpr int kOps = 2;
  constexpr std::uint32_t kRegion = kOpBlocks * kOps;
  Rig rig(test::small_cluster(4, 1, /*blocks_per_disk=*/4096, kBs));
  cache::CacheParams cp;
  cp.capacity_blocks = 256;
  cp.cooperative = true;
  cache::CacheFabric cache(rig.cluster, cp);
  raid::EngineParams ep;
  ep.read_chunk_blocks = kOpBlocks;
  raid::RaidxController eng(rig.fabric, ep);
  ParallelIoConfig cfg;
  cfg.clients = 4;
  cfg.op = IoOp::kRead;
  cfg.bytes_per_op = kOpBlocks * kBs;
  cfg.ops_per_client = kOps;
  for (int c = 0; c < cfg.clients; ++c) {
    const std::uint64_t lba = static_cast<std::uint64_t>(c) * kRegion;
    rig.run(write_run(&eng, lba,
                      test::pattern_run(lba, kRegion, kBs,
                                        static_cast<std::uint8_t>(c + 1))));
  }
  // Attach after the pre-writes so every measured read misses and fills.
  eng.attach_cache(&cache);
  run_parallel_io(eng, cfg);
  ASSERT_GT(cache.stats().misses, 0u);

  for (int c = 0; c < cfg.clients; ++c) {
    const std::uint64_t lba = static_cast<std::uint64_t>(c) * kRegion;
    std::vector<std::byte> got;
    rig.run(read_run(&eng, c, lba, kRegion, &got));
    EXPECT_EQ(got, test::pattern_run(lba, kRegion, kBs,
                                     static_cast<std::uint8_t>(c + 1)))
        << "client " << c;
  }
  EXPECT_GT(cache.stats().hits, 0u);
}

// logical_blocks() sizes each array from its layout alone, without a
// world; it must agree with the engine the factory builds, hybrid
// placements included.
TEST(Engines, FactoryProducesAllArchitectures) {
  Rig rig(test::small_cluster(4, /*disks_per_node=*/2));
  const block::ArrayGeometry& geo = rig.cluster.geometry();
  for (Arch a : {Arch::kRaid0, Arch::kRaid1, Arch::kRaid5, Arch::kRaid10,
                 Arch::kRaidX, Arch::kNfs}) {
    auto eng = make_engine(a, rig.fabric);
    ASSERT_NE(eng, nullptr);
    EXPECT_GT(eng->logical_blocks(), 0u);
    EXPECT_EQ(logical_blocks(a, geo), eng->logical_blocks()) << arch_name(a);
  }
  raid::EngineParams hybrid;
  hybrid.hybrid_mirrors = true;
  for (Arch a : {Arch::kRaid10, Arch::kRaidX}) {
    EXPECT_EQ(logical_blocks(a, geo, /*hybrid_mirrors=*/true),
              make_engine(a, rig.fabric, hybrid)->logical_blocks())
        << arch_name(a);
  }
  EXPECT_EQ(paper_architectures().size(), 4u);
}

// The rules raidxsim and the benches share: the device behind each global
// disk id under --disk-type, whether the engine needs the hybrid placement
// variant over it, and which node the closed-loop clients stay off.
TEST(Engines, DiskTypeRulesAndNfsClientExclusion) {
  using disk::DeviceClass;
  constexpr DeviceClass kH = DeviceClass::kHdd;
  constexpr DeviceClass kS = DeviceClass::kSsd;
  const std::vector<Arch> all = {Arch::kRaid0,  Arch::kRaid1, Arch::kRaid5,
                                 Arch::kRaid10, Arch::kRaidX, Arch::kNfs};
  block::ArrayGeometry geo;  // 3 nodes x 4 disk rows: D(g*3 + j)
  geo.nodes = 3;
  geo.disks_per_node = 4;
  for (Arch a : all) {
    EXPECT_TRUE(device_map(DiskType::kHdd, a, geo).empty()) << arch_name(a);
    EXPECT_EQ(device_map(DiskType::kSsd, a, geo),
              std::vector<DeviceClass>(12, kS))
        << arch_name(a);
    EXPECT_FALSE(hybrid_mirrors(DiskType::kHdd, a)) << arch_name(a);
    EXPECT_FALSE(hybrid_mirrors(DiskType::kSsd, a)) << arch_name(a);
  }
  // Row-split layouts: the top two rows (data) are flash, the bottom two
  // (images) spindles, and the engine places images on the bottom half.
  const std::vector<DeviceClass> rows = {kS, kS, kS, kS, kS, kS,
                                         kH, kH, kH, kH, kH, kH};
  for (Arch a : {Arch::kRaid10, Arch::kRaidX}) {
    EXPECT_EQ(device_map(DiskType::kHybrid, a, geo), rows) << arch_name(a);
    EXPECT_TRUE(hybrid_mirrors(DiskType::kHybrid, a)) << arch_name(a);
  }
  // RAID-1 mirrors adjacent ids: even primaries flash, odd mirrors
  // spindles, with no placement variant.
  EXPECT_EQ(device_map(DiskType::kHybrid, Arch::kRaid1, geo),
            (std::vector<DeviceClass>{kS, kH, kS, kH, kS, kH, kS, kH, kS, kH,
                                      kS, kH}));
  EXPECT_FALSE(hybrid_mirrors(DiskType::kHybrid, Arch::kRaid1));

  Rig rig(test::small_cluster(4));
  for (Arch a : all) {
    const auto eng = make_engine(a, rig.fabric);
    const auto* srv = dynamic_cast<const nfs::NfsEngine*>(eng.get());
    EXPECT_EQ(srv != nullptr, a == Arch::kNfs) << arch_name(a);
    EXPECT_EQ(exclude_node(a), srv ? srv->server_node() : -1) << arch_name(a);
  }
}

TEST(Andrew, RunsAllPhasesOnTinyConfig) {
  Rig rig(perf_cluster());
  raid::RaidxController eng(rig.fabric);
  AndrewConfig cfg;
  cfg.clients = 2;
  cfg.dirs = 3;
  cfg.files = 6;
  cfg.min_file_bytes = 512;
  cfg.max_file_bytes = 8192;
  const auto r = run_andrew(eng, cfg);
  EXPECT_GT(r.make_dir, 0);
  EXPECT_GT(r.copy_files, 0);
  EXPECT_GT(r.scan_dir, 0);
  EXPECT_GT(r.read_all, 0);
  EXPECT_GT(r.compile, 0);
  EXPECT_EQ(r.total(),
            r.make_dir + r.copy_files + r.scan_dir + r.read_all + r.compile);
}

TEST(Andrew, MoreClientsNeverFinishFaster) {
  auto measure = [](int clients) {
    Rig rig(perf_cluster());
    raid::Raid5Controller eng(rig.fabric);
    AndrewConfig cfg;
    cfg.clients = clients;
    cfg.dirs = 2;
    cfg.files = 4;
    cfg.min_file_bytes = 512;
    cfg.max_file_bytes = 4096;
    return run_andrew(eng, cfg).total();
  };
  EXPECT_GE(measure(4), measure(1));
}

TEST(Analytic, Table2RatiosHold) {
  analytic::ModelParams p;
  p.n = 16;
  p.disk_bw_mbs = 18.0;
  using analytic::Arch;
  // RAID-x matches RAID-0 everywhere in bandwidth.
  EXPECT_DOUBLE_EQ(analytic::read_bandwidth(Arch::kRaidX, p),
                   analytic::read_bandwidth(Arch::kRaid0, p));
  EXPECT_DOUBLE_EQ(analytic::small_write_bandwidth(Arch::kRaidX, p),
                   analytic::small_write_bandwidth(Arch::kRaid0, p));
  // RAID-5 small writes collapse to a quarter.
  EXPECT_DOUBLE_EQ(analytic::small_write_bandwidth(Arch::kRaid5, p),
                   analytic::small_write_bandwidth(Arch::kRaid0, p) / 4);
  // Chained declustering halves write bandwidth.
  EXPECT_DOUBLE_EQ(analytic::large_write_bandwidth(Arch::kChained, p),
                   analytic::large_write_bandwidth(Arch::kRaid0, p) / 2);
  // RAID-x's write-time penalty vanishes as n grows: the improvement over
  // chained declustering approaches 2 (the paper's claim).
  analytic::ModelParams big = p;
  big.n = 128;
  const double factor =
      static_cast<double>(analytic::large_write_time(Arch::kChained, big)) /
      static_cast<double>(analytic::large_write_time(Arch::kRaidX, big));
  EXPECT_GT(factor, 1.9);
  EXPECT_LE(factor, 2.0);
}

TEST(Analytic, SmallOpsIndependentOfFileSize) {
  analytic::ModelParams p;
  const auto t1 = analytic::small_read_time(analytic::Arch::kRaidX, p);
  p.m *= 100;
  EXPECT_EQ(analytic::small_read_time(analytic::Arch::kRaidX, p), t1);
}

TEST(Analytic, FaultCoverageStrings) {
  analytic::ModelParams p;
  p.n = 16;
  EXPECT_EQ(analytic::fault_coverage(analytic::Arch::kRaid0, p), "none");
  EXPECT_NE(analytic::fault_coverage(analytic::Arch::kRaidX, p)
                .find("mirror group"),
            std::string::npos);
  EXPECT_NE(analytic::fault_coverage(analytic::Arch::kChained, p).find("8"),
            std::string::npos);
}

}  // namespace
}  // namespace raidx::workload
