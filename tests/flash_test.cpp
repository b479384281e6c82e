// Flash/FTL tests: byte-exact storage under page-map churn, copyback
// accounting, GC forward progress at the free-pool watermark, write-cliff
// synchronous reclaim, determinism, and the heterogeneous hybrid array
// (SSD primaries, HDD mirror images) in degraded and rebuild modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "flash/ssd.hpp"
#include "ha/ha.hpp"
#include "raid/controller.hpp"
#include "raid/raid10.hpp"
#include "test_util.hpp"

namespace raidx {
namespace {

using test::pattern_block;
using test::pattern_run;
using test::Rig;

// ------------------------------------------------------------- SsdDevice --

/// A tiny flash device: 1024 logical pages over 16-page erase blocks, so a
/// few hundred writes exercise the append point, the GC watermarks, and
/// the write cliff without simulating gigabytes.
disk::DeviceGeometry tiny_geo() {
  disk::DeviceGeometry g;
  g.block_bytes = 512;
  g.total_blocks = 1024;
  return g;
}

flash::FlashParams tiny_flash(double op = 0.10) {
  flash::FlashParams p;
  p.pages_per_block = 16;
  p.over_provision = op;
  return p;
}

sim::Task<> dev_write(disk::Device& d, std::uint64_t block,
                      std::uint32_t nblocks) {
  co_await d.io(disk::IoKind::kWrite, block, nblocks);
}

/// Sequentially overwrite [lo, hi) `rounds` times, one page per request --
/// the update-in-place pattern flash cannot do, so every round invalidates
/// a full round of physical pages and feeds the collector.
sim::Task<> overwrite_sweep(flash::SsdDevice& d, int rounds, std::uint64_t lo,
                            std::uint64_t hi) {
  for (int r = 0; r < rounds; ++r) {
    for (std::uint64_t b = lo; b < hi; ++b) {
      co_await d.io(disk::IoKind::kWrite, b, 1);
    }
  }
}

TEST(FlashFtl, RoundTripsBytesUnderFtlChurn) {
  sim::Simulation sim;
  flash::SsdDevice ssd(sim, tiny_geo(), tiny_flash(), 0);

  // Fill the device, then overwrite a hot range with fresh contents until
  // the collector has demonstrably moved pages around.
  auto churn = [](flash::SsdDevice* d) -> sim::Task<> {
    for (std::uint64_t b = 0; b < d->total_blocks(); ++b) {
      d->write_data(b, pattern_block(b, d->block_bytes(), 1));
      co_await d->io(disk::IoKind::kWrite, b, 1);
    }
    for (int round = 2; round < 8; ++round) {
      for (std::uint64_t b = 0; b < 256; ++b) {
        d->write_data(b, pattern_block(b, d->block_bytes(),
                                       static_cast<std::uint8_t>(round)));
        co_await d->io(disk::IoKind::kWrite, b, 1);
      }
    }
  };
  sim.spawn(churn(&ssd));
  sim.run();

  ASSERT_GT(ssd.gc_erases(), 0u) << "churn never triggered the collector";
  // Copybacks and erases moved physical pages; the logical contents must
  // be exactly the last write of every block.
  for (std::uint64_t b = 0; b < 256; ++b) {
    EXPECT_EQ(ssd.read_data(b, 1), pattern_block(b, 512, 7)) << "lba " << b;
  }
  for (std::uint64_t b = 256; b < 1024; ++b) {
    EXPECT_EQ(ssd.read_data(b, 1), pattern_block(b, 512, 1)) << "lba " << b;
  }
}

TEST(FlashFtl, EveryFlashPageIsAHostWriteOrACopyback) {
  sim::Simulation sim;
  flash::SsdDevice ssd(sim, tiny_geo(), tiny_flash(), 0);
  sim.spawn(overwrite_sweep(ssd, /*rounds=*/6, 0, 1024));
  sim.run();

  EXPECT_EQ(ssd.host_pages_written(), 6u * 1024);
  // Valid-page accounting: physical programs decompose exactly into host
  // pages plus GC copybacks -- nothing else may touch the append point.
  EXPECT_EQ(ssd.flash_pages_written(),
            ssd.host_pages_written() + ssd.gc_pages_copied());
  EXPECT_GE(ssd.write_amplification(), 1.0);
  EXPECT_DOUBLE_EQ(ssd.write_amplification(),
                   static_cast<double>(ssd.flash_pages_written()) /
                       static_cast<double>(ssd.host_pages_written()));
}

TEST(FlashFtl, GcMakesForwardProgressAtTheLowWatermark) {
  sim::Simulation sim;
  const flash::FlashParams fp = tiny_flash();
  flash::SsdDevice ssd(sim, tiny_geo(), fp, 0);
  sim.spawn(overwrite_sweep(ssd, /*rounds=*/6, 0, 1024));
  sim.run();

  EXPECT_GT(ssd.gc_runs(), 0u);
  EXPECT_GT(ssd.gc_erases(), 0u);
  // The background collector never let the free pool starve...
  EXPECT_GE(ssd.min_free_blocks(), 1u);
  // ...and once traffic stopped it reclaimed back above the high
  // watermark (the drain condition of gc_loop).
  const auto nb = static_cast<double>(ssd.erase_blocks());
  const auto low = std::max<std::size_t>(
      1, static_cast<std::size_t>(fp.gc_low_watermark * nb));
  const auto high = std::max<std::size_t>(
      low + 1, static_cast<std::size_t>(fp.gc_high_watermark * nb));
  EXPECT_GE(ssd.free_blocks(), high);
  // Each arm hold charged real time: at least one erase per pause.
  EXPECT_GT(ssd.gc_busy_time(), 0);
  EXPECT_GE(ssd.gc_max_pause(), fp.erase_latency);
}

TEST(FlashFtl, WriteCliffReclaimsSynchronously) {
  // With no over-provisioning the second full-device write outruns any
  // background GC: the foreground write must eat copyback+erase itself.
  sim::Simulation sim;
  flash::SsdDevice ssd(sim, tiny_geo(), tiny_flash(/*op=*/0.0), 0);
  auto two_fills = [](flash::SsdDevice* d) -> sim::Task<> {
    co_await d->io(disk::IoKind::kWrite, 0, 1024);
    co_await d->io(disk::IoKind::kWrite, 0, 1024);
  };
  sim.spawn(two_fills(&ssd));
  sim.run();
  EXPECT_GT(ssd.gc_write_stalls(), 0u);
  EXPECT_EQ(ssd.flash_pages_written(),
            ssd.host_pages_written() + ssd.gc_pages_copied());
}

TEST(FlashFtl, CostBenefitPolicyAlsoConverges) {
  sim::Simulation sim;
  flash::FlashParams fp = tiny_flash();
  fp.gc_policy = flash::GcPolicy::kCostBenefit;
  flash::SsdDevice ssd(sim, tiny_geo(), fp, 0);
  sim.spawn(overwrite_sweep(ssd, /*rounds=*/6, 0, 1024));
  sim.run();
  EXPECT_GT(ssd.gc_erases(), 0u);
  EXPECT_EQ(ssd.flash_pages_written(),
            ssd.host_pages_written() + ssd.gc_pages_copied());
  EXPECT_GE(ssd.write_amplification(), 1.0);
}

TEST(FlashFtl, IdenticalRunsAreBitIdentical) {
  auto run_once = [] {
    sim::Simulation sim;
    flash::SsdDevice ssd(sim, tiny_geo(), tiny_flash(), 0);
    sim.spawn(overwrite_sweep(ssd, /*rounds=*/5, 0, 512));
    sim.run();
    return std::tuple{sim.now(),          ssd.flash_pages_written(),
                      ssd.gc_erases(),    ssd.gc_pages_copied(),
                      ssd.gc_busy_time(), ssd.min_free_blocks()};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(FlashFtl, ReplaceHandsBackABlankDevice) {
  sim::Simulation sim;
  flash::SsdDevice ssd(sim, tiny_geo(), tiny_flash(), 0);
  ssd.write_data(3, pattern_block(3, 512));
  sim.spawn(overwrite_sweep(ssd, 3, 0, 1024));
  sim.run();
  ssd.fail();
  ssd.replace();
  EXPECT_FALSE(ssd.failed());
  // Fresh FTL: every block free but the open one, contents gone.
  EXPECT_EQ(ssd.free_blocks(), ssd.erase_blocks() - 1);
  for (std::byte b : ssd.read_data(3, 1)) EXPECT_EQ(b, std::byte{0});
  // And it accepts traffic again.
  sim.spawn(dev_write(ssd, 0, 8));
  sim.run();
  EXPECT_GT(ssd.writes(), 0u);
}

// ---------------------------------------------------------- hybrid array --

/// 4 nodes x 2 disks: row 0 (global ids 0..3) flash, row 1 (ids 4..7)
/// spindles -- the HDA split the hybrid layouts place primaries/images on.
cluster::ClusterParams hybrid_cluster() {
  cluster::ClusterParams p = test::small_cluster(4, 2, 600, 512);
  p.device_map.assign(8, disk::DeviceClass::kHdd);
  for (int j = 0; j < 4; ++j) p.device_map[j] = disk::DeviceClass::kSsd;
  return p;
}

raid::EngineParams hybrid_engine() {
  raid::EngineParams ep;
  ep.hybrid_mirrors = true;
  return ep;
}

sim::Task<> write_all(raid::ArrayController* eng, std::uint64_t lba,
                      std::uint32_t nblocks, std::uint8_t salt = 0) {
  const auto data = pattern_run(lba, nblocks, eng->block_bytes(), salt);
  co_await eng->write(0, lba, data);
}

sim::Task<> read_all(raid::ArrayController* eng, std::uint64_t lba,
                     std::uint32_t nblocks, std::vector<std::byte>* got,
                     int client = 1) {
  got->assign(static_cast<std::size_t>(nblocks) * eng->block_bytes(),
              std::byte{0});
  co_await eng->read(client, lba, nblocks, *got);
}

TEST(HybridRaidx, PrimariesLandOnFlashImagesOnSpindles) {
  Rig rig(hybrid_cluster());
  raid::RaidxController eng(rig.fabric, hybrid_engine());
  EXPECT_EQ(eng.layout().name(), "RAID-x/hybrid");
  for (std::uint64_t b = 0; b < eng.layout().logical_blocks(); ++b) {
    const auto d = eng.raidx().data_location(b);
    EXPECT_EQ(rig.cluster.device_class(d.disk), disk::DeviceClass::kSsd);
    for (const auto& m : eng.raidx().mirror_locations(b)) {
      EXPECT_EQ(rig.cluster.device_class(m.disk), disk::DeviceClass::kHdd);
    }
  }
}

TEST(HybridRaidx, DegradedReadFallsBackToHddImages) {
  Rig rig(hybrid_cluster());
  raid::RaidxController eng(rig.fabric, hybrid_engine());
  rig.run(write_all(&eng, 0, 64, /*salt=*/3));

  rig.cluster.disk(1).fail();  // an SSD primary
  std::vector<std::byte> got;
  rig.run(read_all(&eng, 0, 64, &got));
  EXPECT_EQ(got, pattern_run(0, 64, eng.block_bytes(), 3));
}

TEST(HybridRaidx, RebuildRestoresAnSsdPrimaryFromItsImages) {
  Rig rig(hybrid_cluster());
  raid::RaidxController eng(rig.fabric, hybrid_engine());
  rig.run(write_all(&eng, 0, 64, /*salt=*/4));

  rig.cluster.disk(1).fail();
  rig.cluster.disk(1).replace();
  auto rebuild = [](raid::RaidxController* e) -> sim::Task<> {
    co_await e->rebuild_disk(1, 1);
  };
  rig.run(rebuild(&eng));
  EXPECT_FALSE(rig.cluster.disk(1).rebuilding());

  // The replacement flash device holds the data zone byte-exactly.
  for (std::uint64_t b = 0; b < 64; ++b) {
    const auto d = eng.raidx().data_location(b);
    if (d.disk != 1) continue;
    EXPECT_EQ(rig.cluster.disk(1).read_data(d.offset, 1),
              pattern_block(b, eng.block_bytes(), 4))
        << "lba " << b;
  }
  std::vector<std::byte> got;
  rig.run(read_all(&eng, 0, 64, &got, 2));
  EXPECT_EQ(got, pattern_run(0, 64, eng.block_bytes(), 4));
}

TEST(HybridRaid10, DegradedReadAndRebuildOfAnHddMirror) {
  Rig rig(hybrid_cluster());
  raid::Raid10Controller eng(rig.fabric, hybrid_engine());
  EXPECT_EQ(eng.layout().name(), "RAID-10/hybrid");
  rig.run(write_all(&eng, 0, 64, /*salt=*/5));

  // Failing a bottom-row spindle leaves every primary intact...
  rig.cluster.disk(6).fail();
  std::vector<std::byte> got;
  rig.run(read_all(&eng, 0, 64, &got));
  EXPECT_EQ(got, pattern_run(0, 64, eng.block_bytes(), 5));

  // ...and its mirror zone rebuilds from the chained primaries.
  rig.cluster.disk(6).replace();
  auto rebuild = [](raid::Raid10Controller* e) -> sim::Task<> {
    co_await e->rebuild_disk(2, 6);
  };
  rig.run(rebuild(&eng));
  EXPECT_FALSE(rig.cluster.disk(6).rebuilding());

  // Kill an SSD primary that disk 6 backs up: reads must now be served
  // from the freshly rebuilt mirror images.
  raid::Raid10Layout lay(rig.cluster.geometry(), /*hybrid=*/true);
  for (std::uint64_t b = 0; b < lay.logical_blocks(); ++b) {
    for (const auto& m : lay.mirror_locations(b)) {
      if (m.disk == 6) {
        rig.cluster.disk(lay.data_location(b).disk).fail();
        std::vector<std::byte> one(eng.block_bytes());
        auto read_one = [](raid::ArrayController* e, std::uint64_t lba,
                           std::span<std::byte> out) -> sim::Task<> {
          co_await e->read(3, lba, 1, out);
        };
        rig.run(read_one(&eng, b, one));
        EXPECT_EQ(one, pattern_block(b, eng.block_bytes(), 5));
        return;
      }
    }
  }
  FAIL() << "disk 6 mirrors nothing";
}

TEST(HybridSpares, FailoverIsClassMatched) {
  Rig rig(hybrid_cluster());
  raid::RaidxController eng(rig.fabric, hybrid_engine());
  rig.run(write_all(&eng, 0, 64, /*salt=*/6));

  ha::HaParams hp;
  hp.probe_interval = sim::milliseconds(5);
  hp.probe_timeout = sim::milliseconds(2);
  hp.spare_swap_time = sim::milliseconds(10);
  hp.spares_per_node = 1;  // one per class racked at every hybrid node
  hp.global_spares = 0;
  ha::Orchestrator orch(eng, hp);

  // Both classes are stocked: 1 SSD + 1 HDD spare at each node.
  EXPECT_EQ(orch.spares().available(1, disk::DeviceClass::kSsd), 1);
  EXPECT_EQ(orch.spares().available(1, disk::DeviceClass::kHdd), 1);

  // First SSD failure consumes node 1's flash spare.
  rig.cluster.disk(1).fail();
  orch.note_fault_injected(1);
  rig.sim.run();
  EXPECT_EQ(orch.disk_state(1), ha::DiskState::kHealthy);
  EXPECT_EQ(orch.stats().rebuilds_completed, 1u);
  EXPECT_EQ(orch.spares().available(1, disk::DeviceClass::kSsd), 0);
  EXPECT_EQ(orch.spares().available(1, disk::DeviceClass::kHdd), 1);
  EXPECT_EQ(orch.stats().spare_class_mismatch, 0u);

  // Second failure of the same slot: the racked HDD spare cannot stand in
  // for flash, so the slot parks degraded and the mismatch is counted.
  rig.cluster.disk(1).fail();
  orch.note_fault_injected(1);
  rig.sim.run();
  EXPECT_EQ(orch.disk_state(1), ha::DiskState::kDegraded);
  EXPECT_EQ(orch.stats().spare_exhausted, 1u);
  EXPECT_EQ(orch.stats().spare_class_mismatch, 1u);
  EXPECT_EQ(orch.spares().available(1, disk::DeviceClass::kHdd), 1);

  // The array still serves through the HDD images meanwhile.
  std::vector<std::byte> got;
  rig.run(read_all(&eng, 0, 64, &got, 2));
  EXPECT_EQ(got, pattern_run(0, 64, eng.block_bytes(), 6));
}

}  // namespace
}  // namespace raidx
