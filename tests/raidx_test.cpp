// RAID-x (OSM) specific tests: image consistency on real bytes, clustered
// background flushes, foreground/background separation, and the ablation
// switches.
#include <gtest/gtest.h>

#include "raid/controller.hpp"
#include "test_util.hpp"

namespace raidx::raid {
namespace {

using test::Rig;

sim::Task<> do_write(ArrayController* eng, int client, std::uint64_t lba,
                     std::uint32_t nblocks, std::uint8_t salt) {
  const auto data = test::pattern_run(lba, nblocks, eng->block_bytes(), salt);
  co_await eng->write(client, lba, data);
}

// After the simulation drains, every block's image must equal its data --
// checked directly on the disks' byte stores.
void expect_images_consistent(Rig& rig, RaidxController& eng,
                              std::uint64_t lba, std::uint32_t nblocks) {
  const auto& layout = eng.raidx();
  for (std::uint64_t b = lba; b < lba + nblocks; ++b) {
    const auto d = layout.data_location(b);
    const auto data = rig.cluster.disk(d.disk).read_data(d.offset, 1);
    for (const auto& m : layout.mirror_locations(b)) {
      const auto img = rig.cluster.disk(m.disk).read_data(m.offset, 1);
      EXPECT_EQ(data, img) << "lba " << b;
    }
  }
}

TEST(Raidx, ImagesMatchDataAfterFullStripeWrites) {
  Rig rig(test::small_cluster());
  RaidxController eng(rig.fabric);
  rig.run(do_write(&eng, 0, 0, 16, 1));  // 4 full stripes
  expect_images_consistent(rig, eng, 0, 16);
}

TEST(Raidx, ImagesMatchDataAfterPartialWrites) {
  Rig rig(test::small_cluster());
  RaidxController eng(rig.fabric);
  rig.run(do_write(&eng, 1, 3, 7, 2));  // unaligned span
  expect_images_consistent(rig, eng, 3, 7);
}

TEST(Raidx, ImagesMatchDataAfterOverwrite) {
  Rig rig(test::small_cluster());
  RaidxController eng(rig.fabric);
  rig.run(do_write(&eng, 0, 0, 8, 1));
  rig.run(do_write(&eng, 2, 2, 4, 9));
  expect_images_consistent(rig, eng, 0, 8);
}

TEST(Raidx, ClusteredImageWriteIsOneLongOp) {
  // A full-stripe write must put n-1 images on the image disk as ONE
  // multi-block write, not n-1 scattered ops.
  Rig rig(test::small_cluster());
  RaidxController eng(rig.fabric);
  const auto imgs = eng.raidx().stripe_images(0);
  const auto& image_disk = rig.cluster.disk(imgs.clustered.disk);
  const std::uint64_t writes_before = image_disk.writes();
  rig.run(do_write(&eng, 0, 0, 4, 1));  // stripe 0
  // The image disk got: its own data block (1 op) + the clustered run
  // (1 op).  Scattered mirroring would make it 1 + 3.
  EXPECT_EQ(image_disk.writes() - writes_before, 2u);
}

TEST(Raidx, ScatteredImageAblationIssuesPerBlockOps) {
  EngineParams params;
  params.clustered_images = false;
  Rig rig(test::small_cluster());
  RaidxController eng(rig.fabric, params);
  const auto imgs = eng.raidx().stripe_images(0);
  const auto& image_disk = rig.cluster.disk(imgs.clustered.disk);
  rig.run(do_write(&eng, 0, 0, 4, 1));
  // Own data block + n-1 separate image ops.
  EXPECT_EQ(image_disk.writes(), 4u);
  expect_images_consistent(rig, eng, 0, 4);
}

TEST(Raidx, ForegroundMirroringAblationStaysConsistent) {
  EngineParams params;
  params.background_mirrors = false;
  Rig rig(test::small_cluster());
  RaidxController eng(rig.fabric, params);
  rig.run(do_write(&eng, 0, 0, 16, 5));
  expect_images_consistent(rig, eng, 0, 16);
}

TEST(Raidx, BackgroundMirroringHidesImageCostFromForegroundLatency) {
  // The OSM claim: with deferred images the write call returns earlier
  // than with synchronous images, for identical final disk state.
  auto measure = [](bool background) {
    Rig rig(test::small_cluster());
    EngineParams params;
    params.background_mirrors = background;
    RaidxController eng(rig.fabric, params);
    sim::Time done = 0;
    auto w = [](RaidxController* e, sim::Time* out) -> sim::Task<> {
      const auto data = test::pattern_run(0, 16, e->block_bytes());
      co_await e->write(0, 0, data);
      *out = e->simulation().now();
    };
    rig.run(w(&eng, &done));
    return done;
  };
  const sim::Time deferred = measure(true);
  const sim::Time synchronous = measure(false);
  EXPECT_LT(deferred, synchronous);
}

TEST(Raidx, BackgroundFlushesDrainEventually) {
  Rig rig(test::small_cluster());
  RaidxController eng(rig.fabric);
  rig.run(do_write(&eng, 0, 0, 16, 1));
  // run() drains the background queue; nothing may remain in flight.
  EXPECT_EQ(eng.background_in_flight(), 0);
  expect_images_consistent(rig, eng, 0, 16);
}

TEST(Raidx, DegradedReadPrefersImageOverFailure) {
  Rig rig(test::small_cluster());
  RaidxController eng(rig.fabric);
  rig.run(do_write(&eng, 0, 0, 16, 7));
  rig.cluster.disk(2).fail();
  auto read_back = [](RaidxController* e,
                      std::vector<std::byte>* out) -> sim::Task<> {
    out->assign(16 * e->block_bytes(), std::byte{0});
    co_await e->read(1, 0, 16, *out);
  };
  std::vector<std::byte> got;
  rig.run(read_back(&eng, &got));
  EXPECT_EQ(got, test::pattern_run(0, 16, eng.block_bytes(), 7));
}

TEST(Raidx, DataAndImageLossIsFatal) {
  Rig rig(test::small_cluster());
  RaidxController eng(rig.fabric);
  rig.run(do_write(&eng, 0, 0, 4, 1));
  // Fail the data disk of block 0 and the image disk of stripe 0.
  rig.cluster.disk(eng.raidx().data_location(0).disk).fail();
  rig.cluster.disk(eng.raidx().mirror_locations(0)[0].disk).fail();
  auto read_back = [](RaidxController* e,
                      std::vector<std::byte>* out) -> sim::Task<> {
    out->assign(4 * e->block_bytes(), std::byte{0});
    co_await e->read(1, 0, 4, *out);
  };
  std::vector<std::byte> got;
  rig.sim.spawn(read_back(&eng, &got));
  EXPECT_THROW(rig.sim.run(), IoError);
}

TEST(Raidx, LargeWriteCheaperThanRaid10PerDisk) {
  // Table 2's write advantage, at the op-count level: RAID-10 pays every
  // disk one data + one scattered mirror write; RAID-x pays one data write
  // plus a single clustered run + neighbor per stripe.
  Rig rigx(test::small_cluster());
  RaidxController rx(rigx.fabric);
  rigx.run(do_write(&rx, 0, 0, 32, 1));
  std::uint64_t ops_x = 0;
  for (int d = 0; d < 4; ++d) ops_x += rigx.cluster.disk(d).writes();

  Rig rig10(test::small_cluster());
  Raid10Controller r10(rig10.fabric);
  rig10.run(do_write(&r10, 0, 0, 32, 1));
  std::uint64_t ops_10 = 0;
  for (int d = 0; d < 4; ++d) ops_10 += rig10.cluster.disk(d).writes();

  // 8 stripes: RAID-x = 32 data + 8 runs + 8 neighbors = 48 ops;
  // RAID-10 = 32 data + 32 mirrors = 64 ops.
  EXPECT_EQ(ops_x, 48u);
  EXPECT_EQ(ops_10, 64u);
}

TEST(Raidx, BalancedSingleBlockReadsUseBothCopies) {
  EngineParams params;
  params.balance_mirror_reads = true;
  Rig rig(test::small_cluster());
  RaidxController eng(rig.fabric, params);
  rig.run(do_write(&eng, 0, 0, 16, 4));
  // Read every block individually; odd lbas route to the image copy.
  auto read_one = [](RaidxController* e, std::uint64_t lba,
                     std::vector<std::byte>* out) -> sim::Task<> {
    out->assign(e->block_bytes(), std::byte{0});
    co_await e->read(1, lba, 1, *out);
  };
  for (std::uint64_t b = 0; b < 16; ++b) {
    std::vector<std::byte> got;
    rig.run(read_one(&eng, b, &got));
    EXPECT_EQ(got, test::pattern_run(b, 1, eng.block_bytes(), 4))
        << "lba " << b;
  }
}

TEST(Raidx, BalancedReadsSurviveLossOfEitherCopy) {
  EngineParams params;
  params.balance_mirror_reads = true;
  for (int which : {0, 1}) {
    Rig rig(test::small_cluster());
    RaidxController eng(rig.fabric, params);
    rig.run(do_write(&eng, 0, 0, 16, 6));
    // Kill either the data disk or the image disk of block 1 (odd lba,
    // normally served from the image).
    const int victim = which == 0 ? eng.raidx().data_location(1).disk
                                  : eng.raidx().mirror_locations(1)[0].disk;
    rig.cluster.disk(victim).fail();
    auto read_one = [](RaidxController* e,
                       std::vector<std::byte>* out) -> sim::Task<> {
      out->assign(e->block_bytes(), std::byte{0});
      co_await e->read(1, 1, 1, *out);
    };
    std::vector<std::byte> got;
    rig.run(read_one(&eng, &got));
    EXPECT_EQ(got, test::pattern_run(1, 1, eng.block_bytes(), 6))
        << "victim " << victim;
  }
}

TEST(Raidx, CapacityAccountsForZoneReservation) {
  Rig rig(test::small_cluster());
  RaidxController eng(rig.fabric);
  const auto& geo = rig.cluster.geometry();
  const std::uint64_t q_max =
      geo.blocks_per_disk / static_cast<std::uint64_t>(geo.nodes + 1);
  EXPECT_EQ(eng.logical_blocks(),
            static_cast<std::uint64_t>(geo.total_disks()) * q_max);
}

sim::Task<> read_one(ArrayController* eng, int client, std::uint64_t lba,
                     std::span<std::byte> out, int* done) {
  co_await eng->read(client, lba, 1, out);
  ++*done;
}

TEST(RaidxFootprint, RemoteOneBlockReadsInFlightHoldSmallFrames) {
  // 256 single-block reads from node 0 of blocks on node 1's disk.  All
  // start at t=0 and queue for node 0's CPU, so all are in flight at once;
  // after the drain the pool's free lists hold the high-water of their
  // frames: the controller's read chain plus the CDD RPC under it.
  constexpr int kReads = 256;
  Rig rig(test::small_cluster(4, 1, /*blocks_per_disk=*/2400));
  RaidxController eng(rig.fabric);
  const std::uint32_t bs = eng.block_bytes();
  std::vector<std::uint64_t> lbas;
  for (std::uint64_t lba = 0; lbas.size() < kReads; ++lba) {
    ASSERT_LT(lba, eng.logical_blocks());
    if (eng.raidx().data_location(lba).disk == 1) lbas.push_back(lba);
  }
  std::vector<std::byte> out(static_cast<std::size_t>(kReads) * bs);
  int done = 0;
  for (int i = 0; i < kReads; ++i) {
    rig.sim.spawn(read_one(
        &eng, 0, lbas[static_cast<std::size_t>(i)],
        std::span<std::byte>(out).subspan(static_cast<std::size_t>(i) * bs, bs),
        &done));
  }
  rig.sim.run();
  EXPECT_EQ(done, kReads);
  EXPECT_EQ(rig.fabric.remote_requests(), static_cast<std::uint64_t>(kReads));
  if (test::kInstrumentedFrames) GTEST_SKIP() << "frames grow under sanitizers";
  // gcc 12 Release: 3,312 B per read.  A CPU charge, CDD RPC entry, RAID-x
  // read_chunk or Joiner::wait that kept a frame of its own measured 4,419.
  EXPECT_LE(rig.sim.frame_pool_stats().pooled_bytes / kReads, 4000u);
}

}  // namespace
}  // namespace raidx::raid
