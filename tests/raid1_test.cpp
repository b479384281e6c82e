// RAID-1 (mirrored pairs) tests -- the paper's future-work configuration.
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

sim::Task<> do_read(ArrayController* eng, int client, std::uint64_t lba,
                    std::uint32_t nblocks, std::vector<std::byte>* out) {
  out->assign(static_cast<std::size_t>(nblocks) * eng->block_bytes(),
              std::byte{0});
  co_await eng->read(client, lba, nblocks, *out);
}

TEST(Raid1Layout, PairsNeverSplitAcrossSameNode) {
  block::ArrayGeometry g;
  g.nodes = 4;
  g.disks_per_node = 1;
  g.blocks_per_disk = 256;
  Raid1Layout layout(g);
  for (std::uint64_t b = 0; b < 64; ++b) {
    const auto d = layout.data_location(b);
    const auto m = layout.mirror_locations(b)[0];
    EXPECT_EQ(m.disk, d.disk + 1);
    EXPECT_EQ(m.offset, d.offset);
    EXPECT_NE(g.node_of(m.disk), g.node_of(d.disk));
  }
}

TEST(Raid1Layout, OddDiskCountRejected) {
  block::ArrayGeometry g;
  g.nodes = 3;
  g.disks_per_node = 1;
  g.blocks_per_disk = 64;
  EXPECT_THROW(Raid1Layout{g}, std::invalid_argument);
}

TEST(Raid1, RoundTrip) {
  Rig rig(test::small_cluster());
  Raid1Controller eng(rig.fabric);
  rig.run(do_write(&eng, 0, 3, 21, 5));
  std::vector<std::byte> got;
  rig.run(do_read(&eng, 2, 3, 21, &got));
  EXPECT_EQ(got, test::pattern_run(3, 21, eng.block_bytes(), 5));
}

TEST(Raid1, SurvivesEitherDiskOfAPair) {
  for (int victim : {0, 1}) {
    Rig rig(test::small_cluster());
    Raid1Controller eng(rig.fabric);
    rig.run(do_write(&eng, 0, 0, 16, 7));
    rig.cluster.disk(victim).fail();
    std::vector<std::byte> got;
    rig.run(do_read(&eng, 1, 0, 16, &got));
    EXPECT_EQ(got, test::pattern_run(0, 16, eng.block_bytes(), 7))
        << "victim " << victim;
  }
}

TEST(Raid1, LosesDataWhenWholePairFails) {
  Rig rig(test::small_cluster());
  Raid1Controller eng(rig.fabric);
  rig.run(do_write(&eng, 0, 0, 16, 1));
  rig.cluster.disk(0).fail();
  rig.cluster.disk(1).fail();
  std::vector<std::byte> got;
  rig.sim.spawn(do_read(&eng, 1, 0, 16, &got));
  EXPECT_THROW(rig.sim.run(), IoError);
}

TEST(Raid1, BalancedReadsRoundTripAndSurviveFailure) {
  EngineParams params;
  params.balance_mirror_reads = true;
  Rig rig(test::small_cluster());
  Raid1Controller eng(rig.fabric, params);
  rig.run(do_write(&eng, 0, 0, 24, 9));
  std::vector<std::byte> got;
  rig.run(do_read(&eng, 1, 0, 24, &got));
  EXPECT_EQ(got, test::pattern_run(0, 24, eng.block_bytes(), 9));
  rig.cluster.disk(1).fail();  // a mirror disk
  rig.run(do_read(&eng, 1, 0, 24, &got));
  EXPECT_EQ(got, test::pattern_run(0, 24, eng.block_bytes(), 9));
}

TEST(Raid1, RebuildRestoresEitherSideOfThePair) {
  for (int victim : {0, 1}) {
    Rig rig(test::small_cluster(4, 1, /*blocks_per_disk=*/64));
    Raid1Controller eng(rig.fabric);
    rig.run(do_write(&eng, 0, 0, 16, 3));
    rig.cluster.disk(victim).fail();
    rig.cluster.disk(victim).replace();
    auto rebuild = [](Raid1Controller* e, int v) -> sim::Task<> {
      co_await e->rebuild_disk(0, v);
    };
    rig.run(rebuild(&eng, victim));
    // Fail the partner: the rebuilt disk must serve everything.
    rig.cluster.disk(victim ^ 1).fail();
    std::vector<std::byte> got;
    rig.run(do_read(&eng, 1, 0, 16, &got));
    EXPECT_EQ(got, test::pattern_run(0, 16, eng.block_bytes(), 3))
        << "victim " << victim;
  }
}

TEST(Raid1, HalvesCapacity) {
  Rig rig(test::small_cluster());
  Raid1Controller eng(rig.fabric);
  EXPECT_EQ(eng.logical_blocks(),
            rig.cluster.geometry().total_blocks() / 2);
}

}  // namespace
}  // namespace raidx::raid
