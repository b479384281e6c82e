// RAID-5 specific tests: the parity invariant on real bytes, RMW vs
// full-stripe paths, and degraded operation.
#include <gtest/gtest.h>

#include "raid/controller.hpp"
#include "test_util.hpp"

namespace raidx::raid {
namespace {

using test::Rig;

// XOR of all data blocks of a stripe must equal the stored parity block --
// checked directly on the simulated disks' byte stores.
void expect_parity_consistent(Rig& rig, Raid5Controller& eng,
                              std::uint64_t stripe) {
  const auto& layout = eng.raid5();
  const std::uint32_t bs = eng.block_bytes();
  std::vector<std::byte> acc(bs, std::byte{0});
  for (std::uint32_t j = 0; j < layout.stripe_width(); ++j) {
    const auto pb = layout.data_location(layout.stripe_first_lba(stripe) + j);
    const auto blk = rig.cluster.disk(pb.disk).read_data(pb.offset, 1);
    for (std::uint32_t i = 0; i < bs; ++i) acc[i] ^= blk[i];
  }
  const auto pp = layout.parity_location(stripe);
  const auto parity = rig.cluster.disk(pp.disk).read_data(pp.offset, 1);
  EXPECT_EQ(acc, parity) << "stripe " << stripe;
}

sim::Task<> do_write(ArrayController* eng, int client, std::uint64_t lba,
                     std::uint32_t nblocks, std::uint8_t salt) {
  const auto data = test::pattern_run(lba, nblocks, eng->block_bytes(), salt);
  co_await eng->write(client, lba, data);
}

TEST(Raid5, ParityConsistentAfterSmallWrites) {
  Rig rig(test::small_cluster());
  Raid5Controller eng(rig.fabric);
  for (std::uint64_t b : {0ull, 1ull, 2ull, 5ull, 7ull, 11ull}) {
    rig.run(do_write(&eng, 0, b, 1, static_cast<std::uint8_t>(b)));
  }
  for (std::uint64_t s = 0; s < 4; ++s) {
    expect_parity_consistent(rig, eng, s);
  }
}

TEST(Raid5, ParityConsistentAfterLargeWrite) {
  Rig rig(test::small_cluster());
  Raid5Controller eng(rig.fabric);
  rig.run(do_write(&eng, 1, 0, 30, 3));
  for (std::uint64_t s = 0; s < 10; ++s) {
    expect_parity_consistent(rig, eng, s);
  }
}

TEST(Raid5, ParityConsistentAfterOverwrites) {
  Rig rig(test::small_cluster());
  Raid5Controller eng(rig.fabric);
  rig.run(do_write(&eng, 0, 0, 12, 1));
  rig.run(do_write(&eng, 1, 3, 5, 2));   // partial overwrite
  rig.run(do_write(&eng, 2, 6, 1, 3));   // single-block RMW
  for (std::uint64_t s = 0; s < 6; ++s) {
    expect_parity_consistent(rig, eng, s);
  }
}

TEST(Raid5, FullStripeAggregationAblationStaysConsistent) {
  EngineParams params;
  params.raid5_full_stripe_writes = true;
  Rig rig(test::small_cluster());
  Raid5Controller eng(rig.fabric, params);
  rig.run(do_write(&eng, 0, 0, 30, 9));   // full stripes + tail
  rig.run(do_write(&eng, 1, 4, 2, 10));   // RMW inside
  for (std::uint64_t s = 0; s < 10; ++s) {
    expect_parity_consistent(rig, eng, s);
  }
}

TEST(Raid5, SmallWriteCostsMoreDiskOpsThanRaid0) {
  // The small-write problem: one logical block write turns into 2 reads +
  // 2 writes.  Count physical disk ops.
  Rig rig5(test::small_cluster());
  Raid5Controller r5(rig5.fabric);
  rig5.run(do_write(&r5, 0, 1, 1, 0));
  std::uint64_t ops5 = 0;
  for (int d = 0; d < 4; ++d) {
    ops5 += rig5.cluster.disk(d).reads() + rig5.cluster.disk(d).writes();
  }

  Rig rig0(test::small_cluster());
  Raid0Controller r0(rig0.fabric);
  rig0.run(do_write(&r0, 0, 1, 1, 0));
  std::uint64_t ops0 = 0;
  for (int d = 0; d < 4; ++d) {
    ops0 += rig0.cluster.disk(d).reads() + rig0.cluster.disk(d).writes();
  }
  EXPECT_EQ(ops0, 1u);
  EXPECT_EQ(ops5, 4u);  // read old data + old parity, write both
}

TEST(Raid5, DegradedWriteKeepsStripeRecoverable) {
  Rig rig(test::small_cluster());
  Raid5Controller eng(rig.fabric);
  rig.run(do_write(&eng, 0, 0, 12, 1));
  rig.cluster.disk(1).fail();
  // Overwrite blocks including ones on the failed disk.
  rig.run(do_write(&eng, 0, 0, 12, 2));
  // All data must read back (reconstructed through parity where needed).
  auto read_back = [](Raid5Controller* e,
                      std::vector<std::byte>* out) -> sim::Task<> {
    out->assign(12 * e->block_bytes(), std::byte{0});
    co_await e->read(2, 0, 12, *out);
  };
  std::vector<std::byte> got;
  rig.run(read_back(&eng, &got));
  EXPECT_EQ(got, test::pattern_run(0, 12, eng.block_bytes(), 2));
}

TEST(Raid5, DoubleFailureIsFatal) {
  Rig rig(test::small_cluster());
  Raid5Controller eng(rig.fabric);
  rig.run(do_write(&eng, 0, 0, 12, 1));
  rig.cluster.disk(0).fail();
  rig.cluster.disk(2).fail();
  auto read_back = [](Raid5Controller* e,
                      std::vector<std::byte>* out) -> sim::Task<> {
    out->assign(12 * e->block_bytes(), std::byte{0});
    co_await e->read(1, 0, 12, *out);
  };
  std::vector<std::byte> got;
  rig.sim.spawn(read_back(&eng, &got));
  EXPECT_THROW(rig.sim.run(), IoError);
}

TEST(Raid5, VerifyParityOnReadFetchesParityBlocks) {
  EngineParams params;
  params.verify_parity_on_read = true;
  Rig rig(test::small_cluster());
  Raid5Controller eng(rig.fabric, params);
  rig.run(do_write(&eng, 0, 0, 3, 1));
  const auto pp = eng.raid5().parity_location(0);
  const std::uint64_t parity_reads_before =
      rig.cluster.disk(pp.disk).reads();
  auto read_back = [](Raid5Controller* e,
                      std::vector<std::byte>* out) -> sim::Task<> {
    out->assign(3 * e->block_bytes(), std::byte{0});
    co_await e->read(1, 0, 3, *out);
  };
  std::vector<std::byte> got;
  rig.run(read_back(&eng, &got));
  EXPECT_GT(rig.cluster.disk(pp.disk).reads(), parity_reads_before);
}

TEST(Raid5, CapacityExcludesOneDiskWorth) {
  Rig rig(test::small_cluster());
  Raid5Controller eng(rig.fabric);
  const auto& geo = rig.cluster.geometry();
  EXPECT_EQ(eng.logical_blocks(),
            static_cast<std::uint64_t>(geo.total_disks() - 1) *
                geo.blocks_per_disk);
}

}  // namespace
}  // namespace raidx::raid
