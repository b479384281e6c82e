// End-to-end integration tests: logical reads/writes through each array
// controller, over the full CDD + network + disk stack, with byte-exact
// verification and fault injection.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "nfs/nfs.hpp"
#include "raid/controller.hpp"
#include "sim/random.hpp"
#include "sim/shard.hpp"
#include "test_util.hpp"

namespace raidx {
namespace {

using test::Rig;
using test::pattern_run;

enum class Kind { kRaid0, kRaid5, kRaid10, kRaidX, kNfs };

std::unique_ptr<raid::ArrayController> make_engine(Kind kind, cdd::CddFabric& fabric,
                                            raid::EngineParams params = {}) {
  switch (kind) {
    case Kind::kRaid0:
      return std::make_unique<raid::Raid0Controller>(fabric, params);
    case Kind::kRaid5:
      return std::make_unique<raid::Raid5Controller>(fabric, params);
    case Kind::kRaid10:
      return std::make_unique<raid::Raid10Controller>(fabric, params);
    case Kind::kRaidX:
      return std::make_unique<raid::RaidxController>(fabric, params);
    case Kind::kNfs:
      return std::make_unique<nfs::NfsEngine>(fabric, params);
  }
  return nullptr;
}

sim::Task<> write_then_read(raid::ArrayController* eng, int writer, int reader,
                            std::uint64_t lba, std::uint32_t nblocks,
                            std::vector<std::byte>* got) {
  const auto data = pattern_run(lba, nblocks, eng->block_bytes());
  co_await eng->write(writer, lba, data);
  got->assign(data.size(), std::byte{0});
  co_await eng->read(reader, lba, nblocks, *got);
}

class EngineRoundTrip : public ::testing::TestWithParam<Kind> {};

TEST_P(EngineRoundTrip, SingleBlock) {
  Rig rig(test::small_cluster());
  auto eng = make_engine(GetParam(), rig.fabric);
  std::vector<std::byte> got;
  rig.run(write_then_read(eng.get(), 0, 2, 5, 1, &got));
  EXPECT_EQ(got, pattern_run(5, 1, eng->block_bytes()));
}

TEST_P(EngineRoundTrip, FullStripeAligned) {
  Rig rig(test::small_cluster());
  auto eng = make_engine(GetParam(), rig.fabric);
  std::vector<std::byte> got;
  // One full stripe starting at 0.
  const std::uint32_t n = 4;
  rig.run(write_then_read(eng.get(), 1, 3, 0, n, &got));
  EXPECT_EQ(got, pattern_run(0, n, eng->block_bytes()));
}

TEST_P(EngineRoundTrip, LargeUnalignedRun) {
  Rig rig(test::small_cluster());
  auto eng = make_engine(GetParam(), rig.fabric);
  std::vector<std::byte> got;
  // 37 blocks starting mid-stripe: exercises partial head, full stripes,
  // and a partial tail.
  rig.run(write_then_read(eng.get(), 2, 0, 3, 37, &got));
  EXPECT_EQ(got, pattern_run(3, 37, eng->block_bytes()));
}

TEST_P(EngineRoundTrip, OverwriteReplacesContents) {
  Rig rig(test::small_cluster());
  auto eng = make_engine(GetParam(), rig.fabric);
  const std::uint32_t bs = eng->block_bytes();
  auto first = pattern_run(7, 9, bs, /*salt=*/1);
  auto second = pattern_run(7, 9, bs, /*salt=*/2);
  std::vector<std::byte> got(second.size());
  auto scenario = [](raid::ArrayController* e, std::span<const std::byte> a,
                     std::span<const std::byte> b,
                     std::span<std::byte> out) -> sim::Task<> {
    co_await e->write(0, 7, a);
    co_await e->write(1, 7, b);
    co_await e->read(2, 7, 9, out);
  };
  rig.run(scenario(eng.get(), first, second, got));
  EXPECT_EQ(got, second);
}

TEST_P(EngineRoundTrip, UnwrittenBlocksReadAsZero) {
  Rig rig(test::small_cluster());
  auto eng = make_engine(GetParam(), rig.fabric);
  std::vector<std::byte> got(eng->block_bytes() * 3, std::byte{0xff});
  auto scenario = [](raid::ArrayController* e, std::span<std::byte> out)
      -> sim::Task<> { co_await e->read(0, 100, 3, out); };
  rig.run(scenario(eng.get(), got));
  for (std::byte b : got) EXPECT_EQ(b, std::byte{0});
}

TEST_P(EngineRoundTrip, ReadBeyondEndThrows) {
  Rig rig(test::small_cluster());
  auto eng = make_engine(GetParam(), rig.fabric);
  std::vector<std::byte> got(eng->block_bytes());
  auto scenario = [](raid::ArrayController* e, std::span<std::byte> out,
                     bool* threw) -> sim::Task<> {
    try {
      co_await e->read(0, e->logical_blocks(), 1, out);
    } catch (const raid::IoError&) {
      *threw = true;
    }
  };
  bool threw = false;
  rig.run(scenario(eng.get(), got, &threw));
  EXPECT_TRUE(threw);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineRoundTrip,
                         ::testing::Values(Kind::kRaid0, Kind::kRaid5,
                                           Kind::kRaid10, Kind::kRaidX,
                                           Kind::kNfs),
                         [](const auto& info) {
                           switch (info.param) {
                             case Kind::kRaid0: return "Raid0";
                             case Kind::kRaid5: return "Raid5";
                             case Kind::kRaid10: return "Raid10";
                             case Kind::kRaidX: return "RaidX";
                             case Kind::kNfs: return "Nfs";
                           }
                           return "Unknown";
                         });

// Round trips must also hold on the paper's 4x3 two-dimensional array.
class EngineRoundTrip4x3 : public ::testing::TestWithParam<Kind> {};

TEST_P(EngineRoundTrip4x3, LargeRun) {
  Rig rig(test::small_cluster(4, 3));
  auto eng = make_engine(GetParam(), rig.fabric);
  std::vector<std::byte> got;
  rig.run(write_then_read(eng.get(), 0, 1, 2, 53, &got));
  EXPECT_EQ(got, pattern_run(2, 53, eng->block_bytes()));
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineRoundTrip4x3,
                         ::testing::Values(Kind::kRaid0, Kind::kRaid5,
                                           Kind::kRaid10, Kind::kRaidX,
                                           Kind::kNfs),
                         [](const auto& info) {
                           switch (info.param) {
                             case Kind::kRaid0: return "Raid0";
                             case Kind::kRaid5: return "Raid5";
                             case Kind::kRaid10: return "Raid10";
                             case Kind::kRaidX: return "RaidX";
                             case Kind::kNfs: return "Nfs";
                           }
                           return "Unknown";
                         });

// --- Fault tolerance ------------------------------------------------------

sim::Task<> write_all(raid::ArrayController* eng, std::uint64_t lba,
                      std::uint32_t nblocks) {
  const auto data = pattern_run(lba, nblocks, eng->block_bytes());
  co_await eng->write(0, lba, data);
}

sim::Task<> read_all(raid::ArrayController* eng, std::uint64_t lba,
                     std::uint32_t nblocks, std::vector<std::byte>* got) {
  got->assign(static_cast<std::size_t>(nblocks) * eng->block_bytes(),
              std::byte{0});
  co_await eng->read(1, lba, nblocks, *got);
}

TEST(FaultTolerance, Raid0LosesDataOnDiskFailure) {
  Rig rig(test::small_cluster());
  raid::Raid0Controller eng(rig.fabric);
  rig.run(write_all(&eng, 0, 16));
  rig.cluster.disk(1).fail();
  std::vector<std::byte> got;
  rig.sim.spawn(read_all(&eng, 0, 16, &got));
  EXPECT_THROW(rig.sim.run(), raid::IoError);
}

TEST(FaultTolerance, Raid5SurvivesSingleDiskFailure) {
  Rig rig(test::small_cluster());
  raid::Raid5Controller eng(rig.fabric);
  rig.run(write_all(&eng, 0, 24));
  rig.cluster.disk(2).fail();
  std::vector<std::byte> got;
  rig.run(read_all(&eng, 0, 24, &got));
  EXPECT_EQ(got, pattern_run(0, 24, eng.block_bytes()));
}

TEST(FaultTolerance, Raid10SurvivesSingleDiskFailure) {
  Rig rig(test::small_cluster());
  raid::Raid10Controller eng(rig.fabric);
  rig.run(write_all(&eng, 0, 24));
  rig.cluster.disk(0).fail();
  std::vector<std::byte> got;
  rig.run(read_all(&eng, 0, 24, &got));
  EXPECT_EQ(got, pattern_run(0, 24, eng.block_bytes()));
}

TEST(FaultTolerance, RaidxSurvivesSingleDiskFailure) {
  Rig rig(test::small_cluster());
  raid::RaidxController eng(rig.fabric);
  rig.run(write_all(&eng, 0, 24));
  rig.cluster.disk(3).fail();
  std::vector<std::byte> got;
  rig.run(read_all(&eng, 0, 24, &got));
  EXPECT_EQ(got, pattern_run(0, 24, eng.block_bytes()));
}

TEST(FaultTolerance, RaidxSurvivesEveryPossibleSingleFailure) {
  // Property claimed in Section 2: any single-disk failure is recoverable.
  for (int victim = 0; victim < 4; ++victim) {
    Rig rig(test::small_cluster());
    raid::RaidxController eng(rig.fabric);
    rig.run(write_all(&eng, 0, 32));
    rig.cluster.disk(victim).fail();
    std::vector<std::byte> got;
    rig.run(read_all(&eng, 0, 32, &got));
    EXPECT_EQ(got, pattern_run(0, 32, eng.block_bytes()))
        << "victim disk " << victim;
  }
}

TEST(FaultTolerance, Raidx4x3SurvivesOneFailurePerRow) {
  // The paper: "For the 4x3 array, up-to-3 disk failures in 3 stripe
  // groups can be tolerated" -- one per row.
  Rig rig(test::small_cluster(4, 3));
  raid::RaidxController eng(rig.fabric);
  rig.run(write_all(&eng, 0, 60));
  rig.cluster.disk(0).fail();   // row 0
  rig.cluster.disk(5).fail();   // row 1
  rig.cluster.disk(10).fail();  // row 2
  std::vector<std::byte> got;
  rig.run(read_all(&eng, 0, 60, &got));
  EXPECT_EQ(got, pattern_run(0, 60, eng.block_bytes()));
}

TEST(FaultTolerance, RaidxWritesRemainDurableDuringFailure) {
  // A write issued while the data disk is down must land on the image and
  // read back correctly.
  Rig rig(test::small_cluster());
  raid::RaidxController eng(rig.fabric);
  rig.cluster.disk(1).fail();
  rig.run(write_all(&eng, 0, 16));
  std::vector<std::byte> got;
  rig.run(read_all(&eng, 0, 16, &got));
  EXPECT_EQ(got, pattern_run(0, 16, eng.block_bytes()));
}

TEST(FaultTolerance, Raid5WritesDegradedThenRecoverable) {
  Rig rig(test::small_cluster());
  raid::Raid5Controller eng(rig.fabric);
  rig.cluster.disk(1).fail();
  rig.run(write_all(&eng, 0, 16));
  std::vector<std::byte> got;
  rig.run(read_all(&eng, 0, 16, &got));
  EXPECT_EQ(got, pattern_run(0, 16, eng.block_bytes()));
}

// --- Rebuild ---------------------------------------------------------------

TEST(Rebuild, Raid5RestoresReplacedDisk) {
  Rig rig(test::small_cluster(4, 1, /*blocks_per_disk=*/64));
  raid::Raid5Controller eng(rig.fabric);
  rig.run(write_all(&eng, 0, 48));
  rig.cluster.disk(2).fail();
  rig.cluster.disk(2).replace();
  auto rebuild = [](raid::Raid5Controller* e) -> sim::Task<> {
    co_await e->rebuild_disk(0, 2, 64);
  };
  rig.run(rebuild(&eng));
  // After rebuild, reads must succeed even with another path degraded --
  // verify contents byte-exactly with all disks healthy.
  std::vector<std::byte> got;
  rig.run(read_all(&eng, 0, 48, &got));
  EXPECT_EQ(got, pattern_run(0, 48, eng.block_bytes()));
}

TEST(Rebuild, Raid10RestoresReplacedDisk) {
  Rig rig(test::small_cluster(4, 1, /*blocks_per_disk=*/64));
  raid::Raid10Controller eng(rig.fabric);
  rig.run(write_all(&eng, 0, 48));
  rig.cluster.disk(1).fail();
  rig.cluster.disk(1).replace();
  auto rebuild = [](raid::Raid10Controller* e) -> sim::Task<> {
    co_await e->rebuild_disk(0, 1);
  };
  rig.run(rebuild(&eng));
  std::vector<std::byte> got;
  rig.run(read_all(&eng, 0, 48, &got));
  EXPECT_EQ(got, pattern_run(0, 48, eng.block_bytes()));
}

TEST(Rebuild, RaidxRestoresReplacedDisk) {
  Rig rig(test::small_cluster(4, 1, /*blocks_per_disk=*/100));
  raid::RaidxController eng(rig.fabric);
  rig.run(write_all(&eng, 0, 48));
  rig.cluster.disk(3).fail();
  rig.cluster.disk(3).replace();
  auto rebuild = [](raid::RaidxController* e) -> sim::Task<> {
    co_await e->rebuild_disk(0, 3);
  };
  rig.run(rebuild(&eng));
  std::vector<std::byte> got;
  rig.run(read_all(&eng, 0, 48, &got));
  EXPECT_EQ(got, pattern_run(0, 48, eng.block_bytes()));

  // The rebuilt disk must also hold correct *images*: fail a neighbor and
  // read through the rebuilt disk's image copies.
  rig.cluster.disk(0).fail();
  std::vector<std::byte> got2;
  rig.run(read_all(&eng, 0, 48, &got2));
  EXPECT_EQ(got2, pattern_run(0, 48, eng.block_bytes()));
}

// --- Concurrency / consistency ---------------------------------------------

sim::Task<> concurrent_writer(raid::ArrayController* eng, int client,
                              std::uint64_t lba, std::uint32_t nblocks,
                              std::uint8_t salt) {
  auto data = pattern_run(lba, nblocks, eng->block_bytes(), salt);
  co_await eng->write(client, lba, data);
}

TEST(Consistency, DisjointConcurrentWritersDoNotInterfere) {
  Rig rig(test::small_cluster());
  raid::RaidxController eng(rig.fabric);
  for (int c = 0; c < 4; ++c) {
    rig.sim.spawn(concurrent_writer(&eng, c,
                                    static_cast<std::uint64_t>(c) * 32, 32,
                                    static_cast<std::uint8_t>(c)));
  }
  rig.sim.run();
  for (int c = 0; c < 4; ++c) {
    std::vector<std::byte> got;
    rig.run(read_all(&eng, static_cast<std::uint64_t>(c) * 32, 32, &got));
    EXPECT_EQ(got, pattern_run(static_cast<std::uint64_t>(c) * 32, 32,
                               eng.block_bytes(),
                               static_cast<std::uint8_t>(c)));
  }
}

TEST(Consistency, OverlappingWritersSerializeViaLockGroups) {
  // Two clients write the same range concurrently; with lock groups the
  // result must be exactly one client's data, never a mix within a block.
  Rig rig(test::small_cluster());
  raid::Raid5Controller eng(rig.fabric);
  rig.sim.spawn(concurrent_writer(&eng, 0, 0, 16, 10));
  rig.sim.spawn(concurrent_writer(&eng, 1, 0, 16, 20));
  rig.sim.run();
  std::vector<std::byte> got;
  rig.run(read_all(&eng, 0, 16, &got));
  const auto a = pattern_run(0, 16, eng.block_bytes(), 10);
  const auto b = pattern_run(0, 16, eng.block_bytes(), 20);
  EXPECT_TRUE(got == a || got == b);
}

// --- Sharded engine (conservative time windows, src/sim/shard) --------------

struct ShardTrace {
  int shard;
  sim::Time at;
  int tag;
  bool operator==(const ShardTrace&) const = default;
};

// Seeded per-shard driver: jittered local delays, trace appends, and
// occasional cross-shard posts whose handlers append on the peer (tag
// offset by 1000 marks a remote delivery).
sim::Task<> shard_driver(sim::ShardGroup* g, int shard, int rounds,
                         std::vector<ShardTrace>* traces) {
  sim::Simulation& sim = g->sim(shard);
  sim::Rng rng(0x5eedull + static_cast<std::uint64_t>(shard));
  for (int r = 0; r < rounds; ++r) {
    co_await sim.delay(
        sim::microseconds(static_cast<double>(10 + rng.uniform(0, 900))));
    traces[shard].push_back({shard, sim.now(), r});
    if (g->shards() > 1 && rng.chance(0.4)) {
      const int dst = (shard + 1 +
                       static_cast<int>(rng.uniform(0, g->shards() - 2))) %
                      g->shards();
      const sim::Time at = sim.now() + g->lookahead();
      g->post(shard, dst, at, [g, dst, traces, shard, r] {
        traces[dst].push_back({dst, g->sim(dst).now(), 1000 + shard * 100 + r});
      });
    }
  }
}

std::vector<std::vector<ShardTrace>> run_shard_workload(int shards,
                                                        int threads,
                                                        int rounds = 64) {
  sim::ShardGroup group(shards, sim::microseconds(100));
  std::vector<std::vector<ShardTrace>> traces(
      static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    auto scope = group.frame_scope(s);
    group.sim(s).spawn(shard_driver(&group, s, rounds, traces.data()));
  }
  group.run(threads);
  return traces;
}

TEST(ShardGroup, RepeatedRunsAreBitIdentical) {
  const auto a = run_shard_workload(4, 2);
  const auto b = run_shard_workload(4, 2);
  EXPECT_EQ(a, b);
}

TEST(ShardGroup, ResultsIndependentOfThreadCount) {
  const auto serial = run_shard_workload(4, 1);
  const auto parallel = run_shard_workload(4, 4);
  EXPECT_EQ(serial, parallel);
  // The workload actually crossed shards; otherwise this test is vacuous.
  bool crossed = false;
  for (const auto& t : serial) {
    for (const auto& e : t) crossed |= e.tag >= 1000;
  }
  EXPECT_TRUE(crossed);
}

TEST(ShardGroup, SingleShardBypassMatchesPlainRun) {
  // --shards=1 must be the plain drain loop: same trace, same clock.
  const auto sharded = run_shard_workload(1, 1);
  sim::Simulation plain;
  std::vector<ShardTrace> trace;
  auto driver = [](sim::Simulation* s, int rounds,
                   std::vector<ShardTrace>* out) -> sim::Task<> {
    sim::Rng rng(0x5eedull);
    for (int r = 0; r < rounds; ++r) {
      co_await s->delay(
          sim::microseconds(static_cast<double>(10 + rng.uniform(0, 900))));
      out->push_back({0, s->now(), r});
    }
  };
  plain.spawn(driver(&plain, 64, &trace));
  plain.run();
  EXPECT_EQ(sharded[0], trace);
}

TEST(ShardGroup, MailboxDeliveryIsTotallyOrdered) {
  // Same-timestamp messages from different sources must land by
  // (deliver_at, src_shard, src_seq) no matter the posting order.
  sim::ShardGroup group(3, sim::microseconds(100));
  std::vector<int> order;
  const sim::Time at = sim::milliseconds(1);
  group.post(2, 0, at, [&] { order.push_back(20); });  // src 2, seq 0
  group.post(1, 0, at, [&] { order.push_back(10); });  // src 1, seq 0
  group.post(1, 0, at, [&] { order.push_back(11); });  // src 1, seq 1
  group.run(2);
  EXPECT_EQ(order, (std::vector<int>{10, 11, 20}));
  EXPECT_EQ(group.stats().messages, 3u);
}

TEST(ShardGroup, IdleShardDaemonsStayParked) {
  // Daemon liveness is per shard: a shard with only a daemon loop parks
  // immediately, no matter how much foreground work a peer still has, and
  // the run terminates once every shard's own foreground is drained.
  sim::ShardGroup group(2, sim::microseconds(100));
  int ticks = 0;
  auto daemon = [](sim::Simulation* s, int* n) -> sim::Task<> {
    for (;;) {
      co_await s->daemon_delay(sim::microseconds(200));
      ++*n;
    }
  };
  auto busy = [](sim::Simulation* s) -> sim::Task<> {
    co_await s->delay(sim::milliseconds(2));
  };
  {
    auto scope = group.frame_scope(0);
    group.sim(0).spawn(daemon(&group.sim(0), &ticks));
  }
  {
    auto scope = group.frame_scope(1);
    group.sim(1).spawn(busy(&group.sim(1)));
  }
  group.run(2);
  EXPECT_EQ(ticks, 0);
  EXPECT_EQ(group.sim(0).now(), 0);  // census never probed the idle shard
}

TEST(ShardGroup, MutualWatchdogsDoNotLivelock) {
  // Watchdog daemons that spawn foreground work on every tick (the HA
  // probe-loop shape) must not sustain each other across shards.  With
  // group-wide daemon liveness this ran forever for phase-asymmetric
  // workloads: each shard's tick created foreground that kept the peer's
  // watchdog live, and vice versa.  Per-shard liveness terminates: once a
  // shard's own foreground drains, its watchdog parks mid-loop.
  sim::ShardGroup group(2, sim::microseconds(100));
  std::vector<int> ticks(2, 0);
  auto watchdog = [](sim::Simulation* s, int* n) -> sim::Task<> {
    for (;;) {
      co_await s->daemon_delay(sim::microseconds(200));
      ++*n;
      // Foreground "probe" work, as ha::Orchestrator's probe_round does.
      co_await s->delay(sim::microseconds(50));
    }
  };
  auto busy = [](sim::Simulation* s, sim::Time dur) -> sim::Task<> {
    co_await s->delay(dur);
  };
  for (int s = 0; s < 2; ++s) {
    auto scope = group.frame_scope(s);
    group.sim(s).spawn(watchdog(&group.sim(s), &ticks[static_cast<std::size_t>(s)]));
    // Asymmetric durations: the shape that exposed the livelock.
    group.sim(s).spawn(busy(&group.sim(s), sim::milliseconds(s == 0 ? 1 : 3)));
  }
  group.run(2);
  // Each watchdog ticked roughly for its own shard's busy span and then
  // parked; shard 1 ran ~3x longer so it saw strictly more ticks.
  EXPECT_GE(ticks[0], 3);
  EXPECT_GT(ticks[1], ticks[0]);
}

}  // namespace
}  // namespace raidx
