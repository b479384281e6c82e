// Block-cache subsystem tests: eviction mechanics (LRU / 2Q), write-back
// absorb + flush ordering, cooperative peer forwarding, byte-exact
// coherence under racing overlapping writers, and dirty-data survival
// across a disk fail/heal cycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "cache/block_cache.hpp"
#include "cache/cache_fabric.hpp"
#include "raid/controller.hpp"
#include "sim/sync.hpp"
#include "test_util.hpp"

namespace raidx {
namespace {

using cache::CacheFabric;
using cache::CacheParams;
using cache::EvictionPolicy;
using cache::NodeCache;
using cache::WritePolicy;
using test::pattern_block;
using test::pattern_run;
using test::Rig;

block::Payload block_of(std::uint8_t v, std::uint32_t bs = 512) {
  return block::Payload(std::vector<std::byte>(bs, std::byte{v}));
}

// ------------------------------------------------------------ NodeCache --

TEST(NodeCacheLru, EvictsLeastRecentlyUsed) {
  NodeCache c(4, 512, EvictionPolicy::kLru);
  for (std::uint64_t lba = 0; lba < 4; ++lba) {
    c.insert(lba, block_of(1), /*dirty=*/false);
  }
  c.lookup(0);  // refresh 0; the coldest entry is now 1
  EXPECT_EQ(c.pick_victim(), std::optional<std::uint64_t>(1));
}

TEST(NodeCacheLru, VictimSkipsDirtyAndBusyPinnedLast) {
  NodeCache c(4, 512, EvictionPolicy::kLru);
  c.set_pinned_range(2, 3);
  c.insert(0, block_of(1), /*dirty=*/true);
  c.insert(1, block_of(1), /*dirty=*/false);
  c.insert(2, block_of(1), /*dirty=*/false);  // pinned (metadata)
  c.set_busy(1, true);
  // 0 is dirty, 1 is mid-flush: only the pinned entry is left, and it is
  // eligible strictly as a last resort.
  EXPECT_EQ(c.pick_victim(), std::optional<std::uint64_t>(2));
  c.set_busy(1, false);
  EXPECT_EQ(c.pick_victim(), std::optional<std::uint64_t>(1));
}

TEST(NodeCache, MarkCleanIsVersionGuarded) {
  NodeCache c(4, 512, EvictionPolicy::kLru);
  c.insert(7, block_of(1), /*dirty=*/true);
  const std::uint64_t v1 = c.version(7);
  c.insert(7, block_of(2), /*dirty=*/true);  // rewritten since the flush read
  EXPECT_FALSE(c.mark_clean(7, v1));
  EXPECT_TRUE(c.dirty(7));
  EXPECT_TRUE(c.mark_clean(7, c.version(7)));
  EXPECT_FALSE(c.dirty(7));
  EXPECT_EQ(c.dirty_blocks(), 0u);
}

TEST(NodeCache2Q, SequentialScanCannotDisplaceHotBlocks) {
  NodeCache q2(8, 512, EvictionPolicy::k2Q);
  NodeCache lru(8, 512, EvictionPolicy::kLru);
  auto evict_one = [](NodeCache& c) {
    auto v = c.pick_victim();
    ASSERT_TRUE(v.has_value());
    c.invalidate(*v);
  };
  // Promote block 100 into 2Q's protected main queue: first touch lands on
  // probation, eviction leaves a ghost, and the ghost's re-reference is the
  // proof of reuse that admits it to main.
  q2.insert(100, block_of(9), false);
  q2.insert(101, block_of(9), false);
  q2.insert(102, block_of(9), false);  // probation above its 25% target
  evict_one(q2);                       // FIFO front: 100 -> ghost
  EXPECT_FALSE(q2.contains(100));
  q2.insert(100, block_of(9), false);  // ghost hit -> main
  lru.insert(100, block_of(9), false);
  lru.lookup(100);

  // A long sequential scan: 2Q churns probation only, LRU loses everything.
  for (std::uint64_t lba = 1; lba <= 40; ++lba) {
    q2.insert(lba, block_of(2), false);
    while (q2.over_capacity()) evict_one(q2);
    lru.insert(lba, block_of(2), false);
    while (lru.over_capacity()) evict_one(lru);
  }
  EXPECT_TRUE(q2.contains(100));
  EXPECT_FALSE(lru.contains(100));
}

// ------------------------------------------------- engine + cache rigs --

CacheParams cache_params(WritePolicy policy, std::uint64_t capacity = 256,
                         bool cooperative = true) {
  CacheParams cp;
  cp.capacity_blocks = capacity;
  cp.write_policy = policy;
  cp.cooperative = cooperative;
  return cp;
}

struct CacheRig {
  explicit CacheRig(CacheParams cp,
                    cluster::ClusterParams clp = test::small_cluster())
      : rig(clp), cache(rig.cluster, cp) {}

  Rig rig;
  CacheFabric cache;
};

sim::Task<> do_write(raid::ArrayController* eng, int client,
                     std::uint64_t lba, std::uint32_t nblocks,
                     std::uint8_t salt = 0) {
  const auto data = pattern_run(lba, nblocks, eng->block_bytes(), salt);
  co_await eng->write(client, lba, data);
}

// `out` starts as `fill` bytes, so a read that copies nothing shows.
sim::Task<> do_read(raid::ArrayController* eng, int client, std::uint64_t lba,
                    std::uint32_t nblocks, std::vector<std::byte>* out,
                    std::byte fill = std::byte{0}) {
  out->assign(static_cast<std::size_t>(nblocks) * eng->block_bytes(), fill);
  co_await eng->read(client, lba, nblocks, *out);
}

// --------------------------------------------------- write-back + flush --

TEST(CacheWriteBack, AbsorbsWritesThenFlushesByteExact) {
  CacheRig cr(cache_params(WritePolicy::kWriteBack));
  raid::Raid0Controller eng(cr.rig.fabric);
  eng.attach_cache(&cr.cache);
  const std::uint32_t bs = eng.block_bytes();

  cr.rig.run(do_write(&eng, 0, 0, 16));
  // Below the high-water mark nothing reaches the disks: the writes were
  // absorbed in node 0's memory.
  EXPECT_EQ(cr.cache.stats().writes_absorbed, 16u);
  EXPECT_EQ(cr.cache.dirty_blocks(0), 16u);
  EXPECT_EQ(cr.cache.stats().flushes, 0u);

  cr.rig.run(eng.flush_cache());
  EXPECT_EQ(cr.cache.dirty_blocks(0), 0u);
  EXPECT_EQ(cr.cache.stats().flushes, 16u);

  // The disks now hold the bytes: forget every cache and read them back.
  for (int n = 0; n < cr.rig.cluster.num_nodes(); ++n) cr.cache.drop_node(n);
  std::vector<std::byte> got;
  cr.rig.run(do_read(&eng, 2, 0, 16, &got));
  EXPECT_EQ(got, pattern_run(0, 16, bs));
}

TEST(CacheWriteBack, HighWaterTriggersBackgroundFlusher) {
  CacheRig cr(cache_params(WritePolicy::kWriteBack, /*capacity=*/256));
  raid::Raid0Controller eng(cr.rig.fabric);
  eng.attach_cache(&cr.cache);

  // 128 dirty blocks >> high water (25% of 256): the flusher must have
  // kicked in on its own and drained to the low-water mark by the time the
  // simulation goes quiet.
  auto writes = [](raid::ArrayController* e) -> sim::Task<> {
    for (std::uint64_t lba = 0; lba < 128; lba += 8) {
      co_await do_write(e, 0, lba, 8);
    }
  };
  cr.rig.run(writes(&eng));
  EXPECT_GT(cr.cache.stats().flushes, 0u);
  EXPECT_LE(cr.cache.dirty_blocks(0),
            static_cast<std::size_t>(0.05 * 256));
  EXPECT_EQ(eng.background_in_flight(), 0);

  // What was flushed is on disk for real.
  cr.rig.run(eng.flush_cache());
  for (int n = 0; n < cr.rig.cluster.num_nodes(); ++n) cr.cache.drop_node(n);
  std::vector<std::byte> got;
  cr.rig.run(do_read(&eng, 1, 0, 128, &got));
  EXPECT_EQ(got, pattern_run(0, 128, eng.block_bytes()));
}

// ------------------------------------------------------- peer forwarding --

TEST(CacheCoherence, DirtyPeerCopyIsForwardedEvenWithoutCooperative) {
  // A dirty write-back copy makes the disk stale, so forwarding it is a
  // coherence requirement, not a performance feature.
  CacheRig cr(cache_params(WritePolicy::kWriteBack, 256,
                           /*cooperative=*/false));
  raid::Raid0Controller eng(cr.rig.fabric);
  eng.attach_cache(&cr.cache);

  cr.rig.run(do_write(&eng, 0, 0, 8, /*salt=*/3));
  ASSERT_EQ(cr.cache.dirty_blocks(0), 8u);  // disk is stale

  std::vector<std::byte> got;
  cr.rig.run(do_read(&eng, 1, 0, 8, &got));
  EXPECT_EQ(got, pattern_run(0, 8, eng.block_bytes(), 3));
  EXPECT_EQ(cr.cache.stats().peer_hits, 8u);
}

TEST(CacheCoherence, CleanCopiesForwardOnlyWhenCooperative) {
  for (bool coop : {false, true}) {
    CacheRig cr(cache_params(WritePolicy::kWriteThrough, 256, coop));
    raid::Raid0Controller eng(cr.rig.fabric);
    eng.attach_cache(&cr.cache);

    // Write-through leaves clean copies at node 0 (and the data on disk).
    cr.rig.run(do_write(&eng, 0, 0, 8, /*salt=*/5));
    ASSERT_EQ(cr.cache.dirty_blocks(0), 0u);

    std::vector<std::byte> got;
    cr.rig.run(do_read(&eng, 1, 0, 8, &got));
    EXPECT_EQ(got, pattern_run(0, 8, eng.block_bytes(), 5));
    if (coop) {
      EXPECT_EQ(cr.cache.stats().peer_hits, 8u) << "coop=" << coop;
    } else {
      EXPECT_EQ(cr.cache.stats().peer_hits, 0u) << "coop=" << coop;
      EXPECT_EQ(cr.cache.stats().misses, 8u) << "coop=" << coop;
    }
  }
}

TEST(CacheCoherence, WriteInvalidatesRemoteReplicas) {
  CacheRig cr(cache_params(WritePolicy::kWriteBack));
  raid::Raid0Controller eng(cr.rig.fabric);
  eng.attach_cache(&cr.cache);

  cr.rig.run(do_write(&eng, 0, 0, 8, /*salt=*/1));
  std::vector<std::byte> got;
  cr.rig.run(do_read(&eng, 1, 0, 8, &got));  // replicates into node 1
  ASSERT_EQ(got, pattern_run(0, 8, eng.block_bytes(), 1));

  cr.rig.run(do_write(&eng, 0, 0, 8, /*salt=*/2));
  EXPECT_GE(cr.cache.stats().invalidations, 8u);
  cr.rig.run(do_read(&eng, 1, 0, 8, &got));
  EXPECT_EQ(got, pattern_run(0, 8, eng.block_bytes(), 2));
}

// ------------------------------------- racing-writer coherence property --

enum class Kind { kRaid0, kRaid5, kRaid10, kRaidX };

std::unique_ptr<raid::ArrayController> make_engine(
    Kind kind, cdd::CddFabric& fabric, raid::EngineParams params = {}) {
  switch (kind) {
    case Kind::kRaid0:
      return std::make_unique<raid::Raid0Controller>(fabric, params);
    case Kind::kRaid10:
      return std::make_unique<raid::Raid10Controller>(fabric, params);
    case Kind::kRaid5:
      return std::make_unique<raid::Raid5Controller>(fabric, params);
    case Kind::kRaidX:
      return std::make_unique<raid::RaidxController>(fabric, params);
  }
  return nullptr;
}

struct RaceShared {
  raid::ArrayController& eng;
  sim::Barrier barrier;
  std::uint64_t region_blocks;
  std::uint32_t chunk;
  int rounds;
  int writers;
  std::vector<std::vector<std::byte>> read_back;  // one buffer per node
};

std::uint8_t race_salt(int round, int writer) {
  return static_cast<std::uint8_t>(round * 8 + writer + 1);
}

// Every node is simultaneously a writer over the WHOLE shared region
// (chunks issued from a node-specific starting offset so ops interleave)
// and, after a barrier, a reader of it.  The property: at every quiescent
// point all nodes read identical bytes, and every block is exactly one
// writer's pattern -- never torn, never stale.
sim::Task<> race_task(RaceShared& sh, int node) {
  const std::uint32_t bs = sh.eng.block_bytes();
  const std::uint64_t nchunks = sh.region_blocks / sh.chunk;
  for (int round = 0; round < sh.rounds; ++round) {
    for (std::uint64_t k = 0; k < nchunks; ++k) {
      const std::uint64_t lba =
          ((k + static_cast<std::uint64_t>(node)) % nchunks) * sh.chunk;
      const auto data =
          pattern_run(lba, sh.chunk, bs, race_salt(round, node));
      co_await sh.eng.write(node, lba, data);
    }
    co_await sh.barrier.arrive_and_wait();

    auto& buf = sh.read_back[static_cast<std::size_t>(node)];
    buf.assign(sh.region_blocks * bs, std::byte{0});
    co_await sh.eng.read(node, 0,
                         static_cast<std::uint32_t>(sh.region_blocks), buf);
    co_await sh.barrier.arrive_and_wait();

    if (node == 0) {
      // (a) every node saw the same bytes;
      for (int n = 1; n < sh.writers; ++n) {
        EXPECT_EQ(sh.read_back[static_cast<std::size_t>(n)], sh.read_back[0])
            << "round " << round << ": node " << n
            << " disagrees with node 0";
      }
      // (b) each block is one writer's whole pattern from this round.
      for (std::uint64_t b = 0; b < sh.region_blocks; ++b) {
        std::span<const std::byte> blk(sh.read_back[0].data() + b * bs, bs);
        bool matched = false;
        for (int w = 0; w < sh.writers && !matched; ++w) {
          const auto want = pattern_block(b, bs, race_salt(round, w));
          matched = std::equal(blk.begin(), blk.end(), want.begin());
        }
        EXPECT_TRUE(matched)
            << "round " << round << ": block " << b
            << " is torn or stale";
      }
    }
  }
}

using RaceParam = std::tuple<Kind, WritePolicy, std::uint64_t /*capacity*/,
                             bool /*cooperative*/, bool /*use_locks*/>;

class CacheRaceCoherence : public ::testing::TestWithParam<RaceParam> {};

TEST_P(CacheRaceCoherence, QuiescentReadsAreByteExact) {
  const auto [kind, policy, capacity, coop, use_locks] = GetParam();
  CacheParams cp = cache_params(policy, capacity, coop);
  cp.eviction = EvictionPolicy::k2Q;
  CacheRig cr(cp);
  raid::EngineParams ep;
  ep.use_locks = use_locks;
  auto eng = make_engine(kind, cr.rig.fabric, ep);
  eng->attach_cache(&cr.cache);

  const int nodes = cr.rig.cluster.num_nodes();
  RaceShared sh{*eng,
                sim::Barrier(cr.rig.sim, nodes),
                /*region_blocks=*/24,
                /*chunk=*/4,
                /*rounds=*/3,
                nodes,
                {}};
  sh.read_back.resize(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    cr.rig.sim.spawn(race_task(sh, n));
  }
  cr.rig.sim.run();

  // Drain every dirty block and drop the caches: the DISKS must now hold
  // exactly the bytes the cluster agreed on in the final round.
  const std::vector<std::byte> agreed = sh.read_back[0];
  cr.rig.run(eng->flush_cache());
  for (int n = 0; n < nodes; ++n) cr.cache.drop_node(n);
  std::vector<std::byte> from_disk;
  cr.rig.run(do_read(eng.get(), 1, 0,
                     static_cast<std::uint32_t>(sh.region_blocks),
                     &from_disk));
  EXPECT_EQ(from_disk, agreed) << "disks diverged from the cached truth";
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CacheRaceCoherence,
    ::testing::Values(
        RaceParam{Kind::kRaid0, WritePolicy::kWriteThrough, 256, true, true},
        RaceParam{Kind::kRaid0, WritePolicy::kWriteThrough, 16, true, true},
        RaceParam{Kind::kRaid0, WritePolicy::kWriteBack, 256, true, true},
        RaceParam{Kind::kRaid0, WritePolicy::kWriteBack, 16, true, true},
        RaceParam{Kind::kRaid0, WritePolicy::kWriteBack, 16, false, true},
        // Lock-free configs exercise the write-through in-flight counter
        // and the epoch guard: cache commits and disk writes can reorder.
        RaceParam{Kind::kRaid0, WritePolicy::kWriteThrough, 64, true, false},
        RaceParam{Kind::kRaid0, WritePolicy::kWriteBack, 64, true, false},
        RaceParam{Kind::kRaid5, WritePolicy::kWriteBack, 64, true, true},
        RaceParam{Kind::kRaidX, WritePolicy::kWriteBack, 64, true, true},
        RaceParam{Kind::kRaidX, WritePolicy::kWriteThrough, 64, true, true}));

// ------------------------------------------------- one buffer per block --

// A written block is stored once: the writer's cache entry, the data copy
// and every mirror copy are the same immutable payload, whether the write
// went through or was absorbed and flushed later.  That payload stores the
// block only up to its last nonzero byte, so a block whose second half is
// zero keeps its first half.  RAID-5 parity is new bytes, so it is its own
// buffer.
using ShareParam = std::tuple<Kind, WritePolicy>;

class CacheSharing : public ::testing::TestWithParam<ShareParam> {};

sim::Task<> write_bytes(raid::ArrayController* eng, int client,
                        std::uint64_t lba, std::vector<std::byte> data) {
  co_await eng->write(client, lba, data);
}

TEST_P(CacheSharing, EntryAndEveryDiskCopyShareOneBuffer) {
  const auto [kind, policy] = GetParam();
  CacheRig cr(cache_params(policy));
  auto eng = make_engine(kind, cr.rig.fabric);
  eng->attach_cache(&cr.cache);
  const std::uint32_t bs = eng->block_bytes();

  // lba 5 is patterned to its last byte; lba 6 has a zero second half.
  struct Input {
    std::uint64_t lba;
    std::vector<std::byte> want;
    std::size_t stored;
  };
  std::vector<Input> inputs{{5, pattern_block(5, bs, /*salt=*/11), bs},
                            {6, pattern_block(6, bs, /*salt=*/11), bs / 2}};
  std::fill(inputs[1].want.begin() + bs / 2, inputs[1].want.end(),
            std::byte{0});
  for (const Input& in : inputs) {
    ASSERT_NE(in.want[in.stored - 1], std::byte{0}) << "lba " << in.lba;
    cr.rig.run(write_bytes(eng.get(), 1, in.lba, in.want));
  }
  if (policy == WritePolicy::kWriteBack) cr.rig.run(eng->flush_cache());
  ASSERT_EQ(cr.cache.dirty_blocks(1), 0u);

  for (const Input& in : inputs) {
    SCOPED_TRACE("lba " + std::to_string(in.lba));
    const block::Payload* entry = cr.cache.cache(1).peek(in.lba);
    ASSERT_NE(entry, nullptr);
    ASSERT_FALSE(entry->is_zeros());
    EXPECT_EQ(entry->to_vector(), in.want);
    EXPECT_EQ(entry->stored().size(), in.stored);
    const std::byte* buffer = entry->stored().data();

    std::vector<block::PhysBlock> copies{eng->layout().data_location(in.lba)};
    for (const block::PhysBlock& m : eng->layout().mirror_locations(in.lba)) {
      copies.push_back(m);
    }
    EXPECT_EQ(copies.size(), kind == Kind::kRaid5 ? 1u : 2u);
    for (const block::PhysBlock& pb : copies) {
      const block::Payload stored =
          cr.rig.cluster.disk(pb.disk).read_payload(pb.offset, 1);
      ASSERT_FALSE(stored.is_zeros()) << "disk " << pb.disk;
      EXPECT_EQ(stored.to_vector(), in.want) << "disk " << pb.disk;
      EXPECT_EQ(stored.stored().data(), buffer) << "disk " << pb.disk;
      EXPECT_EQ(stored.stored().size(), in.stored) << "disk " << pb.disk;
    }
    if (kind == Kind::kRaid5) {
      const auto& r5 =
          static_cast<const raid::Raid5Controller&>(*eng).raid5();
      const block::PhysBlock pp = r5.parity_location(r5.stripe_of(in.lba));
      const block::Payload parity =
          cr.rig.cluster.disk(pp.disk).read_payload(pp.offset, 1);
      ASSERT_FALSE(parity.is_zeros());
      EXPECT_NE(parity.stored().data(), buffer);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, CacheSharing,
    ::testing::Combine(::testing::Values(Kind::kRaidX, Kind::kRaid10,
                                         Kind::kRaid5),
                       ::testing::Values(WritePolicy::kWriteThrough,
                                         WritePolicy::kWriteBack)));

sim::Task<> do_write_zeros(raid::ArrayController* eng, int client,
                           std::uint64_t lba) {
  co_await eng->write(client, lba, block::Payload::zeros(eng->block_bytes()));
}

// A pure-timing world (no stored bytes) moves zero-runs; the cache keeps
// them as zero-runs, and every path out of it still reads as zeros.
TEST(CachePureTiming, EntriesStayZeroRuns) {
  cluster::ClusterParams clp = test::small_cluster();
  clp.disk.store_data = false;
  CacheRig cr(cache_params(WritePolicy::kWriteBack), clp);
  raid::RaidxController eng(cr.rig.fabric);
  eng.attach_cache(&cr.cache);
  const std::uint32_t bs = eng.block_bytes();
  const std::uint64_t lba = 5;
  const std::vector<std::byte> zeros(bs, std::byte{0});
  auto zero_run_at = [&](int node) {
    const block::Payload* e = cr.cache.cache(node).peek(lba);
    return e != nullptr && e->is_zeros();
  };

  cr.rig.run(do_write_zeros(&eng, 1, lba));
  ASSERT_TRUE(cr.cache.cache(1).dirty(lba));
  EXPECT_TRUE(zero_run_at(1));

  std::vector<std::byte> got;
  cr.rig.run(do_read(&eng, 1, lba, 1, &got, std::byte{0xAA}));  // local hit
  EXPECT_EQ(cr.cache.stats().hits, 1u);
  EXPECT_EQ(got, zeros);

  cr.rig.run(do_read(&eng, 2, lba, 1, &got, std::byte{0xAA}));  // dirty peer
  EXPECT_EQ(cr.cache.stats().peer_hits, 1u);
  EXPECT_EQ(got, zeros);
  EXPECT_TRUE(zero_run_at(2));

  const auto snap = cr.cache.resnapshot(1, lba);
  ASSERT_TRUE(snap.has_value());
  EXPECT_TRUE(snap->data.is_zeros());
  cr.rig.run(eng.flush_cache());
  EXPECT_EQ(cr.cache.stats().flushes, 1u);
  EXPECT_EQ(cr.cache.dirty_blocks(1), 0u);
  EXPECT_TRUE(zero_run_at(1));

  for (int n = 0; n < cr.rig.cluster.num_nodes(); ++n) cr.cache.drop_node(n);
  cr.rig.run(do_read(&eng, 3, lba, 1, &got, std::byte{0xAA}));  // from disk
  EXPECT_EQ(cr.cache.stats().misses, 1u);
  EXPECT_EQ(got, zeros);
}

// ------------------------------------------------------- degraded mode --

// ------------------------------------------------------- fault handling --

TEST(CacheFaults, DeadHolderIsSkippedAndTheReadFallsBackToDisk) {
  // lba 1 maps to disk 1 (node 1) under RAID-0, so node 3's cached copy is
  // the ONLY thing on node 3 this read depends on: partitioning node 3
  // must divert the read to disk, not hang it on a dead forward.
  CacheRig cr(cache_params(WritePolicy::kWriteThrough, 256,
                           /*cooperative=*/true));
  raid::Raid0Controller eng(cr.rig.fabric);
  eng.attach_cache(&cr.cache);

  cr.rig.run(do_write(&eng, 3, 1, 1, /*salt=*/4));  // clean copy at node 3
  ASSERT_EQ(cr.cache.dirty_blocks(3), 0u);

  cr.rig.cluster.network().set_node_up(3, false);
  std::vector<std::byte> got;
  cr.rig.run(do_read(&eng, 1, 1, 1, &got));
  EXPECT_EQ(got, pattern_run(1, 1, eng.block_bytes(), 4));
  EXPECT_EQ(cr.cache.stats().dead_holder_skips, 1u);
  EXPECT_EQ(cr.cache.stats().peer_hits, 0u);
  EXPECT_EQ(cr.cache.stats().misses, 1u);
}

TEST(CacheFaults, ForwardingPrefersTheNextLiveHolder) {
  CacheRig cr(cache_params(WritePolicy::kWriteThrough, 256,
                           /*cooperative=*/true));
  raid::Raid0Controller eng(cr.rig.fabric);
  eng.attach_cache(&cr.cache);

  cr.rig.run(do_write(&eng, 3, 1, 1, /*salt=*/6));
  std::vector<std::byte> got;
  cr.rig.run(do_read(&eng, 2, 1, 1, &got));  // peer hit: holders now {3, 2}
  ASSERT_EQ(cr.cache.stats().peer_hits, 1u);

  cr.rig.cluster.network().set_node_up(3, false);
  cr.rig.run(do_read(&eng, 1, 1, 1, &got));
  EXPECT_EQ(got, pattern_run(1, 1, eng.block_bytes(), 6));
  // Node 3's copy was skipped, node 2's served -- no disk access needed.
  EXPECT_EQ(cr.cache.stats().dead_holder_skips, 1u);
  EXPECT_EQ(cr.cache.stats().peer_hits, 2u);
  EXPECT_EQ(cr.cache.stats().misses, 0u);
}

TEST(CacheFaults, NodeDownScrubCountsLostDirtyBlocksAndUnwiresTheNode) {
  CacheRig cr(cache_params(WritePolicy::kWriteBack));
  raid::Raid0Controller eng(cr.rig.fabric);
  eng.attach_cache(&cr.cache);
  const std::uint32_t bs = eng.block_bytes();

  // Get salt-1 bytes onto the disks, then overwrite with salt-9 bytes that
  // stay dirty in node 0's memory only.
  cr.rig.run(do_write(&eng, 0, 0, 8, /*salt=*/1));
  cr.rig.run(eng.flush_cache());
  for (int n = 0; n < cr.rig.cluster.num_nodes(); ++n) cr.cache.drop_node(n);
  cr.rig.run(do_write(&eng, 0, 0, 8, /*salt=*/9));
  ASSERT_EQ(cr.cache.dirty_blocks(0), 8u);

  cr.cache.on_node_down(0);
  EXPECT_EQ(cr.cache.stats().dirty_lost, 8u);
  EXPECT_EQ(cr.cache.dirty_blocks(0), 0u);
  EXPECT_FALSE(cr.cache.cache(0).contains(0));

  // The unflushed salt-9 writes died with the node: readers see the disks'
  // salt-1 bytes (write-back semantics, exactly as on real hardware), and
  // nothing hangs on a directory entry pointing at the scrubbed node.
  std::vector<std::byte> got;
  cr.rig.run(do_read(&eng, 1, 0, 8, &got));
  EXPECT_EQ(got, pattern_run(0, 8, bs, 1));
}

TEST(CacheDegraded, DirtyBlocksSurviveFailHealCycle) {
  CacheRig cr(cache_params(WritePolicy::kWriteBack));
  raid::Raid0Controller eng(cr.rig.fabric);
  eng.attach_cache(&cr.cache);
  const std::uint32_t bs = eng.block_bytes();

  cr.rig.run(do_write(&eng, 0, 0, 16, /*salt=*/7));
  ASSERT_EQ(cr.cache.dirty_blocks(0), 16u);

  // A disk dies with every block still dirty in memory.  RAID-0 has no
  // redundancy: without the cache this data would be unreadable.
  cr.rig.cluster.disk(2).fail();
  std::vector<std::byte> got;
  cr.rig.run(do_read(&eng, 0, 0, 16, &got));
  EXPECT_EQ(got, pattern_run(0, 16, bs, 7));

  // Flushing against the dead disk must not lose anything: the flusher
  // gives up on the failed chunk and the cache keeps the only copy dirty.
  cr.rig.run(eng.flush_cache());
  EXPECT_GT(cr.cache.dirty_blocks(0), 0u);
  cr.rig.run(do_read(&eng, 0, 0, 16, &got));
  EXPECT_EQ(got, pattern_run(0, 16, bs, 7));

  // Heal (blank replacement) and drain: every dirty block -- including the
  // ones whose first flush failed -- reaches the disks.
  cr.rig.cluster.disk(2).replace();
  cr.rig.run(eng.flush_cache());
  EXPECT_EQ(cr.cache.dirty_blocks(0), 0u);
  for (int n = 0; n < cr.rig.cluster.num_nodes(); ++n) cr.cache.drop_node(n);
  cr.rig.run(do_read(&eng, 3, 0, 16, &got));
  EXPECT_EQ(got, pattern_run(0, 16, bs, 7));
}

}  // namespace
}  // namespace raidx
