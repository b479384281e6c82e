// Tests for the cooperative disk drivers: request routing, device
// masquerading, failure replies, and the distributed lock-group table.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "cdd/cdd.hpp"
#include "cdd/lock_table.hpp"
#include "test_util.hpp"

namespace raidx::cdd {
namespace {

using test::kInstrumentedFrames;
using test::Rig;

sim::Task<> roundtrip(CddFabric& fabric, int client, int disk,
                      std::uint64_t offset, std::vector<std::byte> data,
                      std::vector<std::byte>* back) {
  const auto n = static_cast<std::uint32_t>(
      data.size() / fabric.cluster().geometry().block_bytes);
  Reply w = co_await fabric.write(client, disk, offset,
                                  block::Payload(std::move(data)));
  EXPECT_TRUE(w.ok);
  Reply r = co_await fabric.read(client, disk, offset, n);
  EXPECT_TRUE(r.ok);
  *back = r.data.to_vector();
}

TEST(CddFabric, LocalRequestsBypassTheNetwork) {
  Rig rig(test::small_cluster());
  const std::uint32_t bs = rig.cluster.geometry().block_bytes;
  std::vector<std::byte> back;
  // Disk 1 is attached to node 1: a node-1 client is local.
  rig.run(roundtrip(rig.fabric, 1, 1, 5, test::pattern_run(0, 2, bs),
                    &back));
  EXPECT_EQ(back, test::pattern_run(0, 2, bs));
  EXPECT_EQ(rig.fabric.remote_requests(), 0u);
  EXPECT_EQ(rig.fabric.local_requests(), 2u);
  EXPECT_EQ(rig.cluster.network().bytes_sent(1), 0u);
}

TEST(CddFabric, RemoteRequestsCrossTheNetworkAndMasquerade) {
  Rig rig(test::small_cluster());
  const std::uint32_t bs = rig.cluster.geometry().block_bytes;
  std::vector<std::byte> back;
  // Node 0 addresses disk 3 exactly like a local disk.
  rig.run(roundtrip(rig.fabric, 0, 3, 9, test::pattern_run(3, 1, bs),
                    &back));
  EXPECT_EQ(back, test::pattern_run(3, 1, bs));
  EXPECT_EQ(rig.fabric.remote_requests(), 2u);
  EXPECT_GT(rig.cluster.network().bytes_sent(0), 0u);
  EXPECT_GT(rig.cluster.network().bytes_sent(3), 0u);  // reply path
}

TEST(CddFabric, RemoteIsSlowerThanLocalButComparable) {
  // Paper requirement (iii): remote and local disk I/O with comparable
  // latency -- same order of magnitude, not a syscall-storm apart.
  const std::uint32_t bs = 32'768;
  auto params = test::small_cluster(4, 1, 600, bs);

  Rig local_rig(params);
  sim::Time local_done = 0;
  auto timed = [](CddFabric& f, int client, int disk,
                  sim::Time* done) -> sim::Task<> {
    co_await f.read(client, disk, 0, 1);
    *done = f.cluster().sim().now();
  };
  local_rig.run(timed(local_rig.fabric, 1, 1, &local_done));

  Rig remote_rig(params);
  sim::Time remote_done = 0;
  remote_rig.run(timed(remote_rig.fabric, 0, 1, &remote_done));

  EXPECT_LT(local_done, remote_done);
  // "Comparable": a handful of milliseconds of protocol and wire time,
  // not the orders of magnitude a cross-space syscall chain would add.
  EXPECT_LT(remote_done, 6 * local_done);
}

TEST(CddFabric, FailedDiskRepliesNotOk) {
  Rig rig(test::small_cluster());
  rig.cluster.disk(2).fail();
  auto probe = [](CddFabric& f, bool* read_ok, bool* write_ok)
      -> sim::Task<> {
    Reply r = co_await f.read(0, 2, 0, 1);
    *read_ok = r.ok;
    Reply w = co_await f.write(
        0, 2, 0, block::Payload::zeros(f.cluster().geometry().block_bytes));
    *write_ok = w.ok;
  };
  bool read_ok = true, write_ok = true;
  rig.run(probe(rig.fabric, &read_ok, &write_ok));
  EXPECT_FALSE(read_ok);
  EXPECT_FALSE(write_ok);
}

TEST(CddFabric, RebuildWatermarkGatesReads) {
  // During a rebuild sweep, blocks above the watermark are not readable
  // (they would return stale/blank data); blocks below are.  Writes pass
  // regardless -- they carry current data.
  Rig rig(test::small_cluster());
  auto& d = rig.cluster.disk(2);
  d.begin_rebuild();
  d.advance_rebuild(10);
  auto probe = [](CddFabric& f, std::uint64_t off, bool* ok) -> sim::Task<> {
    Reply r = co_await f.read(0, 2, off, 1);
    *ok = r.ok;
  };
  bool below = false, above = true, write_ok = false;
  rig.run(probe(rig.fabric, 5, &below));
  rig.run(probe(rig.fabric, 15, &above));
  auto wprobe = [](CddFabric& f, bool* ok) -> sim::Task<> {
    Reply r = co_await f.write(
        0, 2, 15,
        block::Payload::zeros(f.cluster().geometry().block_bytes));
    *ok = r.ok;
  };
  rig.run(wprobe(rig.fabric, &write_ok));
  EXPECT_TRUE(below);
  EXPECT_FALSE(above);
  EXPECT_TRUE(write_ok);
  d.finish_rebuild();
  bool after = false;
  rig.run(probe(rig.fabric, 15, &after));
  EXPECT_TRUE(after);
}

TEST(CddFabric, ServesConcurrentClientsOnAllNodes) {
  Rig rig(test::small_cluster());
  const std::uint32_t bs = rig.cluster.geometry().block_bytes;
  std::vector<std::vector<std::byte>> got(4);
  for (int c = 0; c < 4; ++c) {
    rig.sim.spawn(roundtrip(rig.fabric, c, (c + 2) % 4,
                            static_cast<std::uint64_t>(10 + c),
                            test::pattern_run(static_cast<std::uint64_t>(c),
                                              1, bs,
                                              static_cast<std::uint8_t>(c)),
                            &got[static_cast<std::size_t>(c)]));
  }
  rig.sim.run();
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(got[static_cast<std::size_t>(c)],
              test::pattern_run(static_cast<std::uint64_t>(c), 1, bs,
                                static_cast<std::uint8_t>(c)));
  }
  for (int n = 0; n < 4; ++n) {
    EXPECT_GT(rig.fabric.service(n).requests_served(), 0u);
  }
}

// ---- lock-group table -------------------------------------------------------

TEST(LockTable, GrantsAndReleases) {
  sim::Simulation sim;
  LockGroupTable t(sim);
  auto acquire = [](LockGroupTable& tbl, std::uint64_t g,
                    std::uint64_t owner) -> sim::Task<> {
    co_await tbl.acquire(g, owner);
  };
  sim.spawn(acquire(t, 7, 1));
  sim.run();
  EXPECT_TRUE(t.held(7));
  EXPECT_EQ(t.owner(7), 1u);
  t.release(7, 1);
  EXPECT_FALSE(t.held(7));
  EXPECT_EQ(t.records(), 0u);
}

TEST(LockTable, WaitersServedFifo) {
  sim::Simulation sim;
  LockGroupTable t(sim);
  std::vector<std::uint64_t> grant_order;
  auto contend = [](LockGroupTable& tbl, std::uint64_t owner,
                    std::vector<std::uint64_t>* order,
                    sim::Simulation& s) -> sim::Task<> {
    co_await tbl.acquire(42, owner);
    order->push_back(owner);
    co_await s.delay(sim::milliseconds(1));
    tbl.release(42, owner);
  };
  for (std::uint64_t o = 1; o <= 4; ++o) {
    sim.spawn(contend(t, o, &grant_order, sim));
  }
  sim.run();
  EXPECT_EQ(grant_order, (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST(LockTable, TracksWaiterCount) {
  sim::Simulation sim;
  LockGroupTable t(sim);
  auto hold = [](LockGroupTable& tbl, std::uint64_t owner,
                 sim::Simulation& s) -> sim::Task<> {
    co_await tbl.acquire(1, owner);
    co_await s.delay(sim::milliseconds(10));
    tbl.release(1, owner);
  };
  sim.spawn(hold(t, 1, sim));
  sim.spawn(hold(t, 2, sim));
  sim.spawn(hold(t, 3, sim));
  sim.run_until(sim::milliseconds(5));
  EXPECT_EQ(t.owner(1), 1u);
  EXPECT_EQ(t.waiters(1), 2u);
  sim.run();
  EXPECT_FALSE(t.held(1));
}

// ---- distributed locking through the fabric --------------------------------

sim::Task<> lock_unlock(CddFabric& f, int client,
                        std::vector<std::uint64_t> groups,
                        std::uint64_t owner, std::vector<int>* order,
                        int id, sim::Simulation& sim) {
  co_await f.lock_groups(client, groups, owner);
  order->push_back(id);
  co_await sim.delay(sim::milliseconds(2));
  co_await f.unlock_groups(client, std::move(groups), owner);
}

TEST(DistributedLocks, OverlappingRangesSerialize) {
  Rig rig(test::small_cluster());
  std::vector<int> order;
  rig.sim.spawn(lock_unlock(rig.fabric, 0, {1, 2, 3}, 100, &order, 0,
                            rig.sim));
  rig.sim.spawn(lock_unlock(rig.fabric, 1, {3, 4, 5}, 200, &order, 1,
                            rig.sim));
  rig.sim.run();
  ASSERT_EQ(order.size(), 2u);  // both eventually granted: no deadlock
}

TEST(DistributedLocks, InterleavedRangesDoNotDeadlock) {
  // The classic deadlock shape: A wants {1, 18}, B wants {2, 17} -- homes
  // interleave (group % 4).  The global (home, group) order prevents it.
  Rig rig(test::small_cluster());
  std::vector<int> order;
  rig.sim.spawn(lock_unlock(rig.fabric, 0, {1, 18}, 100, &order, 0,
                            rig.sim));
  rig.sim.spawn(lock_unlock(rig.fabric, 1, {2, 17}, 200, &order, 1,
                            rig.sim));
  rig.sim.spawn(lock_unlock(rig.fabric, 2, {1, 2, 17, 18}, 300, &order, 2,
                            rig.sim));
  rig.sim.run();
  EXPECT_EQ(order.size(), 3u);
}

TEST(DistributedLocks, SameNodeWritersExcludeEachOther) {
  // Two logical writers on ONE node must still serialize: lock owners are
  // requester tokens, not node ids.
  Rig rig(test::small_cluster());
  std::vector<int> order;
  rig.sim.spawn(lock_unlock(rig.fabric, 0, {5}, 100, &order, 0, rig.sim));
  rig.sim.spawn(lock_unlock(rig.fabric, 0, {5}, 200, &order, 1, rig.sim));
  rig.sim.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
}

std::vector<std::uint64_t> replica_updates(CddFabric& f) {
  std::vector<std::uint64_t> out;
  for (int n = 0; n < f.cluster().num_nodes(); ++n) {
    out.push_back(f.service(n).lock_table().replica_updates());
  }
  return out;
}

TEST(DistributedLocks, ReplicationPropagatesToAllPeers) {
  Rig rig(test::small_cluster());
  auto hold = [](CddFabric& f) -> sim::Task<> {
    std::vector<std::uint64_t> groups = {8};
    co_await f.lock_groups(0, std::move(groups), 77);
    // Hold; replication is asynchronous and drains with the sim.
  };
  rig.run(hold(rig.fabric));
  // Group 8's home is node 0 (8 % 4); every *other* consistency module
  // applies the grant's sync exactly once, and the home none.
  ASSERT_EQ(rig.fabric.lock_home(8), 0);
  EXPECT_EQ(replica_updates(rig.fabric),
            (std::vector<std::uint64_t>{0, 1, 1, 1}));
}

TEST(DistributedLocks, EachGrantAndReleaseReachesEveryPeerOnce) {
  // A record of three groups homed on node 1 and one homed on node 2:
  // each grant and each release is one sync to every peer of its home.
  Rig rig(test::small_cluster());
  auto cycle = [](CddFabric& f) -> sim::Task<> {
    std::vector<std::uint64_t> groups = {1, 5, 6, 9};
    co_await f.lock_groups(0, groups, 12);
    co_await f.unlock_groups(0, std::move(groups), 12);
  };
  rig.run(cycle(rig.fabric));
  // Node 1 hears node 2's grant and release; node 2 hears node 1's three
  // of each; nodes 0 and 3 hear all eight.
  EXPECT_EQ(replica_updates(rig.fabric),
            (std::vector<std::uint64_t>{8, 2, 6, 8}));
  EXPECT_EQ(rig.fabric.service(1).lock_table().records(), 0u);
  EXPECT_EQ(rig.fabric.service(2).lock_table().records(), 0u);
}

TEST(DistributedLocks, PartitionedPeersMissTheirSyncs) {
  // Node 3 is cut off from the switch: the home's sync to it pays its TX
  // serialization and is dropped; the other peers still get theirs.
  Rig rig(test::small_cluster());
  rig.cluster.network().set_node_up(3, false);
  auto cycle = [](CddFabric& f) -> sim::Task<> {
    std::vector<std::uint64_t> groups = {5};
    co_await f.lock_groups(1, groups, 4);
    co_await f.unlock_groups(1, std::move(groups), 4);
  };
  rig.run(cycle(rig.fabric));
  EXPECT_EQ(replica_updates(rig.fabric),
            (std::vector<std::uint64_t>{2, 0, 2, 0}));
  EXPECT_EQ(rig.cluster.network().messages_dropped(), 2u);
}

TEST(DistributedLocks, LockTrafficCanBeDisabledForAblation) {
  cdd::CddParams p;
  p.replicate_lock_table = false;
  Rig rig(test::small_cluster(), p);
  auto cycle = [](CddFabric& f) -> sim::Task<> {
    std::vector<std::uint64_t> groups = {3};
    co_await f.lock_groups(1, groups, 9);
    co_await f.unlock_groups(1, std::move(groups), 9);
  };
  rig.run(cycle(rig.fabric));
  EXPECT_EQ(replica_updates(rig.fabric),
            (std::vector<std::uint64_t>{0, 0, 0, 0}));
  // No sync leaves the home: the wire carries the lock and unlock RPCs
  // and their replies, nothing else.
  EXPECT_EQ(rig.fabric.sync_records(), 0u);
  EXPECT_EQ(rig.cluster.network().messages_sent(1), 2u);
  EXPECT_EQ(rig.cluster.network().messages_sent(3), 2u);
  EXPECT_EQ(rig.cluster.network().messages_sent(0) +
                rig.cluster.network().messages_sent(2),
            0u);
}

// ---- server contract and frame footprint -----------------------------------

std::map<std::string, std::int64_t> tags_of(const obs::SpanRecord& s) {
  std::map<std::string, std::int64_t> out;
  for (std::uint8_t i = 0; i < s.args.n; ++i) {
    out[s.args.tags[i].key] = s.args.tags[i].value;
  }
  return out;
}

sim::Task<> serve_one_of_each(CddFabric& f, int* ok) {
  const std::uint32_t bs = f.cluster().geometry().block_bytes;
  Reply r = co_await f.read(0, 1, 5, 1);
  Reply w = co_await f.write(0, 2, 5, block::Payload::zeros(bs));
  const std::vector<std::uint64_t> group = {3};
  co_await f.lock_groups(0, group, 41);
  co_await f.unlock_groups(0, group, 41);
  Reply p = co_await f.probe(0, 1, 1);
  *ok = r.ok + w.ok + p.ok;
}

TEST(CddServer, EachDeliveredRequestGetsOneServerSpan) {
  obs::Hub hub;
  hub.tracing = true;
  Rig rig(test::small_cluster());
  rig.sim.set_hub(&hub);
  int ok = 0;
  rig.run(serve_one_of_each(rig.fabric, &ok));
  EXPECT_EQ(ok, 3);
  const int nodes = rig.cluster.num_nodes();

  // Disk d sits on node d; group 3's home is node 3.
  using Tags = std::map<std::string, std::int64_t>;
  const std::map<std::string, std::pair<int, Tags>> want = {
      {"cdd.serve.read", {1, {{"node", 1}, {"disk", 1}}}},
      {"cdd.serve.write", {2, {{"node", 2}, {"disk", 2}}}},
      {"cdd.serve.lock", {3, {{"node", 3}, {"groups", 1}}}},
      {"cdd.serve.unlock", {3, {{"node", 3}, {"groups", 1}}}},
      {"cdd.serve.probe", {1, {{"node", 1}, {"disk", 1}}}},
  };
  std::map<std::string, int> seen;
  std::map<int, int> syncs_at;
  for (const obs::SpanRecord& s : hub.tracer().spans()) {
    const std::string name = s.name;
    if (name.rfind("cdd.serve.", 0) != 0) {
      EXPECT_NE(s.track, obs::Track::kServer) << name;
      continue;
    }
    ++seen[name];
    EXPECT_EQ(s.track, obs::Track::kServer) << name;
    EXPECT_GE(s.end, s.begin) << name;
    EXPECT_NE(s.trace, 0u) << name;
    if (name == "cdd.serve.locksync") {
      ++syncs_at[s.idx];
      EXPECT_EQ(tags_of(s), (Tags{{"node", s.idx}})) << name;
      continue;
    }
    auto it = want.find(name);
    ASSERT_NE(it, want.end()) << name;
    EXPECT_EQ(s.idx, it->second.first) << name;
    EXPECT_EQ(tags_of(s), it->second.second) << name;
  }
  for (const auto& entry : want) {
    EXPECT_EQ(seen[entry.first], 1) << entry.first;
  }
  // The grant and the release each reach every peer of the home node.
  EXPECT_EQ(seen["cdd.serve.locksync"], 2 * (nodes - 1));
  EXPECT_EQ(syncs_at, (std::map<int, int>{{0, 2}, {1, 2}, {2, 2}}));

  std::uint64_t served = 0;
  std::uint64_t syncs_applied = 0;
  for (int n = 0; n < nodes; ++n) {
    served += rig.fabric.service(n).requests_served();
    syncs_applied += rig.fabric.service(n).lock_table().replica_updates();
  }
  EXPECT_EQ(served, 5u + 2u * static_cast<std::uint64_t>(nodes - 1));
  EXPECT_EQ(served, rig.fabric.remote_requests() +
                        rig.fabric.local_requests() + syncs_applied);
}

TEST(CddFootprint, QueuedLockSyncsHoldSmallFrames) {
  // Every update is posted at t=0, so all of them wait for node 1's CPU at
  // once; after the drain the pool's free lists hold the high-water of
  // their frames, and the fabric's sync records the high-water of theirs.
  constexpr std::uint64_t kSyncs = 256;
  Rig rig(test::small_cluster());
  for (std::uint64_t g = 0; g < kSyncs; ++g) {
    Request sync;
    sync.op = Request::Op::kLockSync;
    sync.from = 0;
    rig.fabric.service(1).mailbox().send(std::move(sync));
  }
  rig.sim.run();
  EXPECT_EQ(rig.fabric.service(1).lock_table().replica_updates(), kSyncs);
  EXPECT_EQ(replica_updates(rig.fabric),
            (std::vector<std::uint64_t>{0, kSyncs, 0, 0}));
  EXPECT_EQ(rig.fabric.service(1).requests_served(), kSyncs);
  // One record per queued sync, none for the syncs a node never got.
  EXPECT_EQ(rig.fabric.sync_records(), kSyncs);
  if (kInstrumentedFrames) GTEST_SKIP() << "frames grow under sanitizers";
  EXPECT_EQ(rig.sim.frame_pool_stats().pooled_bytes / kSyncs, 0u);
}

TEST(CddFootprint, AbandonEndsLockSyncsInFlight) {
  // Eight syncs queue for node 1's CPU, and a grant homed on node 2 fans
  // out over the wire; the run is abandoned with one sync holding the CPU,
  // the rest parked behind it and the fan-out's messages in flight.  Each
  // sync's span closes at abandon(), while the hub lives, as the frames
  // syncs once were closed theirs -- so a hub that dies before the fabric
  // (a sharded world's does) is never reached from a record.
  auto hub = std::make_unique<obs::Hub>();
  hub->tracing = true;
  Rig rig(test::small_cluster());
  rig.sim.set_hub(hub.get());
  for (int i = 0; i < 8; ++i) {
    Request sync;
    sync.op = Request::Op::kLockSync;
    sync.from = 0;
    rig.fabric.service(1).mailbox().send(std::move(sync));
  }
  std::vector<int> order;
  rig.sim.spawn(lock_unlock(rig.fabric, 2, {6}, 100, &order, 0, rig.sim));
  rig.sim.run_until(sim::microseconds(700));
  const std::uint64_t applied =
      rig.fabric.service(1).lock_table().replica_updates();
  EXPECT_GT(applied, 0u);
  EXPECT_LT(applied, 8u);
  rig.sim.abandon();
  int syncs = 0;
  for (const obs::SpanRecord& s : hub->tracer().spans()) {
    const std::string name = s.name;
    if (name == "cdd.serve.locksync" || name == "cdd.replicate") ++syncs;
    EXPECT_GE(s.end, s.begin) << name;
  }
  EXPECT_GT(syncs, static_cast<int>(applied));
  EXPECT_EQ(rig.fabric.service(1).lock_table().replica_updates(), applied);
  rig.sim.set_hub(nullptr);
  hub.reset();
}

sim::Task<> remote_read(CddFabric& f, std::uint64_t offset, int* ok) {
  Reply r = co_await f.read(0, 1, offset, 1);
  if (r.ok) ++*ok;
}

TEST(CddFootprint, RemoteReadsInFlightHoldSmallFrames) {
  // All reads start at t=0 and queue for node 0's CPU, so all of them are
  // in flight at once.
  constexpr std::uint64_t kReads = 256;
  Rig rig(test::small_cluster());
  int ok = 0;
  for (std::uint64_t i = 0; i < kReads; ++i) {
    rig.sim.spawn(remote_read(rig.fabric, i, &ok));
  }
  rig.sim.run();
  EXPECT_EQ(ok, static_cast<int>(kReads));
  EXPECT_EQ(rig.fabric.remote_requests(), kReads);
  if (kInstrumentedFrames) GTEST_SKIP() << "frames grow under sanitizers";
  EXPECT_LE(rig.sim.frame_pool_stats().pooled_bytes / kReads, 2100u);
}

}  // namespace
}  // namespace raidx::cdd
