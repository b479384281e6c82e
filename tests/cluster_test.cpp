// Cluster and geometry tests: disk naming, parameter propagation, CPU
// serialization, and the sharded federation.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/sharded.hpp"
#include "obs/collect.hpp"
#include "sim/resource.hpp"
#include "test_util.hpp"

namespace raidx::cluster {
namespace {

TEST(Geometry, DiskIdRoundTrips) {
  for (int n : {2, 4, 7, 16}) {
    for (int k : {1, 2, 3, 5}) {
      block::ArrayGeometry g;
      g.nodes = n;
      g.disks_per_node = k;
      for (int row = 0; row < k; ++row) {
        for (int node = 0; node < n; ++node) {
          const int id = g.disk_id(row, node);
          EXPECT_EQ(g.node_of(id), node);
          EXPECT_EQ(g.row_of(id), row);
          EXPECT_LT(id, g.total_disks());
        }
      }
    }
  }
}

TEST(Geometry, PaperNamingConvention) {
  // D(g*n + j) is the g-th disk of node j; Fig. 3's 4x3 example.
  block::ArrayGeometry g;
  g.nodes = 4;
  g.disks_per_node = 3;
  EXPECT_EQ(g.disk_id(0, 0), 0);   // D0 = row 0, node 0
  EXPECT_EQ(g.disk_id(0, 3), 3);   // D3 = row 0, node 3
  EXPECT_EQ(g.disk_id(1, 0), 4);   // D4 = row 1, node 0
  EXPECT_EQ(g.disk_id(2, 3), 11);  // D11 = row 2, node 3
}

TEST(Geometry, CapacityArithmetic) {
  block::ArrayGeometry g;
  g.nodes = 16;
  g.disks_per_node = 2;
  g.blocks_per_disk = 1000;
  g.block_bytes = 4096;
  EXPECT_EQ(g.total_disks(), 32);
  EXPECT_EQ(g.total_blocks(), 32'000u);
  EXPECT_EQ(g.bytes_per_disk(), 4'096'000u);
}

TEST(Geometry, ValidityChecks) {
  block::ArrayGeometry g;
  EXPECT_TRUE(g.valid());
  g.nodes = 1;
  EXPECT_FALSE(g.valid());
  g.nodes = 4;
  g.disks_per_node = 0;
  EXPECT_FALSE(g.valid());
}

TEST(Cluster, RejectsInvalidGeometry) {
  sim::Simulation sim;
  ClusterParams p = ClusterParams::trojans();
  p.geometry.nodes = 1;
  EXPECT_THROW(Cluster(sim, p), std::invalid_argument);
}

TEST(Cluster, WiresEveryDiskToItsNode) {
  sim::Simulation sim;
  Cluster cluster(sim, ClusterParams::trojans_4x3());
  EXPECT_EQ(cluster.num_nodes(), 4);
  EXPECT_EQ(cluster.total_disks(), 12);
  for (int d = 0; d < 12; ++d) {
    // Each global disk resolves to a live disk object.
    EXPECT_FALSE(cluster.disk(d).failed());
  }
  // The same physical disk is reachable via its node's local index.
  auto& via_global = cluster.disk(cluster.geometry().disk_id(2, 1));
  auto& via_node = cluster.node(1).local_disk(2);
  EXPECT_EQ(&via_global, &via_node);
}

TEST(Cluster, ForcesDiskModelToMatchGeometry) {
  sim::Simulation sim;
  ClusterParams p = ClusterParams::trojans();
  p.geometry.block_bytes = 8192;
  p.geometry.blocks_per_disk = 1234;
  p.disk.block_bytes = 512;       // inconsistent on purpose
  p.disk.total_blocks = 999'999;
  Cluster cluster(sim, p);
  EXPECT_EQ(cluster.disk(0).block_bytes(), 8192u);
  EXPECT_EQ(cluster.disk(0).total_blocks(), 1234u);
}

sim::Task<> burn(Node& node, int times, std::uint64_t bytes) {
  for (int i = 0; i < times; ++i) co_await node.cpu_work(bytes);
}

TEST(Node, CpuSerializesWork) {
  sim::Simulation sim;
  Cluster cluster(sim, test::small_cluster());
  auto& node = cluster.node(0);
  sim.spawn(burn(node, 4, 1000));
  sim.spawn(burn(node, 4, 1000));
  sim.run();
  // 8 ops of (150 us + 60 us) strictly serialized.
  const sim::Time per_op = sim::microseconds(150) +
                           sim::nanoseconds(60 * 1000);
  EXPECT_EQ(sim.now(), 8 * per_op);
  EXPECT_EQ(node.cpu_busy(), sim.now());
}

TEST(Node, ComputeChargesRawTime) {
  sim::Simulation sim;
  Cluster cluster(sim, test::small_cluster());
  auto task = [](Node& n) -> sim::Task<> {
    co_await n.compute(sim::milliseconds(7));
  };
  sim.spawn(task(cluster.node(2)));
  sim.run();
  EXPECT_EQ(sim.now(), sim::milliseconds(7));
}

// --- Frameless CPU charges, event for event --------------------------------
//
// Node::cpu_work and Node::compute are awaitables with no frame of their
// own, and Node::charge is their callback form.  Each must schedule
// exactly what the coroutine they replace did: acquire the CPU, delay()
// for the service time, release.  Each scenario runs the same jobs through
// that reference coroutine on a bare Resource, through a Node's Charge and
// through its charge(), and compares every completion instant and order,
// the event count and the delay() fast resumes.

sim::Task<> reference_charge(sim::Simulation& sim, sim::Resource& cpu,
                             sim::Time t) {
  auto guard = co_await cpu.acquire();
  co_await sim.delay(t);
}

struct Job {
  sim::Time start = 0;
  std::vector<std::uint64_t> charges;  // bytes for cpu_work, else ns
};

/// Node::charge driven from a coroutine: the waiter lives in the frame,
/// and its continuation resumes the coroutine unless charge() ended at
/// once, when the coroutine goes straight on.
struct CallbackCharge : Node::ChargeWaiter {
  CallbackCharge(Node& n, sim::Time t) : n(n), t(t) {}
  Node& n;
  sim::Time t;
  std::coroutine_handle<> caller{};
  bool parked = false;
  bool ended = false;

  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) {
    caller = h;
    n.charge(this, t, [](Node::ChargeWaiter* w) {
      auto* self = static_cast<CallbackCharge*>(w);
      if (self->parked) {
        self->caller.resume();
      } else {
        self->ended = true;
      }
    });
    parked = !ended;
    return parked;
  }
  void await_resume() const noexcept {}
};

struct ChargeRun {
  std::vector<std::pair<int, sim::Time>> done;  // (job, completion)
  std::uint64_t events = 0;
  std::uint64_t fast_resumes = 0;
  bool operator==(const ChargeRun&) const = default;
};

template <typename ChargeFn>
sim::Task<> charge_job(sim::Simulation& sim, ChargeFn charge, int id,
                       const Job* job, ChargeRun* out) {
  if (job->start > 0) co_await sim.delay(job->start);
  for (std::uint64_t c : job->charges) {
    co_await charge(c);
    out->done.emplace_back(id, sim.now());
  }
}

template <typename MakeCharge>
ChargeRun run_jobs(sim::Simulation& sim, MakeCharge charge,
                   const std::vector<Job>& jobs) {
  ChargeRun out;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    sim.spawn(charge_job(sim, charge, static_cast<int>(i), &jobs[i], &out));
  }
  sim.run();
  out.events = sim.events_processed();
  out.fast_resumes = sim.queue_stats().fast_resumes;
  return out;
}

/// The reference and the Node's Charge on the same jobs; `bytes` selects
/// cpu_work (charges are payload bytes) over compute (charges are ns).
/// Node::charge runs the same jobs too and must equal the reference.
std::pair<ChargeRun, ChargeRun> both_charges(const std::vector<Job>& jobs,
                                             bool bytes) {
  const NodeParams params;
  auto service = [&params, bytes](std::uint64_t c) {
    if (!bytes) return static_cast<sim::Time>(c);
    return params.cpu_op_overhead +
           static_cast<sim::Time>(params.cpu_ns_per_byte *
                                  static_cast<double>(c));
  };
  sim::Simulation ref_sim;
  sim::Resource cpu(ref_sim, 1);
  const ChargeRun ref = run_jobs(
      ref_sim,
      [&](std::uint64_t c) {
        return reference_charge(ref_sim, cpu, service(c));
      },
      jobs);

  sim::Simulation node_sim;
  Node node(node_sim, 0, params, disk::BusParams{}, disk::DiskParams{},
            /*num_disks=*/0);
  const ChargeRun got =
      bytes ? run_jobs(node_sim,
                       [&node](std::uint64_t c) { return node.cpu_work(c); },
                       jobs)
            : run_jobs(node_sim,
                       [&node](std::uint64_t c) {
                         return node.compute(static_cast<sim::Time>(c));
                       },
                       jobs);
  EXPECT_EQ(node.cpu_busy(), cpu.busy_time());

  sim::Simulation cb_sim;
  Node cb_node(cb_sim, 0, params, disk::BusParams{}, disk::DiskParams{},
               /*num_disks=*/0);
  const ChargeRun callback = run_jobs(
      cb_sim,
      [&cb_node, &service](std::uint64_t c) {
        return CallbackCharge(cb_node, service(c));
      },
      jobs);
  EXPECT_EQ(callback, ref) << "Node::charge, bytes " << bytes;
  EXPECT_EQ(cb_node.cpu_busy(), cpu.busy_time());
  return {ref, got};
}

TEST(NodeCharge, LoneChargeOnAnEmptyQueueTakesTheFastPath) {
  for (bool bytes : {false, true}) {
    const auto [ref, got] = both_charges({{0, {4096}}}, bytes);
    EXPECT_EQ(got, ref) << "bytes " << bytes;
    EXPECT_EQ(got.done.size(), 1u);
    EXPECT_GT(got.fast_resumes, 0u) << "bytes " << bytes;
  }
}

TEST(NodeCharge, UncontendedChargesMatchTheCoroutine) {
  // Starts far enough apart that no charge ever waits for the CPU.
  const std::vector<Job> jobs = {{0, {1000, 2000}},
                                 {sim::milliseconds(5), {3000}},
                                 {sim::milliseconds(9), {10, 20, 30}}};
  for (bool bytes : {false, true}) {
    const auto [ref, got] = both_charges(jobs, bytes);
    EXPECT_EQ(got, ref) << "bytes " << bytes;
    EXPECT_EQ(got.done.size(), 6u);
  }
}

TEST(NodeCharge, ContendedChargesQueueFifoLikeTheCoroutine) {
  // Everyone arrives at once, and later arrivals land mid-service, so
  // most charges park behind the CPU and run from a grant.
  const std::vector<Job> jobs = {{0, {30000, 10000}},
                                 {0, {5000, 5000, 5000}},
                                 {0, {20000}},
                                 {7000, {1000, 40000}},
                                 {7000, {2500}},
                                 {31000, {100, 100}}};
  for (bool bytes : {false, true}) {
    const auto [ref, got] = both_charges(jobs, bytes);
    EXPECT_EQ(got, ref) << "bytes " << bytes;
    EXPECT_EQ(got.done.size(), 11u);
  }
  // Sanity: with compute() the third job's single charge completes after
  // the first two jobs' first charges, in arrival order.
  const auto [ref, got] = both_charges(jobs, false);
  ASSERT_GE(got.done.size(), 3u);
  EXPECT_EQ(got.done[0], std::make_pair(0, sim::Time{30000}));
  EXPECT_EQ(got.done[1], std::make_pair(1, sim::Time{35000}));
  EXPECT_EQ(got.done[2], std::make_pair(2, sim::Time{55000}));
}

TEST(NodeCharge, ZeroTimeChargesSuspendOnlyToQueue) {
  // A zero-time compute() on an idle CPU completes without suspending; one
  // that finds the CPU busy parks and resumes from its grant.
  const std::vector<Job> jobs = {{0, {0, 0}},
                                 {0, {8000, 0}},
                                 {0, {0}},
                                 {4000, {0, 0}},
                                 {8000, {0}}};
  const auto [ref, got] = both_charges(jobs, false);
  EXPECT_EQ(got, ref);
  EXPECT_EQ(got.done.size(), 8u);
}

TEST(ClusterParams, TrojansDefaultsMatchThePaper) {
  const auto p = ClusterParams::trojans();
  EXPECT_EQ(p.geometry.nodes, 16);
  EXPECT_EQ(p.geometry.disks_per_node, 1);
  EXPECT_EQ(p.geometry.block_bytes, 32'768u);  // the 32 KB stripe unit
  // 16 x 10 GB disks.
  EXPECT_NEAR(static_cast<double>(p.geometry.total_blocks()) *
                  p.geometry.block_bytes,
              16 * 10.74e9, 0.5e9);
  EXPECT_DOUBLE_EQ(p.net.link_mbs, 12.5);  // 100 Mbps Fast Ethernet
}

// --- Sharded federation (src/cluster/sharded) -------------------------------

// The same deterministic burst engine_test's round trips use: disjoint
// writes then reads through the controller, all on one shard's sub-world.
sim::Task<> local_burst(sim::Simulation* sim, raid::ArrayController* eng,
                        int ops) {
  const std::uint32_t bs = eng->block_bytes();
  std::vector<std::byte> got;
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t lba = static_cast<std::uint64_t>(i) * 8;
    co_await eng->write(i % 4, lba, test::pattern_run(lba, 8, bs));
    got.assign(8 * bs, std::byte{0});
    co_await eng->read((i + 1) % 4, lba, 8, got);
    co_await sim->delay(sim::microseconds(50));
  }
}

sim::Task<> remote_burst(ShardedCluster* world, int src, int dst, int ops) {
  for (int i = 0; i < ops; ++i) {
    const bool ok = co_await world->remote_io(src, dst, (i % 2) == 0,
                                              static_cast<std::uint64_t>(i) * 4,
                                              2);
    EXPECT_TRUE(ok);
  }
}

TEST(ShardedCluster, SingleShardMatchesPlainWorld) {
  const ClusterParams params = test::small_cluster();
  // The plain world, constructed member-for-member like a Shard.
  obs::Hub plain_hub;
  sim::Simulation plain_sim;
  Cluster plain_cluster(plain_sim, params);
  cdd::CddFabric plain_fabric(plain_cluster, {});
  cache::CacheFabric plain_cache(plain_cluster, {});
  auto plain_engine =
      workload::make_engine(workload::Arch::kRaidX, plain_fabric, {});
  plain_engine->attach_cache(&plain_cache);
  plain_sim.set_hub(&plain_hub);
  plain_sim.spawn(local_burst(&plain_sim, plain_engine.get(), 16));
  plain_sim.run();
  obs::collect_cluster(plain_hub.registry(), plain_cluster, &plain_fabric,
                       &plain_cache);

  ShardedParams sp;
  sp.shards = 1;
  ShardedCluster world(params, sp);
  {
    auto scope = world.group().frame_scope(0);
    world.sim(0).spawn(local_burst(&world.sim(0), &world.engine(0), 16));
  }
  world.run(1);
  ShardedCluster::Shard& sh = world.shard(0);
  obs::collect_cluster(sh.hub.registry(), *sh.cluster, sh.fabric.get(),
                       sh.cache.get());

  // Byte-for-byte: same events, same clocks, same counters.
  EXPECT_EQ(plain_sim.now(), world.sim(0).now());
  EXPECT_EQ(plain_hub.registry().snapshot_json(),
            sh.hub.registry().snapshot_json());
}

std::string run_federation(int threads) {
  ShardedParams sp;
  sp.shards = 2;
  ShardedCluster world(test::small_cluster(), sp);
  for (int s = 0; s < 2; ++s) {
    auto scope = world.group().frame_scope(s);
    world.sim(s).spawn(local_burst(&world.sim(s), &world.engine(s), 12));
    world.sim(s).spawn(remote_burst(&world, s, 1 - s, 6));
  }
  world.run(threads);
  return world.merged_snapshot_json();
}

TEST(ShardedCluster, MergedSnapshotDeterministicAndThreadInvariant) {
  const std::string serial = run_federation(1);
  const std::string repeat = run_federation(1);
  const std::string parallel = run_federation(2);
  EXPECT_EQ(serial, repeat);
  EXPECT_EQ(serial, parallel);
  // The merge actually carried both shards and the federation counters.
  EXPECT_NE(serial.find("shard.000."), std::string::npos);
  EXPECT_NE(serial.find("shard.001."), std::string::npos);
  EXPECT_NE(serial.find("\"remote.sent\":12"), std::string::npos);
  EXPECT_NE(serial.find("\"remote.served\":12"), std::string::npos);
  EXPECT_NE(serial.find("sim.shard.windows"), std::string::npos);
}

TEST(ShardedCluster, FaultPlanPartitionsAcrossGroups) {
  ShardedParams sp;
  sp.shards = 2;
  ShardedCluster world(test::small_cluster(4, 1, /*blocks_per_disk=*/240),
                       sp);
  // One failure per group, in federation-global disk ids: disk 1 lands in
  // group 0, disk (dps + 2) in group 1.
  ha::FaultPlan plan;
  plan.add({ha::FaultEvent::Kind::kFailDisk, 1, 0, sim::milliseconds(5)});
  plan.add({ha::FaultEvent::Kind::kFailDisk, world.disks_per_shard() + 2, 0,
            sim::milliseconds(8)});
  ha::HaParams hp;
  hp.probe_interval = sim::milliseconds(5);
  hp.probe_timeout = sim::milliseconds(2);
  hp.spare_swap_time = sim::milliseconds(10);
  hp.global_spares = 1;
  world.arm_faults(plan, &hp);
  for (int s = 0; s < 2; ++s) {
    auto scope = world.group().frame_scope(s);
    world.sim(s).spawn(local_burst(&world.sim(s), &world.engine(s), 24));
  }
  world.run(2);
  // Each group's orchestrator saw exactly its own slice of the plan and
  // carried the full lifecycle: detect, fail over, rebuild.
  for (int s = 0; s < 2; ++s) {
    const ha::HaStats& st = world.shard(s).orchestrator->stats();
    EXPECT_EQ(st.detections, 1u) << "shard " << s;
    EXPECT_EQ(st.rebuilds_failed, 0u) << "shard " << s;
  }
}

// Each group is a full World: a corruption plan written in global ids is
// split across the groups' integrity planes, every group sees exactly its
// own slice in local ids, and each plane's scrubber detects and repairs
// every error its slice injected.
TEST(ShardedCluster, CorruptionPlanSplitsAcrossIntegrityPlanes) {
  ShardedParams sp;
  sp.shards = 2;
  sp.arch = workload::Arch::kRaid5;
  ShardedCluster world(test::small_cluster(4, 1, /*blocks_per_disk=*/240),
                       sp);
  const int dps = world.disks_per_shard();
  const ha::FaultPlan plan = ha::FaultPlan::parse(
      "corrupt:disk=1,block=5@1ms;corrupt:disk=6,block=9@2ms;"
      "rot:seed=3,errors=6,window=20ms",
      world.total_disks(), 240);
  integrity::IntegrityParams ip;
  ip.verify_reads = true;
  ip.scrub = true;
  world.arm_faults(plan, nullptr, &ip);
  world.run(2);

  for (int s = 0; s < 2; ++s) {
    std::vector<ha::FaultEvent> mine;
    for (ha::FaultEvent ev : plan.events()) {
      if (ev.target / dps != s) continue;
      ev.target %= dps;
      mine.push_back(ev);
    }
    ASSERT_FALSE(mine.empty()) << "shard " << s;
    const std::vector<ha::FaultEvent>& got = world.shard(s).faults.events();
    ASSERT_EQ(got.size(), mine.size()) << "shard " << s;
    for (const ha::FaultEvent& ev : mine) {
      EXPECT_NE(std::find_if(got.begin(), got.end(),
                             [&](const ha::FaultEvent& g) {
                               return g.target == ev.target &&
                                      g.block == ev.block && g.at == ev.at;
                             }),
                got.end())
          << "shard " << s << " lost disk " << ev.target << " block "
          << ev.block;
    }
    const integrity::IntegrityPlane& plane = *world.shard(s).plane;
    const integrity::IntegrityStats& st = plane.stats();
    EXPECT_EQ(st.injected, mine.size()) << "shard " << s;
    EXPECT_EQ(st.detected, st.injected) << "shard " << s;
    EXPECT_EQ(st.repaired, st.injected) << "shard " << s;
    EXPECT_EQ(st.unrecoverable, 0u) << "shard " << s;
    EXPECT_EQ(plane.undetected(), 0u) << "shard " << s;
  }
}

// The open-loop entry sends an op to the ring neighbour, (src + 1) % S,
// and wraps a popularity slot past the neighbour's span back into its
// logical space: unwrapped, the read would run past the array's end and
// fail at the far end.
TEST(ShardedCluster, RemoteSlotWrapsOntoTheRingNeighbour) {
  ShardedParams sp;
  sp.shards = 3;
  ShardedCluster world(test::small_cluster(), sp);
  const std::uint64_t span = world.engine(0).logical_blocks() / 2;
  auto op = [](ShardedCluster* w, std::uint64_t slot,
               bool* ok) -> sim::Task<> {
    *ok = co_await w->remote_io(2, slot, 2u, /*write=*/false);
  };
  bool ok = false;
  {
    auto scope = world.group().frame_scope(2);
    world.sim(2).spawn(op(&world, span + 5, &ok));
  }
  world.run(1);
  EXPECT_TRUE(ok);
  EXPECT_EQ(world.shard(2).remote_sent, 1u);
  EXPECT_EQ(world.shard(0).remote_served, 1u);
  EXPECT_EQ(world.shard(0).remote_failed, 0u);
  EXPECT_EQ(world.shard(1).remote_served, 0u);
}

TEST(ShardedCluster, RejectsFaultOutsideFederation) {
  ShardedParams sp;
  sp.shards = 2;
  ShardedCluster world(test::small_cluster(), sp);
  ha::FaultPlan plan;
  plan.add({ha::FaultEvent::Kind::kFailDisk, world.total_disks() + 3, 0,
            sim::milliseconds(1)});
  EXPECT_THROW(world.arm_faults(plan, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace raidx::cluster
