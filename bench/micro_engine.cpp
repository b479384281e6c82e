// Google-benchmark micro benchmarks of the simulator substrate itself:
// event-queue throughput, coroutine scheduling, resource contention, and
// layout address arithmetic.  These bound how big a cluster experiment the
// harness can run per wall-clock second.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <vector>

#include "block/sios.hpp"
#include "raid/raid0.hpp"
#include "raid/raid10.hpp"
#include "raid/raid5.hpp"
#include "raid/raidx.hpp"
#include "sim/event_queue.hpp"
#include "sim/resource.hpp"
#include "sim/shard.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace {

using namespace raidx;

void BM_EventQueueScheduleDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    int sink = 0;
    for (int i = 0; i < 1024; ++i) {
      sim.schedule(i, [&sink] { ++sink; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleDispatch);

sim::Task<> hop(sim::Simulation& sim, int hops) {
  for (int i = 0; i < hops; ++i) co_await sim.delay(1);
}

void BM_CoroutineDelayHops(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    sim.spawn(hop(sim, 1024));
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_CoroutineDelayHops);

sim::Task<> contender(sim::Simulation& sim, sim::Resource& r, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    auto g = co_await r.acquire();
    co_await sim.delay(1);
  }
}

void BM_ResourceContention(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    sim::Resource r(sim, 1);
    for (int c = 0; c < 8; ++c) sim.spawn(contender(sim, r, 64));
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 8 * 64);
}
BENCHMARK(BM_ResourceContention);

// Far-future timers, 2^48 ns out and spread over 20 powers of two: the
// heap orders them like any other event, so the cost is the same as for
// near timers at the same queue depth -- there is no horizon to cross.
void BM_FarFutureInsert(benchmark::State& state) {
  constexpr std::int64_t kHorizon = std::int64_t{1} << 48;
  for (auto _ : state) {
    sim::Simulation sim;
    int sink = 0;
    for (int i = 0; i < 1024; ++i) {
      sim.schedule(kHorizon + (std::int64_t{1} << (i % 20)),
                   [&sink] { ++sink; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_FarFutureInsert);

// Every event lands on one future timestamp: the burst waits in the heap,
// 1024 deep, and must drain in exact insertion order (ties on `at` fall
// to seq).  Deeper than any cluster workload keeps its queue.
void BM_EqualTimestampBurst(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    int sink = 0;
    for (int i = 0; i < 1024; ++i) {
      sim.schedule(1000, [&sink] { ++sink; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EqualTimestampBurst);

// Deep wait lists: 64 processes pile onto one resource, so every release
// pops a waiter and every acquire parks one (intrusive list churn).
void BM_WaiterChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    sim::Resource r(sim, 1);
    for (int c = 0; c < 64; ++c) sim.spawn(contender(sim, r, 16));
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 64 * 16);
}
BENCHMARK(BM_WaiterChurn);

sim::Task<> shard_load(sim::Simulation& s, int events) {
  for (int i = 0; i < events; ++i) co_await s.delay(100);
}

// Windowed multi-shard dispatch: 4 shards x 1024 events at a 100 ns
// cadence under a 10 us lookahead (~100 events per shard per window), so
// the row prices window setup + census + parallel drain, not just the
// per-event dispatch the single-queue rows above already cover.  Arg is
// the worker count; Arg(1) isolates the synchronizer overhead itself.
void BM_ShardedDispatch(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::ShardGroup group(4, sim::microseconds(10));
    for (int s = 0; s < 4; ++s) {
      auto scope = group.frame_scope(s);
      group.sim(s).spawn(shard_load(group.sim(s), 1024));
    }
    group.run(threads);
  }
  state.SetItemsProcessed(state.iterations() * 4 * 1024);
}
BENCHMARK(BM_ShardedDispatch)->Arg(1)->Arg(2)->Arg(4);

// Cross-shard mailbox round trips: one message in flight ping-ponging
// between two shards, every hop paying a full window (census, barrier,
// mailbox merge, delivery).  This is the per-hop latency floor a remote
// I/O pays on top of the simulated network time.
void BM_CrossShardHop(benchmark::State& state) {
  constexpr int kHops = 1024;
  const sim::Time lookahead = sim::microseconds(1);
  for (auto _ : state) {
    sim::ShardGroup group(2, lookahead);
    int hops = 0;
    std::function<void(int)> bounce = [&](int self) {
      if (++hops >= kHops) return;
      const int peer = 1 - self;
      group.post(self, peer, group.sim(self).now() + lookahead,
                 [&bounce, peer] { bounce(peer); });
    };
    {
      auto scope = group.frame_scope(0);
      group.sim(0).schedule_at(0, [&bounce] { bounce(0); });
    }
    group.run(2);
    benchmark::DoNotOptimize(hops);
  }
  state.SetItemsProcessed(state.iterations() * kHops);
}
BENCHMARK(BM_CrossShardHop);

block::ArrayGeometry bench_geo() {
  block::ArrayGeometry g;
  g.nodes = 16;
  g.disks_per_node = 1;
  g.blocks_per_disk = 327'680;
  return g;
}

void BM_Raid0Mapping(benchmark::State& state) {
  raid::Raid0Layout layout(bench_geo());
  std::uint64_t lba = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(layout.data_location(lba));
    lba = (lba + 97) % layout.logical_blocks();
  }
}
BENCHMARK(BM_Raid0Mapping);

void BM_Raid5MappingWithParity(benchmark::State& state) {
  raid::Raid5Layout layout(bench_geo());
  std::uint64_t lba = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(layout.data_location(lba));
    benchmark::DoNotOptimize(layout.parity_location(layout.stripe_of(lba)));
    lba = (lba + 97) % layout.logical_blocks();
  }
}
BENCHMARK(BM_Raid5MappingWithParity);

void BM_RaidxMappingWithImage(benchmark::State& state) {
  raid::RaidxLayout layout(bench_geo());
  std::uint64_t lba = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(layout.data_location(lba));
    benchmark::DoNotOptimize(layout.mirror_locations(lba));
    lba = (lba + 97) % layout.logical_blocks();
  }
}
BENCHMARK(BM_RaidxMappingWithImage);

void BM_RaidxStripeImages(benchmark::State& state) {
  raid::RaidxLayout layout(bench_geo());
  std::uint64_t stripe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(layout.stripe_images(stripe));
    stripe = (stripe + 13) % (layout.logical_blocks() / 16);
  }
}
BENCHMARK(BM_RaidxStripeImages);

}  // namespace

// Like BENCHMARK_MAIN(), but under RAIDX_BENCH_SMOKE each benchmark runs
// for a fraction of the default wall time: CI only needs to prove the
// paths execute, not to produce stable throughput numbers.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  char smoke_flag[] = "--benchmark_min_time=0.01";
  if (std::getenv("RAIDX_BENCH_SMOKE") != nullptr) {
    args.push_back(smoke_flag);
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
