// Distributed multimedia processing -- another I/O-centric application the
// paper's conclusion targets.
//
// A media archive lives on the RAID-x array.  Viewer processes on cluster
// nodes stream different titles concurrently at a fixed frame-chunk rate;
// the full-stripe read bandwidth of OSM is what keeps late chunks rare as
// viewers pile on.  The example reports per-stream delivery statistics and
// deadline misses for increasing viewer counts.
#include <cstdio>
#include <vector>

#include "cluster/world.hpp"
#include "sim/event_queue.hpp"
#include "sim/join.hpp"
#include "sim/stats.hpp"

using namespace raidx;

namespace {

// A "video": 8 MB of contiguous blocks; streamed in 256 KB chunks that
// must each arrive within one playback period (250 ms at ~8 Mbit/s).
constexpr std::uint64_t kTitleBytes = 8ull << 20;
constexpr std::uint64_t kChunkBytes = 256ull << 10;
constexpr sim::Time kPeriod = sim::milliseconds(250);

struct StreamStats {
  sim::LatencyRecorder chunk_latency;
  int late = 0;
  int chunks = 0;
};

sim::Task<> viewer(raid::ArrayController& array, int node,
                   std::uint64_t title_lba, StreamStats& stats) {
  auto& sim = array.simulation();
  const std::uint32_t bs = array.block_bytes();
  const auto chunk_blocks = static_cast<std::uint32_t>(kChunkBytes / bs);
  const auto chunks =
      static_cast<int>(kTitleBytes / kChunkBytes);
  std::vector<std::byte> buf(kChunkBytes);

  for (int c = 0; c < chunks; ++c) {
    const sim::Time deadline = sim.now() + kPeriod;
    const sim::Time t0 = sim.now();
    co_await array.read(node, title_lba + static_cast<std::uint64_t>(c) *
                                              chunk_blocks,
                        chunk_blocks, buf);
    const sim::Time took = sim.now() - t0;
    stats.chunk_latency.add(took);
    ++stats.chunks;
    if (sim.now() > deadline) {
      ++stats.late;
    } else {
      co_await sim.delay(deadline - sim.now());  // paced playback
    }
  }
}

void run_for_viewers(int viewers) {
  sim::Simulation sim;
  auto params = cluster::ClusterParams::trojans();
  params.disk.store_data = false;  // archive content is synthetic
  cluster::WorldParams wp;
  wp.arch = workload::Arch::kRaidX;
  wp.engine.read_chunk_blocks = 2;  // streaming readahead
  wp.engine.read_window = 4;
  cluster::World world(sim, params, wp);
  raid::ArrayController& array = *world.engine;

  const std::uint64_t title_blocks =
      kTitleBytes / array.block_bytes();
  std::vector<StreamStats> stats(static_cast<std::size_t>(viewers));

  auto root = [](raid::ArrayController* arr, std::vector<StreamStats>* st,
                 int n, std::uint64_t tblocks) -> sim::Task<> {
    sim::Joiner join(arr->simulation());
    for (int v = 0; v < n; ++v) {
      join.spawn(viewer(*arr, v % 16,
                        static_cast<std::uint64_t>(v) * tblocks,
                        (*st)[static_cast<std::size_t>(v)]));
    }
    co_await join.wait();
  };
  sim.spawn(root(&array, &stats, viewers, title_blocks));
  sim.run();

  int late = 0, chunks = 0;
  sim::Time worst = 0;
  double mean_ms = 0;
  for (const auto& s : stats) {
    late += s.late;
    chunks += s.chunks;
    worst = std::max(worst, s.chunk_latency.max());
    mean_ms += s.chunk_latency.mean();
  }
  mean_ms = mean_ms / viewers / 1e6;
  std::printf("%8d | %7d | %6.1f | %7.1f | %5.2f%%\n", viewers, chunks,
              mean_ms, sim::to_milliseconds(worst),
              100.0 * late / chunks);
}

}  // namespace

int main() {
  std::printf("Concurrent media streaming from a RAID-x archive "
              "(256 KB chunks, 250 ms deadline)\n\n");
  std::printf(" viewers |  chunks | mean ms | worst ms |  late\n");
  std::printf("---------+---------+---------+----------+-------\n");
  for (int viewers : {1, 2, 4, 8, 16, 24}) {
    run_for_viewers(viewers);
  }
  std::printf("\nLate chunks stay near zero until the stream set "
              "approaches the array's parallel read bandwidth.\n");
  return 0;
}
