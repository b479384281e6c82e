// Ablation: striping parallelism n vs SCSI pipelining depth k (Section 3's
// "tradeoffs do exist between these two concepts").
//
// Twelve disks arranged as 12x1, 6x2, 4x3, 3x4, 2x6: fewer nodes means
// fewer NICs and CPUs but deeper per-node SCSI pipelines.  Parallel reads
// and writes at one client per node show where each configuration's
// bottleneck sits.  A second sweep varies the stripe-unit (block) size on
// the 16x1 Trojans array.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "sim/stats.hpp"
#include "workload/parallel_io.hpp"

namespace {

using namespace raidx;
using bench::World;
using workload::Arch;
using workload::IoOp;
using workload::ParallelIoConfig;

double measure(cluster::ClusterParams params, IoOp op, int clients) {
  World world(params, Arch::kRaidX);
  ParallelIoConfig cfg;
  cfg.clients = clients;
  cfg.op = op;
  cfg.bytes_per_op = bench::smoke_pick(32ull << 20, 4ull << 20);
  const auto r = workload::run_parallel_io(*world.engine, cfg);
  return r.aggregate_mbs;
}

}  // namespace

int main() {
  std::printf("RAID-x geometry ablation (12 disks total, one client per "
              "node, 32 MB per client)\n\n");
  {
    sim::TablePrinter table({"array (n x k)", "clients", "read MB/s",
                             "write MB/s"});
    for (auto [n, k] : {std::pair{12, 1}, std::pair{6, 2}, std::pair{4, 3},
                        std::pair{3, 4}, std::pair{2, 6}}) {
      auto params = bench::perf_trojans();
      params.geometry.nodes = n;
      params.geometry.disks_per_node = k;
      char label[16];
      std::snprintf(label, sizeof(label), "%2dx%d", n, k);
      const double read = measure(params, IoOp::kRead, n);
      const double write = measure(params, IoOp::kWrite, n);
      table.add_row({label, std::to_string(n), sim::TablePrinter::fmt(read),
                     sim::TablePrinter::fmt(write)});
    }
    table.print();
  }

  std::printf(
      "\nStripe-unit (block size) sweep on the 16x1 Trojans array, 16 "
      "clients:\n");
  {
    sim::TablePrinter table({"stripe unit", "read MB/s", "write MB/s"});
    for (std::uint32_t kb : {8u, 16u, 32u, 64u, 128u}) {
      auto params = bench::perf_trojans();
      params.geometry.block_bytes = kb * 1024;
      params.geometry.blocks_per_disk = (10ull << 30) / params.geometry.block_bytes;
      const double read = measure(params, IoOp::kRead, 16);
      const double write = measure(params, IoOp::kWrite, 16);
      table.add_row({std::to_string(kb) + " KB", sim::TablePrinter::fmt(read),
                     sim::TablePrinter::fmt(write)});
    }
    table.print();
  }

  std::printf(
      "\nReading: wider n engages more NICs/CPUs (parallelism); deeper k "
      "trades them\nfor SCSI-bus pipelining.  Larger stripe units amortize "
      "seeks until per-op\ntransfer time dominates.\n");
  return 0;
}
