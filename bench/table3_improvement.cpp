// Table 3 reproduction: achievable I/O bandwidth at 1 vs 16 clients and
// the improvement factor, per architecture and operation; plus the
// Section 7 headline ratios.
//
// Expected shape (paper): RAID-x shows the highest improvement factors;
// at 16 clients its parallel read is ~1.5x RAID-5 and ~3.7x NFS, and its
// small write ~3x RAID-5.
#include <cstdio>
#include <map>
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

struct OpSpec {
  const char* name;
  IoOp op;
  std::uint64_t bytes_per_op;
  int ops_per_client;
  bool scattered;
};

double measure(Arch arch, const OpSpec& spec, int clients) {
  World world(bench::perf_trojans(), arch, bench::paper_engine());
  ParallelIoConfig cfg;
  cfg.clients = clients;
  cfg.op = spec.op;
  cfg.bytes_per_op = spec.bytes_per_op;
  cfg.ops_per_client = spec.ops_per_client;
  cfg.scattered = spec.scattered;
  cfg.exclude_node = workload::exclude_node(arch);
  return workload::run_parallel_io(*world.engine, cfg).aggregate_mbs;
}

}  // namespace

int main() {
  const std::vector<OpSpec> ops = {
      {"Large read", IoOp::kRead, 64ull << 20, 1, false},
      {"Large write", IoOp::kWrite, 64ull << 20, 1, false},
      {"Small write", IoOp::kWrite, 32ull << 10, 40, true},
  };
  const auto archs = workload::paper_architectures();

  std::printf(
      "Table 3: achievable I/O bandwidth and improvement factor "
      "(1 -> 16 clients) on the simulated Trojans cluster\n\n");

  std::map<std::pair<int, int>, double> at16;  // (arch idx, op idx)
  for (std::size_t a = 0; a < archs.size(); ++a) {
    std::printf("%s\n", workload::arch_name(archs[a]));
    sim::TablePrinter table(
        {"operation", "1 client (MB/s)", "16 clients (MB/s)", "improve"});
    for (std::size_t o = 0; o < ops.size(); ++o) {
      const double one = measure(archs[a], ops[o], 1);
      const double sixteen = measure(archs[a], ops[o], 16);
      at16[{static_cast<int>(a), static_cast<int>(o)}] = sixteen;
      table.add_row({ops[o].name, sim::TablePrinter::fmt(one),
                     sim::TablePrinter::fmt(sixteen),
                     sim::TablePrinter::fmt(one > 0 ? sixteen / one : 0.0)});
    }
    table.print();
    std::printf("\n");
  }

  // Section 7 headline claims.  archs order: RAID-x, RAID-5, RAID-10, NFS.
  const double rx_read = at16[{0, 0}];
  const double r5_read = at16[{1, 0}];
  const double nfs_read = at16[{3, 0}];
  const double rx_sw = at16[{0, 2}];
  const double r5_sw = at16[{1, 2}];
  std::printf("Section 7 headline ratios (paper in parentheses):\n");
  std::printf("  parallel read, RAID-x vs RAID-5 : %.2fx  (1.5x)\n",
              r5_read > 0 ? rx_read / r5_read : 0.0);
  std::printf("  parallel read, RAID-x vs NFS    : %.2fx  (3.7x)\n",
              nfs_read > 0 ? rx_read / nfs_read : 0.0);
  std::printf("  small write,  RAID-x vs RAID-5 : %.2fx  (~3x)\n",
              r5_sw > 0 ? rx_sw / r5_sw : 0.0);
  // 16 full-duplex Fast Ethernet links move 16 x 12.5 MB/s each way; the
  // paper quotes the achieved read bandwidth as a fraction of one link
  // direction times the client count.
  std::printf(
      "  RAID-x parallel read vs Fast Ethernet limit (16 x 12.5 MB/s): "
      "%.0f%%\n",
      100.0 * rx_read / (16 * 12.5));
  return 0;
}
