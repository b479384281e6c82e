// Figure 5 reproduction: aggregate I/O bandwidth of RAID-x vs RAID-5,
// RAID-10 and NFS on the (simulated) Trojans cluster, as the number of
// barrier-synchronized clients grows from 1 to 16.
//
//   (a) large read   -- 64 MB per client
//   (b) small read   -- 32 KB per operation, scattered
//   (c) large write  -- 64 MB per client
//   (d) small write  -- 32 KB per operation, scattered
//
// Expected shape (paper): RAID-x tracks the best architecture on every
// panel; RAID-5 trails on reads and collapses on small writes
// (read-modify-write); RAID-10 loses about 2x on parallel writes
// (synchronous scattered mirrors); NFS flattens at roughly one server
// link's worth of bandwidth.
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

struct Panel {
  const char* title;
  IoOp op;
  std::uint64_t bytes_per_op;
  int ops_per_client;
  bool scattered;
};

double measure(Arch arch, const Panel& panel, int clients,
               sim::JsonWriter* json = nullptr,
               const std::string& obs_key = {}) {
  World world(bench::perf_trojans(), arch, bench::paper_engine());
  ParallelIoConfig cfg;
  cfg.clients = clients;
  cfg.op = panel.op;
  cfg.bytes_per_op = panel.bytes_per_op;
  cfg.ops_per_client = panel.ops_per_client;
  cfg.scattered = panel.scattered;
  cfg.exclude_node = workload::exclude_node(arch);
  const auto result = workload::run_parallel_io(*world.engine, cfg);
  // Endpoint configurations also ship their per-disk/per-link utilization
  // timelines and latency-histogram percentiles, via the shared registry.
  if (json != nullptr) bench::add_obs(*json, obs_key, world);
  return result.aggregate_mbs;
}

}  // namespace

int main() {
  const std::vector<int> client_counts =
      bench::smoke() ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8,
                                                                 12, 16};
  const std::uint64_t large = bench::smoke_pick(64ull << 20, 4ull << 20);
  const int small_ops = bench::smoke_pick(40, 8);
  const std::vector<Panel> panels = {
      {"Fig 5(a): Large read (64 MB per client)", IoOp::kRead, large, 1,
       false},
      {"Fig 5(b): Small read (32 KB per op)", IoOp::kRead, 32ull << 10,
       small_ops, true},
      {"Fig 5(c): Large write (64 MB per client)", IoOp::kWrite, large, 1,
       false},
      {"Fig 5(d): Small write (32 KB per op)", IoOp::kWrite, 32ull << 10,
       small_ops, true},
  };
  const auto archs = workload::paper_architectures();

  std::printf(
      "Figure 5: aggregate I/O bandwidth (MB/s) vs number of clients\n"
      "Simulated Trojans cluster: 16 nodes, 1x10GB disk each, 100 Mbps "
      "switched Fast Ethernet\n\n");

  sim::JsonWriter json = bench::bench_json("fig5_bandwidth");
  const char* panel_keys[] = {"large_read", "small_read", "large_write",
                              "small_write"};
  for (std::size_t p = 0; p < panels.size(); ++p) {
    const Panel& panel = panels[p];
    std::printf("%s\n", panel.title);
    std::vector<std::string> headers = {"clients"};
    for (Arch a : archs) headers.emplace_back(workload::arch_name(a));
    sim::TablePrinter table(headers);
    const int endpoint = client_counts.back();
    for (int clients : client_counts) {
      std::vector<std::string> row = {std::to_string(clients)};
      for (Arch a : archs) {
        // The endpoint configurations (16 clients at full scale) are the
        // figures the paper quotes; they are the trajectory points worth
        // tracking across PRs, and the ones that carry obs snapshots.
        const bool at_endpoint = clients == endpoint;
        const bool with_obs = at_endpoint && a == Arch::kRaidX;
        const double mbs = measure(
            a, panel, clients, with_obs ? &json : nullptr,
            std::string("obs_") + panel_keys[p]);
        row.push_back(sim::TablePrinter::fmt(mbs));
        if (at_endpoint) {
          json.add(std::string(panel_keys[p]) + "_mbs_" +
                       workload::arch_name(a),
                   mbs);
        }
      }
      table.add_row(std::move(row));
    }
    table.print();
    std::printf("\n");
  }
  bench::write_bench_json("fig5_bandwidth", json);
  return 0;
}
