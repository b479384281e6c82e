// Figure 6 reproduction: Andrew benchmark elapsed times on the four I/O
// subsystem architectures, 1 to 32 concurrent clients.
//
// Expected shape (paper): NFS degrades fastest -- reading files, scanning
// directories and especially copying files blow up with client count
// (central server + small writes); RAID-x shows the slowest growth across
// all five phases, finishing ~17% ahead of RAID-5 and RAID-10 overall.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "sim/stats.hpp"
#include "workload/andrew.hpp"

namespace {

using namespace raidx;
using bench::World;
using workload::AndrewConfig;
using workload::AndrewResult;
using workload::Arch;

AndrewResult measure(Arch arch, int clients,
                     sim::JsonWriter* json = nullptr,
                     const std::string& obs_key = {}) {
  World world(bench::perf_trojans(), arch, bench::paper_engine());
  AndrewConfig cfg;
  cfg.clients = clients;
  cfg.exclude_node = workload::exclude_node(arch);
  AndrewResult r = workload::run_andrew(*world.engine, cfg);
  // Endpoint runs ship their per-disk utilization timelines and latency
  // histograms alongside the headline seconds.
  if (json != nullptr) bench::add_obs(*json, obs_key, world);
  return r;
}

std::string secs(sim::Time t) {
  return sim::TablePrinter::fmt(sim::to_seconds(t));
}

}  // namespace

int main() {
  const std::vector<int> client_counts =
      bench::smoke() ? std::vector<int>{1, 4}
                     : std::vector<int>{1, 2, 4, 8, 16, 32};

  std::printf(
      "Figure 6: Andrew benchmark elapsed times (seconds) per phase\n"
      "Simulated Trojans cluster; 20 dirs + 70 source files per client\n\n");

  sim::JsonWriter json = bench::bench_json("fig6_andrew");
  for (Arch arch : workload::paper_architectures()) {
    std::printf("Fig 6: %s\n", workload::arch_name(arch));
    sim::TablePrinter table({"clients", "MakeDir", "Copy", "ScanDir",
                             "ReadAll", "Compile", "Total"});
    const int endpoint = client_counts.back();
    for (int clients : client_counts) {
      // The 32-client totals (at full scale) are the figures
      // EXPERIMENTS.md quotes; the endpoint also carries an obs snapshot
      // for RAID-x.
      const bool at_endpoint = clients == endpoint;
      const bool with_obs = at_endpoint && arch == Arch::kRaidX;
      const AndrewResult r =
          measure(arch, clients, with_obs ? &json : nullptr, "obs_andrew");
      table.add_row({std::to_string(clients), secs(r.make_dir),
                     secs(r.copy_files), secs(r.scan_dir), secs(r.read_all),
                     secs(r.compile), secs(r.total())});
      if (at_endpoint) {
        json.add(std::string("total_s_32c_") + workload::arch_name(arch),
                 sim::to_seconds(r.total()));
      }
    }
    table.print();
    std::printf("\n");
  }
  bench::write_bench_json("fig6_andrew", json);
  return 0;
}
