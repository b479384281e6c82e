// Table 2 reproduction: expected peak performance of the four RAID
// architectures, from the closed-form model, evaluated on the Trojans
// parameters (n = 16 disks, B = 18 MB/s, m = 2048 blocks of 32 KB, with R
// and W derived from the disk model's random single-block service time).
#include <cstdio>

#include "analytic/model.hpp"
#include "disk/disk.hpp"
#include "sim/stats.hpp"

namespace {

using namespace raidx;
using analytic::Arch;
using analytic::ModelParams;

}  // namespace

int main() {
  // Derive R and W from the same disk model the simulator uses: random
  // single-block (32 KB) access = overhead + average seek + rotation +
  // transfer.
  sim::Simulation sim;
  disk::DiskParams dp;
  dp.block_bytes = 32'768;
  dp.total_blocks = 327'680;
  disk::Disk probe(sim, dp, 0);
  const sim::Time r = probe.service_time(dp.total_blocks / 2, 1,
                                         /*sequential=*/false);
  const sim::Time w = r;  // symmetric mechanical model

  ModelParams p;
  p.n = 16;
  p.disk_bw_mbs = dp.media_rate_mbs;
  p.m = 2048;  // a 64 MB file in 32 KB blocks
  p.r = r;
  p.w = w;

  std::printf(
      "Table 2: expected peak performance of four RAID architectures\n"
      "n = %d disks, B = %.0f MB/s, m = %llu blocks, R = W = %.1f ms\n\n",
      p.n, p.disk_bw_mbs, static_cast<unsigned long long>(p.m),
      sim::to_milliseconds(p.r));

  const Arch archs[] = {Arch::kRaid0, Arch::kRaid5, Arch::kChained,
                        Arch::kRaidX};

  {
    std::printf("Max I/O bandwidth (MB/s):\n");
    sim::TablePrinter t({"indicator", "RAID-0", "RAID-5",
                         "Chained Declustering", "RAID-x"});
    auto row = [&](const char* name, double (*f)(Arch, const ModelParams&)) {
      std::vector<std::string> cells = {name};
      for (Arch a : archs) cells.push_back(sim::TablePrinter::fmt(f(a, p), 1));
      t.add_row(std::move(cells));
    };
    row("Read", analytic::read_bandwidth);
    row("Large write", analytic::large_write_bandwidth);
    row("Small write", analytic::small_write_bandwidth);
    t.print();
    std::printf("\n");
  }

  {
    std::printf("Parallel read/write times (ms):\n");
    sim::TablePrinter t({"indicator", "RAID-0", "RAID-5",
                         "Chained Declustering", "RAID-x"});
    auto row = [&](const char* name,
                   sim::Time (*f)(Arch, const ModelParams&)) {
      std::vector<std::string> cells = {name};
      for (Arch a : archs) {
        const double ms = sim::to_milliseconds(f(a, p));
        cells.push_back(sim::TablePrinter::fmt(ms, 1));
      }
      t.add_row(std::move(cells));
    };
    row("Large read (m blocks)", analytic::large_read_time);
    row("Small read (1 block)", analytic::small_read_time);
    row("Large write (m blocks)", analytic::large_write_time);
    row("Small write (1 block)", analytic::small_write_time);
    t.print();
    std::printf("\n");
  }

  {
    std::printf("Max fault coverage:\n");
    sim::TablePrinter t({"RAID-0", "RAID-5", "Chained Declustering",
                         "RAID-x"});
    std::vector<std::string> cells;
    for (Arch a : archs) cells.push_back(analytic::fault_coverage(a, p));
    t.add_row(std::move(cells));
    t.print();
  }
  return 0;
}
