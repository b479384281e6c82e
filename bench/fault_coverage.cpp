// Fault-coverage matrix (Table 2's last row + Section 6's claim), verified
// empirically with data integrity: inject failures, attempt reads, report
// survive/lose per architecture.
//
// Expected: RAID-0 loses data on any failure; RAID-5 survives one, loses
// two; RAID-10 and RAID-x survive any single disk and, on the 4x3 array,
// one failure per stripe-group row (3 total) -- but not two in one row.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "sim/stats.hpp"

namespace {

using namespace raidx;
using workload::Arch;

constexpr std::uint32_t kBlocks = 96;

sim::Task<> fill(raid::ArrayController* eng) {
  std::vector<std::byte> data(
      static_cast<std::size_t>(kBlocks) * eng->block_bytes());
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 31 + 5);
  }
  co_await eng->write(0, 0, data);
}

sim::Task<> verify(raid::ArrayController* eng, bool* ok) {
  std::vector<std::byte> back(
      static_cast<std::size_t>(kBlocks) * eng->block_bytes());
  try {
    co_await eng->read(1, 0, kBlocks, back);
  } catch (const raid::IoError&) {
    *ok = false;
    co_return;
  }
  *ok = true;
  for (std::size_t i = 0; i < back.size(); ++i) {
    if (back[i] != static_cast<std::byte>(i * 31 + 5)) {
      *ok = false;
      co_return;
    }
  }
}

// Build a fresh world, write data, kill `victims`, try to read it back.
bool survives(Arch arch, const std::vector<int>& victims) {
  auto params = cluster::ClusterParams::trojans_4x3();
  params.geometry.blocks_per_disk = 4096;
  bench::World world(params, arch);
  world.sim().spawn(fill(world.engine.get()));
  try {
    world.sim().run();
  } catch (const raid::IoError&) {
    return false;
  }
  for (int v : victims) world.cluster->disk(v).fail();
  bool ok = false;
  world.sim().spawn(verify(world.engine.get(), &ok));
  try {
    world.sim().run();
  } catch (const raid::IoError&) {
    return false;
  }
  return ok;
}

std::string cell(Arch arch, const std::vector<int>& victims) {
  return survives(arch, victims) ? "survives" : "DATA LOSS";
}

}  // namespace

int main() {
  std::printf(
      "Fault coverage on the 4x3 array (disks D0..D11; row g = disks "
      "4g..4g+3), verified byte-exactly\n\n");

  struct Scenario {
    const char* name;
    std::vector<int> victims;
  };
  const std::vector<Scenario> scenarios = {
      {"no failure", {}},
      {"single disk (D2)", {2}},
      {"one per row (D0,D5,D10)", {0, 5, 10}},
      {"two in one row, adjacent (D1,D2)", {1, 2}},
      {"two in one row, non-adjacent (D1,D3)", {1, 3}},
      {"two rows hit twice (D0,D1,D4)", {0, 1, 4}},
  };

  sim::TablePrinter table(
      {"scenario", "RAID-0", "RAID-5", "RAID-10", "RAID-x"});
  for (const auto& s : scenarios) {
    table.add_row({s.name, cell(workload::Arch::kRaid0, s.victims),
                   cell(workload::Arch::kRaid5, s.victims),
                   cell(workload::Arch::kRaid10, s.victims),
                   cell(workload::Arch::kRaidX, s.victims)});
  }
  table.print();

  std::printf(
      "\nNotes: RAID-10 survives two failures in one row when the copies\n"
      "are on other disks of the chain; RAID-x tolerates one failure per\n"
      "mirror group (here: per row), matching Section 6's 'up to 3 disk\n"
      "failures in 3 stripe groups'.\n");
  return 0;
}
