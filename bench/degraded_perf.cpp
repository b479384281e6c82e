// Performance under failure: aggregate read bandwidth of each redundant
// architecture when healthy, running degraded (one disk lost), and while a
// background rebuild is sweeping the replacement disk -- plus the time to
// repair a fixed set of that disk's blocks in place.
//
// This extends the paper's reliability story (Section 6, "can recover from
// any single disk failure") with the question a storage operator actually
// asks: what does service look like *during* the failure and the repair?
// RAID-x degraded reads hit the mirror images (cheap); RAID-5 degraded
// reads reconstruct from all surviving disks (n-1 reads + XOR per lost
// block), so its degraded curve collapses hardest.
//
// Every number is simulated, so BENCH_degraded_perf.json is gated at
// --threshold 0: the obs snapshots pin the degraded-read, rebuild-sweep and
// repair event sequences of every redundant layout.
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>
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

constexpr int kVictim = 3;

enum class State { kHealthy, kDegraded, kRebuilding };

/// Read bandwidth in `state`; embeds the world's obs snapshot under
/// `obs_key` unless it is empty (a rebuilding world always has one).
double measure(Arch arch, State state, sim::JsonWriter& json,
               const std::string& obs_key) {
  World world(bench::perf_trojans(), arch);
  if (state != State::kHealthy) {
    world.cluster->disk(kVictim).fail();
  }
  if (state == State::kRebuilding) {
    world.cluster->disk(kVictim).replace();
    // A bounded sweep keeps the rebuild active throughout the measurement.
    world.sim().spawn(world.engine->rebuild_disk(0, kVictim, 1500));
  }
  ParallelIoConfig cfg;
  cfg.clients = 8;
  cfg.op = IoOp::kRead;
  cfg.bytes_per_op = 16ull << 20;
  const double mbs =
      workload::run_parallel_io(*world.engine, cfg).aggregate_mbs;
  if (state == State::kRebuilding) {
    // The sweep outlives the reads by minutes of simulated time.  Its
    // registry (per-disk counters, event count, end instant) pins it
    // without the long utilization timelines.
    world.collect(world.hub.registry());
    json.add_raw(obs_key, "{\"registry\":" +
                              world.hub.registry().snapshot_json() + "}");
  } else if (!obs_key.empty()) {
    bench::add_obs(json, obs_key, world);
  }
  return mbs;
}

/// The victim's slots holding a copy of one of the first 16 stripe groups'
/// blocks, plus the parity RAID-5 keeps there: data, mirror/image (RAID-x:
/// clustered and neighbor) and parity zones alike.
std::vector<std::uint64_t> repair_slots(const raid::Layout& layout) {
  const auto lbas = static_cast<std::uint64_t>(16 * layout.geometry().nodes);
  std::vector<std::uint64_t> slots;
  for (std::uint64_t lba = 0; lba < lbas; ++lba) {
    const block::PhysBlock d = layout.data_location(lba);
    if (d.disk == kVictim) slots.push_back(d.offset);
    for (const block::PhysBlock& m : layout.mirror_locations(lba)) {
      if (m.disk == kVictim) slots.push_back(m.offset);
    }
  }
  if (const auto* r5 = dynamic_cast<const raid::Raid5Layout*>(&layout)) {
    for (std::uint64_t s = 0; s <= r5->stripe_of(lbas - 1); ++s) {
      if (r5->parity_disk(s) == kVictim) {
        slots.push_back(r5->parity_location(s).offset);
      }
    }
  }
  return slots;
}

sim::Task<> repair_all(raid::ArrayController* eng,
                       std::vector<std::uint64_t> slots, std::size_t* fixed) {
  for (const std::uint64_t off : slots) {
    if (co_await eng->repair_block(0, kVictim, off)) ++*fixed;
  }
}

/// Simulated ms to repair_block every repair_slots() slot, one after
/// another, on an idle healthy array.
double repair_ms(Arch arch, sim::JsonWriter& json, const std::string& key) {
  World world(bench::perf_trojans(), arch);
  const std::vector<std::uint64_t> slots =
      repair_slots(world.engine->layout());
  std::size_t fixed = 0;
  world.sim().spawn(repair_all(world.engine.get(), slots, &fixed));
  world.sim().run();
  if (fixed != slots.size()) {
    std::fprintf(stderr, "degraded_perf: %s repaired %zu of %zu slots\n",
                 workload::arch_name(arch), fixed, slots.size());
    std::exit(1);
  }
  json.add(key + "_repair_slots", static_cast<std::uint64_t>(slots.size()));
  bench::add_obs(json, "obs_" + key + "_repair", world);
  return sim::to_seconds(world.sim().now()) * 1e3;
}

/// JSON key prefix of an architecture: "RAID-10" -> "raid10".
std::string key_of(Arch arch) {
  std::string key;
  for (const char* c = workload::arch_name(arch); *c != '\0'; ++c) {
    if (*c != '-') {
      key += static_cast<char>(std::tolower(static_cast<unsigned char>(*c)));
    }
  }
  return key;
}

}  // namespace

int main() {
  std::printf(
      "Read bandwidth under failure (8 clients, 16 MB each; disk D3 is "
      "the casualty)\n\n");
  sim::JsonWriter json = bench::bench_json("degraded_perf");
  sim::TablePrinter table({"architecture", "healthy MB/s", "degraded MB/s",
                           "during rebuild MB/s", "repair ms"});
  for (Arch arch : {Arch::kRaidX, Arch::kRaid5, Arch::kRaid10,
                    Arch::kRaid1}) {
    const std::string k = key_of(arch);
    const double healthy = measure(arch, State::kHealthy, json, {});
    const double degraded =
        measure(arch, State::kDegraded, json, "obs_" + k + "_degraded");
    const double rebuilding =
        measure(arch, State::kRebuilding, json, "obs_" + k + "_rebuilding");
    const double repair = repair_ms(arch, json, k);
    json.add(k + "_healthy_mbs", healthy);
    json.add(k + "_degraded_mbs", degraded);
    json.add(k + "_rebuilding_mbs", rebuilding);
    json.add(k + "_repair_ms", repair);
    table.add_row({workload::arch_name(arch), sim::TablePrinter::fmt(healthy),
                   sim::TablePrinter::fmt(degraded),
                   sim::TablePrinter::fmt(rebuilding),
                   sim::TablePrinter::fmt(repair, 3)});
  }
  table.print();
  std::printf(
      "\nReading: RAID-x degrades gentlest -- the lost disk's images are\n"
      "spread over the whole array by the rotating image-node placement.\n"
      "RAID-10's chain concentrates every lost block's copy on ONE\n"
      "neighbor disk (a hotspot), and RAID-5 pays n-1 reconstruction\n"
      "reads per lost block.  RAID-1 loses D3, the mirror half of pair 1,\n"
      "which primary-only reads never touch.  'During rebuild' keeps\n"
      "un-rebuilt blocks on the degraded path (rebuild watermark) while the\n"
      "sweep itself runs at background disk priority.  'Repair' rewrites\n"
      "D3's copies of the first 16 stripe groups (and RAID-5's parity\n"
      "there) from redundancy, one block at a time.\n");
  bench::write_bench_json("degraded_perf", json);
  return 0;
}
