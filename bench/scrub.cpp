// Integrity characterization (DESIGN.md §12): mean time to detect (MTTD)
// silent corruption as a function of the scrub-rate cap, and the
// foreground-bandwidth cost of verify-on-read.
//
// Expected shape: MTTD is inversely proportional to the scrub rate -- the
// attention sweep has to cover the array's raw bytes under the cap, so
// halving the cap roughly doubles the detection latency.  Verify-on-read
// charges a fixed per-byte CRC cost on the serving node's CPU, which
// shaves a few percent off read bandwidth when the disks (not the CPUs)
// are the bottleneck.
//
// Every number is simulated time, so the report is bit-reproducible and
// gated in CI against the committed baseline with
//   tools/bench_diff.py --threshold 0 --require 'integrity\.'
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "integrity/integrity.hpp"
#include "sim/stats.hpp"
#include "sim/token_bucket.hpp"
#include "workload/parallel_io.hpp"

namespace {

using namespace raidx;
using bench::World;
using workload::Arch;

struct Point {
  double mttd_s = 0.0;
  std::uint64_t detected = 0;
  std::uint64_t repaired = 0;
  std::uint64_t scrubbed_bytes = 0;
};

// A RAID-x array small enough that a full scrub sweep finishes in CI
// seconds yet large enough that the sweep (not the per-pass idle delay)
// dominates detection latency.  Pure timing: no payload bytes are stored,
// which exercises the zero-run checksum fast path on every write.
cluster::ClusterParams scrub_cluster() {
  cluster::ClusterParams p = bench::perf_trojans();
  p.geometry.nodes = 4;
  p.geometry.blocks_per_disk = bench::smoke_pick<std::uint64_t>(1024, 256);
  return p;
}

// One corruption lifecycle: write a working set, rot a handful of its
// blocks mid-run, and let the scrub daemon (capped at `rate_mbs`) find and
// repair them all.  The run converges when every injected error is
// detected and repaired; anything else is a bench bug.
Point measure_mttd(double rate_mbs, sim::JsonWriter* json = nullptr,
                   const std::string& obs_key = {}) {
  World world(scrub_cluster(), Arch::kRaidX, bench::paper_engine());

  integrity::IntegrityParams ip;
  ip.scrub = true;
  ip.scrub_rate_mbs = rate_mbs;
  ip.scrub_interval = sim::seconds(1);
  world.arm(nullptr, &ip);
  const integrity::IntegrityPlane& plane = *world.plane;

  const std::vector<std::uint64_t> victims = {3, 10, 17, 24, 31, 38};
  auto driver = [](World* w,
                   const std::vector<std::uint64_t>* lbas) -> sim::Task<> {
    // Foreground working set first, so the rotten blocks carry real
    // checksums (a never-written block would take the zero-fill path).
    const std::uint32_t bs = w->engine->block_bytes();
    co_await w->engine->write(0, 0, block::Payload::zeros(48ull * bs));
    co_await w->sim().delay(sim::milliseconds(10));
    for (std::uint64_t lba : *lbas) {
      const auto pb = w->engine->layout().data_location(lba);
      w->cluster->disk(pb.disk).corrupt(pb.offset);
      w->plane->note_corruption_injected(pb.disk, pb.offset);
    }
  };
  world.sim().spawn(driver(&world, &victims));
  world.sim().run();

  const integrity::IntegrityStats& s = plane.stats();
  if (plane.undetected() != 0 || s.repaired != victims.size() ||
      s.mttd_ns.size() != victims.size()) {
    std::fprintf(stderr,
                 "scrub: lifecycle did not converge (detected=%llu "
                 "repaired=%llu)\n",
                 static_cast<unsigned long long>(s.detected),
                 static_cast<unsigned long long>(s.repaired));
    std::exit(1);
  }
  Point pt;
  sim::Time total = 0;
  for (sim::Time t : s.mttd_ns) total += t;
  pt.mttd_s = sim::to_seconds(total) / static_cast<double>(s.mttd_ns.size());
  pt.detected = s.detected;
  pt.repaired = s.repaired;
  if (const sim::TokenBucket* tb = plane.throttle()) {
    pt.scrubbed_bytes = tb->granted_tokens();
  }
  if (json != nullptr) bench::add_obs(*json, obs_key, world);
  return pt;
}

// Aggregate read bandwidth with and without verify-on-read, same world
// geometry and workload otherwise.
double measure_read_mbs(bool verify) {
  World world(bench::perf_trojans(), Arch::kRaidX, bench::paper_engine());
  integrity::IntegrityParams ip;
  ip.verify_reads = true;
  world.arm(nullptr, verify ? &ip : nullptr);
  workload::ParallelIoConfig cfg;
  cfg.clients = 4;
  cfg.op = workload::IoOp::kRead;
  cfg.bytes_per_op = bench::smoke_pick(16ull << 20, 2ull << 20);
  const auto result = workload::run_parallel_io(*world.engine, cfg);
  return result.aggregate_mbs;
}

}  // namespace

int main() {
  std::printf(
      "Integrity: detection latency vs scrub rate, verify-on-read cost\n"
      "4-node RAID-x, 6 blocks rotted mid-run, scrub daemon finds+repairs\n\n");

  sim::JsonWriter json = bench::bench_json("scrub");

  // Sweep 1: scrub-rate cap vs mean time to detect.  The uncapped pass
  // scans as fast as background disk bandwidth allows; each tighter cap
  // stretches MTTD roughly in inverse proportion.
  struct Cap {
    double mbs;
    const char* label;
  };
  const std::vector<Cap> caps = bench::smoke()
                                    ? std::vector<Cap>{{16.0, "cap16mbs"},
                                                       {4.0, "cap4mbs"}}
                                    : std::vector<Cap>{{16.0, "cap16mbs"},
                                                       {4.0, "cap4mbs"},
                                                       {1.0, "cap1mbs"}};
  {
    sim::TablePrinter table({"cap", "mttd_s", "repaired", "scrubbed_bytes"});
    for (std::size_t i = 0; i < caps.size(); ++i) {
      const Cap& c = caps[i];
      const bool last = i + 1 == caps.size();
      const Point p =
          measure_mttd(c.mbs, last ? &json : nullptr, "obs_scrub");
      table.add_row({c.label, sim::TablePrinter::fmt(p.mttd_s, 3),
                     std::to_string(p.repaired),
                     std::to_string(p.scrubbed_bytes)});
      json.add(std::string("mttd_s_") + c.label, p.mttd_s);
      json.add(std::string("scrubbed_bytes_") + c.label, p.scrubbed_bytes);
    }
    std::printf("Mean time to detect vs scrub-rate cap\n");
    table.print();
    std::printf("\n");
  }

  // Sweep 2: verify-on-read's toll on foreground read bandwidth.
  {
    const double off = measure_read_mbs(false);
    const double on = measure_read_mbs(true);
    sim::TablePrinter table({"verify_reads", "aggregate_mbs"});
    table.add_row({"off", sim::TablePrinter::fmt(off)});
    table.add_row({"on", sim::TablePrinter::fmt(on)});
    std::printf("Verify-on-read: foreground read bandwidth\n");
    table.print();
    const double pct = off > 0.0 ? (off - on) / off * 100.0 : 0.0;
    std::printf("overhead: %.2f%%\n\n", pct);
    json.add("verify_read_mbs_off", off);
    json.add("verify_read_mbs_on", on);
    json.add("verify_read_overhead_pct", pct);
  }

  bench::write_bench_json("scrub", json);
  return 0;
}
