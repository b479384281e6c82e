// Saturation characterization (DESIGN.md §13, EXPERIMENTS.md): open-loop
// rate sweeps that locate each layout's knee, a 100k+-session surge that
// stress-tests the arrival engine itself, and a three-run QoS isolation
// demonstration.
//
// The knee is the offered load where the array stops absorbing what it is
// offered: below it goodput tracks offered load and tail latency sits near
// the service time; above it goodput plateaus at the array's capacity and
// p99 grows with the backlog.  Closed-loop sweeps (bench/fig5) cannot show
// this -- their clients slow down with the array -- which is exactly why
// this harness drives the open-loop tier (src/load).
//
// Recorded knee: the highest swept rate whose goodput still covers >= 90%
// of its offered load.  Every number is simulated time, so the report is
// bit-reproducible and gated in CI against the committed baseline with
//   tools/bench_diff.py --threshold 0 --require 'load\.' --require 'qos\.'
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "load/open_loop.hpp"
#include "load/qos.hpp"
#include "sim/stats.hpp"

namespace {

using namespace raidx;
using bench::World;
using workload::Arch;

struct Point {
  double offered_mbs = 0.0;
  double goodput_mbs = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double drained_s = 0.0;
  std::uint64_t peak_in_flight = 0;
  // Attribution matrix, mean per completed request: where a request's
  // end-to-end time went (disk = queue+service, net = queue+service+cdd,
  // the remainder is controller/admission work).
  double attr_disk_ms = 0.0;
  double attr_net_ms = 0.0;
  double attr_other_ms = 0.0;
};

Point to_point(const load::OpenLoopResult& r) {
  Point p;
  p.offered_mbs = r.offered_mbs;
  p.goodput_mbs = r.goodput_mbs;
  p.p50_ms = r.latency.quantile(0.50) / 1e6;
  p.p99_ms = r.latency.quantile(0.99) / 1e6;
  p.p999_ms = r.latency.quantile(0.999) / 1e6;
  p.drained_s = sim::to_seconds(r.drained_at);
  p.peak_in_flight = r.peak_in_flight;
  return p;
}

/// One sweep point: a fresh world offered `rate_ops` Poisson arrivals of
/// single-block scattered reads for the sweep window.  Attribution stays
/// on, and the point is rejected outright if the per-lane decomposition
/// fails to reconcile *exactly* with the end-to-end latency histogram --
/// the matrix is an accounting identity, not an estimate.
Point sweep_point(Arch arch, double rate_ops) {
  World world(bench::perf_trojans(), arch, bench::paper_engine());
  world.hub.enable_attribution();
  load::TenantLoad t;
  t.rate_ops = rate_ops;
  t.zipf_alpha = 0.0;  // uniform: the knee is a capacity, not a cache, story
  t.working_set_blocks = 65536;
  t.sessions = 4096;
  load::OpenLoopConfig cfg;
  cfg.tenants = {t};
  cfg.duration = sim::seconds(bench::smoke_pick(5.0, 2.0));
  const load::OpenLoopResult r = load::run_open_loop(*world.engine, cfg);

  const obs::Attribution& attr = *world.hub.attribution();
  const obs::Attribution::TypeTotals& reads = attr.reads();
  std::uint64_t lane_sum = 0;
  for (std::uint64_t ns : reads.lane_ns) lane_sum += ns;
  if (reads.count != r.completed || reads.total_ns != r.latency.sum() ||
      lane_sum != reads.total_ns + reads.aborted_ns ||
      attr.live_slots() != 0) {
    std::fprintf(stderr,
                 "saturation: attribution failed to reconcile (count %llu "
                 "vs %llu completed, total %llu vs histogram sum %llu, "
                 "lanes %llu, %zu live slots)\n",
                 static_cast<unsigned long long>(reads.count),
                 static_cast<unsigned long long>(r.completed),
                 static_cast<unsigned long long>(reads.total_ns),
                 static_cast<unsigned long long>(r.latency.sum()),
                 static_cast<unsigned long long>(lane_sum),
                 attr.live_slots());
    std::exit(1);
  }

  Point p = to_point(r);
  if (reads.count > 0) {
    auto lane = [&](obs::Lane l) {
      return static_cast<double>(
          reads.lane_ns[static_cast<std::size_t>(l)]);
    };
    const double per_req = 1e6 * static_cast<double>(reads.count);
    const double disk =
        lane(obs::Lane::kDiskQueue) + lane(obs::Lane::kDiskService);
    const double net = lane(obs::Lane::kNetQueue) +
                       lane(obs::Lane::kNetService) +
                       lane(obs::Lane::kCddQueue) +
                       lane(obs::Lane::kCddService);
    p.attr_disk_ms = disk / per_req;
    p.attr_net_ms = net / per_req;
    p.attr_other_ms =
        (static_cast<double>(reads.total_ns) - disk - net) / per_req;
  }
  return p;
}

using workload::arch_name;  // display names ("RAID-x") for the tables

// Lowercase JSON key stems, matching raidxsim's --arch spellings.
const char* key_stem(Arch arch) {
  switch (arch) {
    case Arch::kRaid0: return "raid0";
    case Arch::kRaid5: return "raid5";
    case Arch::kRaid10: return "raid10";
    case Arch::kRaidX: return "raidx";
    default: return "other";
  }
}

}  // namespace

int main() {
  std::printf(
      "Saturation: open-loop rate sweep to the knee, session surge, QoS "
      "isolation\n16-node Trojans cluster, 32 KB scattered reads\n\n");

  sim::JsonWriter json = bench::bench_json("saturation");
  const auto fmt = [](double v) { return sim::TablePrinter::fmt(v); };

  // --- Sweep: offered load vs goodput vs tail latency, per layout. ---
  // Rates bracket the measured single-block random-read capacity of the
  // 16-disk array (~800-900 ops/s ~= 28 MB/s): the low points sit well
  // under the knee, the top points far past it.
  const std::vector<double> rates =
      bench::smoke() ? std::vector<double>{200, 600, 1600, 4000}
                     : std::vector<double>{200, 400, 600, 800, 1000, 1200,
                                           1600, 2400, 4000};
  const std::vector<Arch> archs = {Arch::kRaid0, Arch::kRaid10, Arch::kRaidX,
                                   Arch::kRaid5};
  for (Arch arch : archs) {
    sim::TablePrinter table({"rate_ops", "offered_mbs", "goodput_mbs",
                             "p50_ms", "p99_ms", "p999_ms", "drain_s",
                             "disk_ms", "net_ms", "other_ms"});
    double knee_offered = 0.0, knee_goodput = 0.0;
    for (double r : rates) {
      const Point p = sweep_point(arch, r);
      table.add_row({fmt(r), fmt(p.offered_mbs), fmt(p.goodput_mbs),
                     fmt(p.p50_ms), fmt(p.p99_ms), fmt(p.p999_ms),
                     fmt(p.drained_s), fmt(p.attr_disk_ms),
                     fmt(p.attr_net_ms), fmt(p.attr_other_ms)});
      const std::string key = std::string("sat_") + key_stem(arch) + "_" +
                              std::to_string(static_cast<int>(r));
      json.add(key + "_offered_mbs", p.offered_mbs);
      json.add(key + "_goodput_mbs", p.goodput_mbs);
      json.add(key + "_p50_ms", p.p50_ms);
      json.add(key + "_p99_ms", p.p99_ms);
      json.add(key + "_p999_ms", p.p999_ms);
      json.add(key + "_attr_disk_ms", p.attr_disk_ms);
      json.add(key + "_attr_net_ms", p.attr_net_ms);
      json.add(key + "_attr_other_ms", p.attr_other_ms);
      if (p.goodput_mbs >= 0.9 * p.offered_mbs &&
          p.offered_mbs > knee_offered) {
        knee_offered = p.offered_mbs;
        knee_goodput = p.goodput_mbs;
      }
    }
    std::printf("%s: offered vs goodput vs tail\n", arch_name(arch));
    table.print();
    std::printf("knee: ~%.2f MB/s offered (goodput %.2f MB/s)\n\n",
                knee_offered, knee_goodput);
    json.add(std::string("knee_") + key_stem(arch) + "_offered_mbs",
             knee_offered);
    json.add(std::string("knee_") + key_stem(arch) + "_goodput_mbs",
             knee_goodput);
  }

  // --- Surge: >= 100k concurrent open-loop sessions on RAID-x. ---
  // Offered far past capacity for one second, so nearly the whole window's
  // arrivals are in flight at once; the point of the section is that the
  // arrival engine and the event queue sustain that concurrency (the
  // acceptance floor is 100k), not the (terrible) latency it produces.
  {
    World world(bench::perf_trojans(), Arch::kRaidX, bench::paper_engine());
    load::TenantLoad t;
    t.rate_ops = bench::smoke_pick(200000.0, 120000.0);
    t.working_set_blocks = 65536;
    t.sessions = 150000;
    load::OpenLoopConfig cfg;
    cfg.tenants = {t};
    cfg.duration = sim::seconds(1.0);
    const load::OpenLoopResult r = load::run_open_loop(*world.engine, cfg);
    const std::uint64_t events = world.sim().events_processed();
    std::printf("surge: %llu arrivals, peak %llu in flight, drained %.1f s "
                "(sim), %llu events\n\n",
                static_cast<unsigned long long>(r.offered),
                static_cast<unsigned long long>(r.peak_in_flight),
                sim::to_seconds(r.drained_at),
                static_cast<unsigned long long>(events));
    json.add("surge_offered", r.offered);
    json.add("surge_completed", r.completed);
    json.add("surge_peak_in_flight", r.peak_in_flight);
    json.add("surge_drained_s", sim::to_seconds(r.drained_at));
    json.add("surge_events", events);
    if (r.peak_in_flight < 100000 || r.completed != r.offered) {
      std::fprintf(stderr,
                   "saturation: surge failed the 100k-session floor "
                   "(peak=%llu completed=%llu/%llu)\n",
                   static_cast<unsigned long long>(r.peak_in_flight),
                   static_cast<unsigned long long>(r.completed),
                   static_cast<unsigned long long>(r.offered));
      return 1;
    }
  }

  // --- QoS isolation: a steady tenant vs a bursty neighbor. ---
  // Three runs on identical worlds: the steady tenant alone (baseline),
  // both tenants ungated (the burst queues behind shared disks and
  // inflates the steady tenant's p99), and both tenants with the bursty
  // one capped by a shed-policy token bucket (the steady tenant's p99
  // returns to near baseline).
  {
    auto steady = [] {
      load::TenantLoad t;
      t.rate_ops = 300.0;
      t.working_set_blocks = 32768;
      t.sessions = 1024;
      return t;
    };
    auto bursty = [] {
      load::TenantLoad t;
      t.rate_ops = 300.0;  // x10 while ON: far past capacity in bursts
      t.dist = load::ArrivalDist::kBurst;
      t.burst_on_s = 0.1;
      t.burst_off_s = 0.4;
      t.burst_mult = 10.0;
      t.working_set_blocks = 32768;
      t.sessions = 1024;
      return t;
    };
    const double dur_s = bench::smoke_pick(5.0, 3.0);

    auto run = [&](bool with_bursty, bool gated) {
      World world(bench::perf_trojans(), Arch::kRaidX, bench::paper_engine());
      load::OpenLoopConfig cfg;
      cfg.tenants = {steady()};
      if (with_bursty) cfg.tenants.push_back(bursty());
      cfg.duration = sim::seconds(dur_s);
      if (gated) {
        load::TenantQos none;  // steady tenant: unlimited
        load::TenantQos cap;   // bursty tenant: held to its mean rate
        cap.rate_mbs = 10.0;
        cap.burst_mb = 2.0;
        cap.policy = load::AdmitPolicy::kShed;
        world.gate = std::make_unique<load::QosGate>(
            world.sim(), std::vector<load::TenantQos>{none, cap});
        // The gated run doubles as the telemetry showcase: attribution
        // and the SLO monitor stay on so the snapshot below carries the
        // full attr.* + slo.* key families for the CI --require gate.
        world.hub.enable_attribution();
        obs::SloConfig slo;
        slo.latency_target = sim::milliseconds(50);
        slo.window = sim::milliseconds(500);
        world.hub.enable_slo(slo);
      }
      const load::OpenLoopResult r =
          load::run_open_loop(*world.engine, cfg, world.gate.get());
      struct Out {
        double t0_p99_ms;
        double t0_goodput;
        std::uint64_t t1_admitted;
        std::uint64_t t1_shed;
        double t1_admitted_mb;
      } out{r.tenants[0].latency.quantile(0.99) / 1e6,
            r.tenants[0].goodput_mbs,
            gated ? world.gate->stats(1).admitted
                  : (r.tenants.size() > 1 ? r.tenants[1].completed : 0),
            r.tenants.size() > 1 ? r.tenants[1].shed : 0,
            gated ? static_cast<double>(world.gate->stats(1).admitted_bytes) /
                        1e6
                  : 0.0};
      // The gated run's world carries the full load.* + qos.* key
      // families; snapshot it into the report for the CI --require gate.
      if (gated) bench::add_obs(json, "obs_saturation", world);
      return out;
    };

    const auto solo = run(false, false);
    const auto contended = run(true, false);
    const auto gated = run(true, true);
    sim::TablePrinter table({"run", "steady_p99_ms", "steady_goodput_mbs",
                             "bursty_admitted", "bursty_shed",
                             "bursty_adm_mb"});
    table.add_row({"solo", fmt(solo.t0_p99_ms), fmt(solo.t0_goodput), "-",
                   "0", "-"});
    table.add_row({"contended", fmt(contended.t0_p99_ms),
                   fmt(contended.t0_goodput),
                   std::to_string(contended.t1_admitted),
                   std::to_string(contended.t1_shed), "-"});
    table.add_row({"gated", fmt(gated.t0_p99_ms), fmt(gated.t0_goodput),
                   std::to_string(gated.t1_admitted),
                   std::to_string(gated.t1_shed),
                   fmt(gated.t1_admitted_mb)});
    std::printf("QoS isolation: steady 300 ops/s tenant vs 10x burst "
                "neighbor\n");
    table.print();
    std::printf("\n");
    json.add("qos_solo_p99_ms", solo.t0_p99_ms);
    json.add("qos_contended_p99_ms", contended.t0_p99_ms);
    json.add("qos_gated_p99_ms", gated.t0_p99_ms);
    json.add("qos_bursty_admitted", gated.t1_admitted);
    json.add("qos_bursty_shed", gated.t1_shed);
    // Demonstrable isolation: the gate must claw back most of the p99
    // inflation the burst caused.  A factor-of-two margin keeps the gate
    // meaningful without being brittle at smoke scale.
    if (contended.t0_p99_ms > 2.0 * solo.t0_p99_ms &&
        gated.t0_p99_ms > 0.5 * contended.t0_p99_ms) {
      std::fprintf(stderr,
                   "saturation: QoS gate failed to isolate the steady "
                   "tenant (solo %.2f ms, contended %.2f ms, gated %.2f "
                   "ms)\n",
                   solo.t0_p99_ms, contended.t0_p99_ms, gated.t0_p99_ms);
      return 1;
    }
  }

  // --- Trace capture: sampled tracing through a past-the-knee run. ---
  // Selective tracing stays on through an overloaded RAID-x run: a 1%
  // sampling coin plus the always-capture reservoir of the 16 slowest
  // requests.  The reservoir is exported as a Chrome trace artifact so
  // every saturation report ships the spans that explain its own p999.
  {
    World world(bench::perf_trojans(), Arch::kRaidX, bench::paper_engine());
    world.hub.tracing = true;
    obs::SampleConfig sc;
    sc.probability = 0.01;
    sc.reservoir = 16;
    sc.seed = 7;
    world.hub.tracer().set_selective(sc);
    world.hub.enable_attribution();
    load::TenantLoad t;
    t.rate_ops = 1200.0;  // past the knee: the reservoir catches the backlog
    t.working_set_blocks = 65536;
    t.sessions = 4096;
    load::OpenLoopConfig cfg;
    cfg.tenants = {t};
    cfg.duration = sim::seconds(bench::smoke_pick(2.0, 1.0));
    const load::OpenLoopResult r = load::run_open_loop(*world.engine, cfg);

    const obs::Tracer& tracer = world.hub.tracer();
    const auto entries = tracer.reservoir_entries();
    const std::size_t want =
        std::min<std::size_t>(sc.reservoir, static_cast<std::size_t>(r.completed));
    const sim::Time slowest = entries.empty() ? 0 : entries.front().first;
    // The reservoir is an exact top-K: its slowest entry must equal the
    // latency histogram's maximum (same instants, same clock).
    if (tracer.reservoir_count() != want ||
        static_cast<std::uint64_t>(slowest) != r.latency.max()) {
      std::fprintf(stderr,
                   "saturation: trace reservoir failed to capture the tail "
                   "(%zu/%zu entries, slowest %.3f ms vs max %.3f ms)\n",
                   tracer.reservoir_count(), want, slowest / 1e6,
                   static_cast<double>(r.latency.max()) / 1e6);
      return 1;
    }
    std::string err;
    if (!tracer.export_chrome_reservoir("BENCH_saturation_traces.json",
                                        world.sim().now(), &err)) {
      std::fprintf(stderr, "saturation: %s\n", err.c_str());
      return 1;
    }
    std::printf("trace capture @1200 ops/s: %llu sampled + %zu reservoir "
                "trace(s) of %llu requests; slowest %.3f ms -> "
                "BENCH_saturation_traces.json\n\n",
                static_cast<unsigned long long>(tracer.sampled_kept()),
                tracer.reservoir_count(),
                static_cast<unsigned long long>(r.completed),
                slowest / 1e6);
    json.add("trace_requests", r.completed);
    json.add("trace_sampled_kept", tracer.sampled_kept());
    json.add("trace_reservoir", static_cast<std::uint64_t>(
                                    tracer.reservoir_count()));
    json.add("trace_slowest_ms", slowest / 1e6);
  }

  bench::write_bench_json("saturation", json);
  return 0;
}
