// raidxsim -- command-line experiment runner for the RAID-x simulator.
//
// Lets a user sweep any point of the design space without writing code:
//
//   raidxsim --arch raidx --nodes 16 --disks 1 --clients 8
//            --op read --bytes 64M --ops 1
//   raidxsim --arch raid5 --clients 16 --op write --bytes 32K --ops 40
//            --scattered --fail 3
//   raidxsim --arch nfs --clients 12 --op read --bytes 8M --verbose
//
// Prints aggregate and sustained bandwidth, per-op latency percentiles,
// and per-resource utilization.
#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cache/cache_fabric.hpp"
#include "cluster/cluster.hpp"
#include "cluster/sharded.hpp"
#include "cluster/world.hpp"
#include "ha/fault_plan.hpp"
#include "ha/ha.hpp"
#include "integrity/integrity.hpp"
#include "load/open_loop.hpp"
#include "load/qos.hpp"
#include "obs/obs.hpp"
#include "sim/spec.hpp"
#include "sim/stats.hpp"
#include "wan/federation.hpp"
#include "workload/andrew.hpp"
#include "workload/engines.hpp"
#include "workload/parallel_io.hpp"
#include "workload/trace.hpp"

using namespace raidx;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --arch raid0|raid1|raid5|raid10|raidx|nfs   architecture (default "
      "raidx)\n"
      "  --nodes N          cluster nodes (default 16)\n"
      "  --shards S         partition the cluster into S placement groups\n"
      "                     simulated in parallel under conservative time-\n"
      "                     window sync (default 1 = the classic engine).\n"
      "                     Every group is a full world (cache, QoS, HA,\n"
      "                     integrity, device mix).  S > 1 needs:\n"
      "                       --open-loop (closed loops run one world)\n"
      "                       nodes divisible by S, >= 2 nodes per group\n"
      "                       (the groups are identical arrays)\n"
      "                       a block engine (nfs has one central server)\n"
      "                       no --trace/--trace-sample/--slo/--watch\n"
      "                       (each shard has its own hub; not merged yet)\n"
      "  --threads T        worker threads driving the shards (default 1;\n"
      "                     changes wall-clock only, never results)\n"
      "  --sites S          federate S identical sites (each a full\n"
      "                     --nodes x --disks world) over a WAN mesh\n"
      "                     (default 1 = the classic engine).  S > 1 needs\n"
      "                     --open-loop and a block engine, as --shards\n"
      "                     does, and does not combine with --shards yet\n"
      "  --wan-rtt MS       inter-site round-trip propagation (default 40)\n"
      "  --wan-bw MBS       inter-site link bandwidth, MB/s (default 60)\n"
      "  --wan-window SZ    per-flow in-flight window, K/M suffix ok\n"
      "                     (default 1M; below the BDP it caps each flow\n"
      "                     at window/RTT)\n"
      "  --geo-rep          asynchronously mirror each site's primary\n"
      "                     region to every peer (bounded-staleness\n"
      "                     accounting; reads degrade to the mirror when\n"
      "                     the origin is unreachable)\n"
      "  --geo-rep-mbs X    throttle each replication stream's catch-up at\n"
      "                     X MB/s (default 0 = uncapped)\n"
      "  --disks K          disks per node (default 1)\n"
      "  --clients C        parallel clients (default 8)\n"
      "  --op read|write    operation (default read)\n"
      "  --bytes SZ         bytes per op, whole blocks (default 64M)\n"
      "  --ops N            ops per client (default 1)\n"
      "  --scattered        scatter ops over the client region\n"
      "  --block SZ         stripe unit (default 32K)\n"
      "  --fail D           fail disk D before the run (repeatable; ids\n"
      "                     span every shard or site, like --faults)\n"
      "  --disk-type T      hdd|ssd|hybrid device mix (default hdd).\n"
      "                     ssd and hybrid accept ':key=val,...' tuning:\n"
      "                       op=F            over-provisioning fraction "
      "(default 0.07)\n"
      "                       gc=greedy|costben  victim selection (default "
      "greedy)\n"
      "                     hybrid splits each node's disks: top half SSD\n"
      "                     (data), bottom half HDD (mirror images); needs\n"
      "                     --arch raid1|raid10|raidx and an even --disks\n"
      "                     (raid1: even/odd disk of each pair instead)\n"
      "  --no-bg-mirrors    RAID-x: synchronous image writes\n"
      "  --no-locks         disable lock-group traffic\n"
      "  --window W         outstanding chunks per stream (default 2)\n"
      "  --cache-mb MB      per-node block cache capacity (default 0 = "
      "off)\n"
      "  --cache-policy P   none|wt|wb: write-through or write-back "
      "(default wt)\n"
      "  --cache-evict E    lru|2q eviction (default lru)\n"
      "  --coop-cache       serve misses from peer memory (cooperative)\n"
      "  --warm N           unmeasured warm passes before the measured run\n"
      "  --workload W       io|andrew: synthetic parallel I/O (default) or\n"
      "                     the 5-phase Andrew benchmark (stores real bytes)\n"
      "  --faults SPEC      chaos plan, e.g. 'fail:disk=3@2s;heal:disk=3@8s'\n"
      "                     or 'rand:seed=7,faults=2,window=10s,heal=3s';\n"
      "                     implies --ha unless --no-ha is given (or the\n"
      "                     plan only touches WAN sites and links).  Silent\n"
      "                     corruption: 'corrupt:disk=3,block=17@2s' or\n"
      "                     'rot:seed=7,errors=5,window=10s' (bit-rot storm).\n"
      "                     Disk and node ids span every shard or site.\n"
      "                     WAN chaos (needs --sites > 1):\n"
      "                     'partition:site=1@5s;heal:site=1@15s' or\n"
      "                     'brownout:link=0,bw=5@3s;heal:link=0@9s'\n"
      "  --verify-reads     checksum-verify every read at the serving CDD\n"
      "  --scrub-rate X     background scrub daemon capped at X MB/s\n"
      "                     (default 0 = no scrubbing)\n"
      "  --fail-threshold N escalate a disk to whole-disk failure after N\n"
      "                     detected corrupt blocks (default 0 = off)\n"
      "  --ha               enable recovery orchestration (detector, hot\n"
      "                     spares, auto-rebuild)\n"
      "  --no-ha            inject --faults without any orchestration\n"
      "  --spares N         hot spares per node (default 1)\n"
      "  --global-spares N  shared overflow spare pool (default 0)\n"
      "  --rebuild-mbs X    cap auto-rebuild writes at X MB/s (default 0 = "
      "uncapped)\n"
      "  --timeout-ms X     client-side CDD timeout on remote read/write "
      "RPCs\n"
      "                     (default 0 = wait forever; required with "
      "part: faults)\n"
      "  --open-loop SPEC   open-loop (rate-driven) traffic instead of the\n"
      "                     closed-loop synthetic workload.  SPEC is\n"
      "                     comma-separated key=value pairs:\n"
      "                       rate=OPS        arrivals/s per tenant "
      "(default 1000)\n"
      "                       dist=poisson|burst  arrival process (default "
      "poisson)\n"
      "                       zipf=A          Zipf skew over the working set "
      "(default 0 = uniform)\n"
      "                       tenants=N       tenants sharing the array "
      "(default 1)\n"
      "                       sessions=N      client sessions per tenant "
      "(default 1024)\n"
      "                       duration=S      arrival window in seconds "
      "(default 1)\n"
      "                       write=F         write fraction (default 0)\n"
      "                       req-blocks=N    blocks per request (default 1)\n"
      "                       ws=BLOCKS       working-set blocks per tenant "
      "(default 4096)\n"
      "                       qos-mbs=X       per-tenant token-bucket rate "
      "(default 0 = no gate)\n"
      "                       qos-burst=MB    token-bucket burst (default 1)\n"
      "                       qos-policy=reject|queue|shed  (default shed)\n"
      "                       burst-on=S burst-off=S burst-mult=X  ON-OFF "
      "shape (dist=burst)\n"
      "                       cap=N           max requests in flight "
      "(default 4M)\n"
      "                       remote=F        fraction of arrivals executed\n"
      "                     on the next shard over the spine (needs --shards "
      "> 1)\n"
      "                     or on a peer site over the WAN (with --sites > "
      "1)\n"
      "  --seed S           workload seed (default 42)\n"
      "  --replay FILE      replay a block trace instead of the synthetic "
      "workload\n"
      "  --dump-trace FILE  write a generated trace (clients/ops/seed "
      "apply) and exit\n"
      "  --trace FILE       write a Chrome trace-event JSON of the run "
      "(view in about:tracing / Perfetto)\n"
      "  --trace-sample SPEC  selective tracing (needs --trace): head-based\n"
      "                     sampling plus an always-capture reservoir of "
      "the\n"
      "                     slowest completed requests.  key=value pairs:\n"
      "                       p=0.01 reservoir=16 seed=1\n"
      "  --slo SPEC         latency SLO monitor over open-loop traffic; "
      "burn-\n"
      "                     rate breach/recovery events land in the "
      "cluster\n"
      "                     event log.  key=value pairs (defaults shown):\n"
      "                       target=50ms objective=0.999 window=500ms "
      "burn=2\n"
      "  --watch SPEC       sim-time series scraper; prints a sparkline "
      "table\n"
      "                     after the run.  key=value pairs:\n"
      "                       interval=250ms samples=240 out=FILE (JSON)\n"
      "                     (samples in [2, 1048576])\n"
      "  --metrics FILE     write the metrics-registry snapshot as JSON\n"
      "                     (with --slo the file becomes "
      "{\"metrics\":...,\"events\":[...]})\n"
      "  --verbose          per-client and per-resource detail\n"
      "Sizes (SZ) take an optional K, M or G suffix.  Durations need a unit,\n"
      "ns|us|ms|s: a bare number such as target=50 is an error.  Rates in\n"
      "MB/s are at least 0.001 (or 0 where it means off).  Flags also\n"
      "accept --flag=value form.  A malformed value exits 2, citing it.\n",
      argv0);
  std::exit(2);
}

/// Throw the message as std::invalid_argument; main prints it after
/// "argv0: " and exits 2.
[[gnu::format(printf, 1, 2)]] [[noreturn]] void reject(const char* fmt, ...) {
  va_list args;
  va_list size_args;
  va_start(args, fmt);
  va_copy(size_args, args);
  std::string msg(
      static_cast<std::size_t>(std::vsnprintf(nullptr, 0, fmt, size_args)),
      '\0');
  va_end(size_args);
  std::vsnprintf(msg.data(), msg.size() + 1, fmt, args);
  va_end(args);
  throw std::invalid_argument(msg);
}

/// A number that must be > 0, and at most `max`.
double positive(std::string_view text, std::string_view where,
                double max = std::numeric_limits<double>::max()) {
  const double v = sim::parse_number(text, where, 0.0, max);
  if (v == 0.0) {
    sim::spec_error(where, std::string(1, '\'').append(text) + "' must be > 0");
  }
  return v;
}

/// Parsed --open-loop spec: every tenant gets the same shape; the QoS keys
/// build one gate covering them all (qos-mbs=0 means no gate at all).
struct OpenLoopCli {
  int tenants = 1;
  load::TenantLoad shape;
  double duration_s = 1.0;
  std::size_t cap = std::size_t{1} << 22;
  double qos_mbs = 0.0;
  double qos_burst_mb = 1.0;
  load::AdmitPolicy policy = load::AdmitPolicy::kShed;
  double remote = 0.0;  // cross-shard fraction (needs --shards > 1)
};

OpenLoopCli parse_open_loop_spec(std::string_view spec) {
  constexpr double kMaxS = sim::kMaxSpanSeconds;
  OpenLoopCli cli;
  load::TenantLoad& s = cli.shape;
  for (const sim::Clause& c : sim::parse_clauses(spec, ',', "--open-loop")) {
    if (c.key == "rate") s.rate_ops = positive(c.value, c.where);
    else if (c.key == "dist") {
      s.dist = c.choice<load::ArrivalDist>(
          {{"poisson", load::ArrivalDist::kPoisson},
           {"burst", load::ArrivalDist::kBurst}});
    }
    else if (c.key == "zipf") s.zipf_alpha = c.number(0.0);
    else if (c.key == "tenants") cli.tenants = c.number(1);
    else if (c.key == "sessions") s.sessions = c.number(1);
    else if (c.key == "duration") {
      cli.duration_s = positive(c.value, c.where, kMaxS);
    }
    else if (c.key == "write") s.write_fraction = c.number(0.0, 1.0);
    else if (c.key == "req-blocks") s.blocks_per_op = c.number(1u);
    else if (c.key == "ws") s.working_set_blocks = c.number<std::uint64_t>();
    else if (c.key == "qos-mbs") cli.qos_mbs = c.rate(true);
    else if (c.key == "qos-burst") cli.qos_burst_mb = c.number(0.0);
    else if (c.key == "qos-policy") {
      cli.policy = c.choice<load::AdmitPolicy>(
          {{"reject", load::AdmitPolicy::kReject},
           {"queue", load::AdmitPolicy::kQueue},
           {"shed", load::AdmitPolicy::kShed}});
    }
    else if (c.key == "burst-on") s.burst_on_s = c.number(0.0, kMaxS);
    else if (c.key == "burst-off") s.burst_off_s = c.number(0.0, kMaxS);
    else if (c.key == "burst-mult") s.burst_mult = c.number(0.0);
    else if (c.key == "cap") cli.cap = c.number<std::size_t>();
    else if (c.key == "remote") cli.remote = c.number(0.0, 1.0);
    else c.unknown_key();
  }
  return cli;
}

/// Parsed --disk-type: which device model backs each array slot, plus the
/// flash tuning shared by every SSD in the run.
struct DiskTypeCli {
  workload::DiskType kind = workload::DiskType::kHdd;
  flash::FlashParams flash;
};

/// "hdd", "ssd", "hybrid", optionally ':key=val,...' (ssd/hybrid only).
DiskTypeCli parse_disk_type_spec(std::string_view spec) {
  DiskTypeCli cli;
  const std::size_t colon = spec.find(':');
  cli.kind = sim::parse_choice<workload::DiskType>(
      spec.substr(0, colon), "--disk-type",
      {{"hdd", workload::DiskType::kHdd},
       {"ssd", workload::DiskType::kSsd},
       {"hybrid", workload::DiskType::kHybrid}});
  if (colon == std::string_view::npos) return cli;
  const std::string_view tail = spec.substr(colon + 1);
  if (cli.kind == workload::DiskType::kHdd) {
    reject("--disk-type hdd takes no tuning spec ('%.*s' tunes the flash "
           "model; use ssd:... or hybrid:...)",
           static_cast<int>(tail.size()), tail.data());
  }
  for (const sim::Clause& c : sim::parse_clauses(tail, ',', "--disk-type")) {
    if (c.key == "op") {
      cli.flash.over_provision = c.number(0.0);
      if (cli.flash.over_provision >= 1.0) c.fail("needs a fraction in [0, 1)");
    } else if (c.key == "gc") {
      cli.flash.gc_policy = c.choice<flash::GcPolicy>(
          {{"greedy", flash::GcPolicy::kGreedy},
           {"costben", flash::GcPolicy::kCostBenefit}});
    } else {
      c.unknown_key();
    }
  }
  return cli;
}

obs::SloConfig parse_slo_spec(std::string_view spec) {
  obs::SloConfig cfg;
  for (const sim::Clause& c : sim::parse_clauses(spec, ',', "--slo")) {
    if (c.key == "target") cfg.latency_target = c.duration(1);
    else if (c.key == "objective") {
      cfg.objective = c.number(0.0, 1.0);
      if (cfg.objective == 0.0 || cfg.objective == 1.0) {
        c.fail("needs an objective in (0, 1)");
      }
    }
    else if (c.key == "window") cfg.window = c.duration(1);
    else if (c.key == "burn") cfg.burn_alert = positive(c.value, c.where);
    else c.unknown_key();
  }
  return cfg;
}

struct WatchCli {
  /// The scraper reserves every sample up front.
  static constexpr std::size_t kMaxSamples = std::size_t{1} << 20;
  sim::Time interval = sim::milliseconds(250);
  std::size_t samples = 240;
  std::string out;
};

WatchCli parse_watch_spec(std::string_view spec) {
  WatchCli cli;
  for (const sim::Clause& c : sim::parse_clauses(spec, ',', "--watch")) {
    if (c.key == "interval") cli.interval = c.duration(1);
    else if (c.key == "samples") {
      cli.samples = c.number<std::size_t>(2, WatchCli::kMaxSamples);
    }
    else if (c.key == "out") cli.out = c.value;
    else c.unknown_key();
  }
  return cli;
}

obs::SampleConfig parse_trace_sample_spec(std::string_view spec) {
  obs::SampleConfig cfg;
  for (const sim::Clause& c :
       sim::parse_clauses(spec, ',', "--trace-sample")) {
    if (c.key == "p") cfg.probability = c.number(0.0, 1.0);
    else if (c.key == "reservoir") cfg.reservoir = c.number<std::size_t>();
    else if (c.key == "seed") cfg.seed = c.number<std::uint64_t>();
    else c.unknown_key();
  }
  if (cfg.probability == 0.0 && cfg.reservoir == 0) {
    reject("--trace-sample needs at least one of p > 0 or reservoir > 0");
  }
  return cfg;
}

/// Every flag of one run.  parse_args() fills it, validate() checks every
/// combination in one place and parses the specs, and run() builds, arms,
/// drives and reports the run's worlds.
struct Scenario {
  workload::Arch arch = workload::Arch::kRaidX;
  int nodes = 16, disks = 1, clients = 8, ops = 1, window = 2;
  int shards = 1, threads = 0, sites = 1;
  std::uint64_t bytes = 64ull << 20;
  std::uint32_t block = 32'768;
  bool is_write = false, scattered = false, verbose = false;
  bool bg_mirrors = true, locks = true;
  std::uint64_t seed = 42;
  std::vector<int> fails;
  std::string replay_file, dump_trace_file, trace_out, metrics_out;
  double cache_mb = 0.0;
  std::string cache_policy = "wt";
  std::string cache_evict = "lru";
  bool coop_cache = false;
  int warm = 0;
  std::string workload_kind = "io";
  std::string faults_spec;
  bool ha_on = false, no_ha = false;
  int spares = 1, global_spares = 0;
  double rebuild_mbs = 0.0, timeout_ms = 0.0;
  bool verify_reads = false;
  double scrub_rate = 0.0;
  int fail_threshold = 0;
  std::string open_loop_spec, disk_type_spec;
  std::string slo_spec, watch_spec, trace_sample_spec;
  bool slo_on = false, watch_on = false, trace_sample_on = false;
  double wan_rtt_ms = 40.0, wan_bw = 60.0;
  std::uint64_t wan_window = std::uint64_t{1} << 20;
  bool geo_rep = false;
  double geo_rep_mbs = 0.0;
  bool wan_rtt_set = false, wan_bw_set = false, wan_window_set = false,
       geo_rep_mbs_set = false;

  // Parsed specs, filled by validate().
  OpenLoopCli olcli;
  DiskTypeCli dtcli;
  obs::SloConfig slo_cfg;
  WatchCli wcli;
  obs::SampleConfig ts_cfg;
  cache::CacheParams cache;

  bool open_loop() const { return !open_loop_spec.empty(); }
  /// Sub-worlds the run builds: S placement groups, N sites, or one.
  int worlds() const { return shards > 1 ? shards : sites; }
  const char* world_kind() const { return shards > 1 ? "shard" : "site"; }
  /// --nodes is the total under --shards and per site under --sites.
  int nodes_per_world() const { return shards > 1 ? nodes / shards : nodes; }
};

Scenario parse_args(int argc, char** argv) {
  constexpr double kMaxMs = sim::kMaxSpanSeconds * 1e3;
  Scenario sc;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    // Accept --flag=value as well as --flag value.
    std::string inline_value;
    bool has_inline = false;
    if (a.rfind("--", 0) == 0) {
      const std::size_t eq = a.find('=');
      if (eq != std::string::npos) {
        inline_value = a.substr(eq + 1);
        a = a.substr(0, eq);
        has_inline = true;
      }
    }
    bool consumed_value = false;
    auto next = [&]() -> std::string {
      consumed_value = true;
      if (has_inline) return inline_value;
      if (i + 1 >= argc) reject("missing value for %s", a.c_str());
      return argv[++i];
    };
    // An empty --open-loop, --disk-type or --faults would silently run
    // without the mode it names.
    auto spec = [&] {
      std::string v = next();
      if (v.empty()) reject("%s needs a spec, not ''", a.c_str());
      return v;
    };
    // A numeric flag: the whole value parses, inside [min, max].
    auto num = [&]<typename T>(T& field,
                               T min = std::numeric_limits<T>::lowest(),
                               T max = std::numeric_limits<T>::max()) {
      field = sim::parse_number<T>(next(), a, min, max);
    };
    if (a == "--arch") {
      sc.arch = sim::parse_choice<workload::Arch>(
          next(), a,
          {{"raid0", workload::Arch::kRaid0},
           {"raid1", workload::Arch::kRaid1},
           {"raid5", workload::Arch::kRaid5},
           {"raid10", workload::Arch::kRaid10},
           {"raidx", workload::Arch::kRaidX},
           {"nfs", workload::Arch::kNfs}});
    }
    else if (a == "--nodes") num(sc.nodes, 2);
    else if (a == "--shards") num(sc.shards, 1);
    else if (a == "--sites") num(sc.sites, 1);
    else if (a == "--wan-rtt") { sc.wan_rtt_ms = positive(next(), a, kMaxMs); sc.wan_rtt_set = true; }
    else if (a == "--wan-bw") { sc.wan_bw = sim::parse_rate(next(), a, false); sc.wan_bw_set = true; }
    else if (a == "--wan-window") { sc.wan_window = sim::parse_size(next(), a, 1); sc.wan_window_set = true; }
    else if (a == "--geo-rep") sc.geo_rep = true;
    else if (a == "--geo-rep-mbs") { sc.geo_rep_mbs = sim::parse_rate(next(), a, true); sc.geo_rep_mbs_set = true; }
    else if (a == "--threads") num(sc.threads, 0);
    else if (a == "--disks") num(sc.disks, 1);
    else if (a == "--clients") num(sc.clients, 1);
    else if (a == "--op") sc.is_write = sim::parse_choice<bool>(next(), a, {{"read", false}, {"write", true}});
    else if (a == "--bytes") sc.bytes = sim::parse_size(next(), a, 1);
    else if (a == "--ops") num(sc.ops, 1);
    else if (a == "--scattered") sc.scattered = true;
    else if (a == "--block") {
      sc.block = static_cast<std::uint32_t>(sim::parse_size(
          next(), a, 1, std::numeric_limits<std::uint32_t>::max()));
    }
    else if (a == "--fail") sc.fails.push_back(sim::parse_number<int>(next(), a));
    else if (a == "--disk-type") sc.disk_type_spec = spec();
    else if (a == "--no-bg-mirrors") sc.bg_mirrors = false;
    else if (a == "--no-locks") sc.locks = false;
    else if (a == "--window") num(sc.window, 1);
    else if (a == "--cache-mb") num(sc.cache_mb, 0.0);
    else if (a == "--cache-policy") {
      sc.cache_policy = sim::parse_choice<std::string_view>(
          next(), a, {{"none", "none"}, {"wt", "wt"}, {"wb", "wb"}});
    }
    else if (a == "--cache-evict") {
      sc.cache_evict = sim::parse_choice<std::string_view>(
          next(), a, {{"lru", "lru"}, {"2q", "2q"}});
    }
    else if (a == "--coop-cache") sc.coop_cache = true;
    else if (a == "--warm") num(sc.warm, 0);
    else if (a == "--workload") {
      sc.workload_kind = sim::parse_choice<std::string_view>(
          next(), a, {{"io", "io"}, {"andrew", "andrew"}});
    }
    else if (a == "--faults") sc.faults_spec = spec();
    else if (a == "--ha") sc.ha_on = true;
    else if (a == "--no-ha") sc.no_ha = true;
    else if (a == "--spares") num(sc.spares, 0);
    else if (a == "--global-spares") num(sc.global_spares, 0);
    else if (a == "--rebuild-mbs") sc.rebuild_mbs = sim::parse_rate(next(), a, true);
    else if (a == "--timeout-ms") num(sc.timeout_ms, 0.0, kMaxMs);
    else if (a == "--verify-reads") sc.verify_reads = true;
    else if (a == "--scrub-rate") sc.scrub_rate = sim::parse_rate(next(), a, true);
    else if (a == "--fail-threshold") num(sc.fail_threshold, 0);
    else if (a == "--seed") num(sc.seed);
    else if (a == "--open-loop") sc.open_loop_spec = spec();
    else if (a == "--replay") sc.replay_file = next();
    else if (a == "--dump-trace") sc.dump_trace_file = next();
    else if (a == "--trace") sc.trace_out = next();
    else if (a == "--trace-sample") { sc.trace_sample_spec = next(); sc.trace_sample_on = true; }
    else if (a == "--slo") { sc.slo_spec = next(); sc.slo_on = true; }
    else if (a == "--watch") { sc.watch_spec = next(); sc.watch_on = true; }
    else if (a == "--metrics") sc.metrics_out = next();
    else if (a == "--verbose") sc.verbose = true;
    else {
      std::fprintf(stderr, "%s: unknown option %s\n\n", argv[0], a.c_str());
      usage(argv[0]);
    }
    if (has_inline && !consumed_value) reject("%s takes no value", a.c_str());
  }
  return sc;
}

void check_working_sets(const Scenario& sc);

/// Reject every flag combination that would silently do nothing, or that
/// no world can run, before anything expensive is built; each rejection
/// states its reason.  Parses the specs into `sc`.
void validate(Scenario& sc) {
  const bool cache_on = sc.cache_mb > 0.0 && sc.cache_policy != "none";
  if (sc.warm > 0 && !cache_on) {
    reject("--warm only makes sense with a cache; add --cache-mb (or drop "
           "--warm)");
  }
  if (sc.warm > 0 && (sc.open_loop() || !sc.replay_file.empty() ||
                      sc.workload_kind == "andrew")) {
    reject("--warm runs unmeasured passes of the synthetic parallel I/O "
           "workload; --open-loop, --replay and --workload andrew have none "
           "(drop --warm)");
  }
  if (sc.coop_cache && !cache_on) {
    reject("--coop-cache requires a cache; add --cache-mb");
  }
  if (sc.ha_on && sc.no_ha) reject("--ha and --no-ha conflict");
  if (sc.workload_kind == "andrew" && !sc.replay_file.empty()) {
    reject("--workload andrew and --replay conflict");
  }
  if (sc.open_loop() && (sc.workload_kind == "andrew" ||
                         !sc.replay_file.empty() ||
                         !sc.dump_trace_file.empty())) {
    reject("--open-loop replaces the workload; it conflicts with --workload "
           "andrew, --replay, and --dump-trace");
  }
  // Only the synthetic parallel I/O workload moves --bytes per op.
  if (!sc.open_loop() && sc.replay_file.empty() &&
      sc.dump_trace_file.empty() && sc.workload_kind == "io" &&
      sc.bytes % sc.block != 0) {
    reject("--bytes %llu is not a whole number of %u-byte blocks (--block)",
           static_cast<unsigned long long>(sc.bytes), sc.block);
  }
  // Parse the specs before building anything expensive (a bad clause must
  // fail in milliseconds), but only when given.
  if (sc.open_loop()) sc.olcli = parse_open_loop_spec(sc.open_loop_spec);
  if (!sc.disk_type_spec.empty()) {
    sc.dtcli = parse_disk_type_spec(sc.disk_type_spec);
  }
  if (sc.dtcli.kind == workload::DiskType::kHybrid) {
    if (sc.arch != workload::Arch::kRaid1 &&
        sc.arch != workload::Arch::kRaid10 &&
        sc.arch != workload::Arch::kRaidX) {
      reject("--disk-type hybrid places primaries on SSD and mirror images "
             "on HDD; it needs a mirrored layout (--arch raid1|raid10|raidx)");
    }
    if (sc.arch != workload::Arch::kRaid1 && sc.disks % 2 != 0) {
      reject("--disk-type hybrid splits each node's disk rows in half (SSD "
             "data rows over HDD image rows); --disks %d must be even",
             sc.disks);
    }
  }

  // Federations: --shards and --sites build S or N identical worlds.
  if (sc.threads > 0 && sc.shards == 1) {
    reject("--threads drives the shard worker pool; it needs --shards > 1");
  }
  if (sc.olcli.remote > 0.0 && sc.shards == 1 && sc.sites == 1) {
    reject("--open-loop remote=%g sends traffic across shards or sites; it "
           "needs --shards > 1 or --sites > 1",
           sc.olcli.remote);
  }
  if (sc.sites == 1 &&
      (sc.wan_rtt_set || sc.wan_bw_set || sc.wan_window_set || sc.geo_rep)) {
    reject("--wan-rtt/--wan-bw/--wan-window/--geo-rep shape the inter-site "
           "WAN; they need --sites > 1");
  }
  if (sc.geo_rep_mbs_set && !sc.geo_rep) {
    reject("--geo-rep-mbs throttles replication catch-up; add --geo-rep");
  }
  if (sc.worlds() > 1) {
    const char* flag = sc.shards > 1 ? "--shards" : "--sites";
    if (sc.shards > 1 && sc.sites > 1) {
      reject("--sites and --shards do not compose yet (sites placed on "
             "shards are a planned follow-up); pick one");
    }
    if (!sc.open_loop()) {
      reject("%s %d drives each world with open-loop traffic; add "
             "--open-loop SPEC (the closed-loop workloads run one world; "
             "per-world closed loops are a planned follow-up)",
             flag, sc.worlds());
    }
    if (sc.arch == workload::Arch::kNfs) {
      reject("%s needs a block engine per world; --arch nfs has one central "
             "server and cannot federate",
             flag);
    }
  }
  if (sc.shards > 1) {
    if (sc.nodes % sc.shards != 0) {
      reject("--nodes %d is not divisible by --shards %d (every placement "
             "group must be identical)",
             sc.nodes, sc.shards);
    }
    if (sc.nodes / sc.shards < 2) {
      reject("--nodes %d over --shards %d leaves %d node(s) per group; the "
             "array geometry needs >= 2",
             sc.nodes, sc.shards, sc.nodes / sc.shards);
    }
    if (!sc.trace_out.empty() || sc.trace_sample_on || sc.slo_on ||
        sc.watch_on) {
      reject("--trace/--trace-sample/--slo/--watch attach to one "
             "simulation's hub, and every shard has its own; they do not "
             "support --shards > 1 yet");
    }
  }

  // Telemetry specs: a sampler without a trace file, or an SLO with no
  // open-loop traffic to observe, would silently do nothing.
  if (sc.trace_sample_on && sc.trace_out.empty()) {
    reject("--trace-sample needs --trace FILE");
  }
  if (sc.slo_on && !sc.open_loop()) {
    reject("--slo monitors open-loop traffic; add --open-loop");
  }
  if (sc.slo_on) sc.slo_cfg = parse_slo_spec(sc.slo_spec);
  if (sc.watch_on) sc.wcli = parse_watch_spec(sc.watch_spec);
  if (sc.trace_sample_on) {
    sc.ts_cfg = parse_trace_sample_spec(sc.trace_sample_spec);
  }
  if (!sc.replay_file.empty() && !sc.dump_trace_file.empty()) {
    reject("--replay and --dump-trace conflict (replay consumes a trace, "
           "dump-trace only generates one)");
  }
  // Validate output paths up front so a bad path fails in milliseconds,
  // not after the whole simulation has run.
  for (const std::string* out : {&sc.trace_out, &sc.metrics_out, &sc.wcli.out}) {
    if (out->empty()) continue;
    std::ofstream probe(*out);
    if (!probe) reject("cannot write %s", out->c_str());
  }

  if (sc.cache_policy == "none") {
    sc.cache.capacity_blocks = 0;
  } else {
    sc.cache.capacity_blocks = static_cast<std::uint64_t>(
        sc.cache_mb * 1024.0 * 1024.0 / static_cast<double>(sc.block));
    sc.cache.write_policy = sc.cache_policy == "wb"
                                ? cache::WritePolicy::kWriteBack
                                : cache::WritePolicy::kWriteThrough;
  }
  if (sc.cache_evict == "2q") sc.cache.eviction = cache::EvictionPolicy::k2Q;
  sc.cache.cooperative = sc.coop_cache;
  if (sc.open_loop()) check_working_sets(sc);
}

int dump_trace(const Scenario& sc) {
  workload::TraceGenConfig tg;
  tg.clients = sc.clients;
  tg.ops_per_client = sc.ops;
  tg.write_fraction = sc.is_write ? 0.7 : 0.3;
  tg.seed = sc.seed;
  std::ofstream out(sc.dump_trace_file);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", sc.dump_trace_file.c_str());
    return 1;
  }
  out << workload::format_trace(workload::generate_trace(tg));
  std::printf("wrote %d x %d trace records to %s\n", sc.clients, sc.ops,
              sc.dump_trace_file.c_str());
  return 0;
}

/// One world's cluster: --nodes x --disks (nodes per group under
/// --shards), with the device mix --disk-type asks for.
cluster::ClusterParams world_cluster(const Scenario& sc) {
  auto params = cluster::ClusterParams::trojans();
  params.geometry.nodes = sc.nodes_per_world();
  params.geometry.disks_per_node = sc.disks;
  params.geometry.block_bytes = sc.block;
  params.geometry.blocks_per_disk = (10ull << 30) / sc.block;
  // Andrew builds a real file system and verifies its bytes, so the disks
  // must store data; the synthetic sweeps only measure timing.
  params.disk.store_data = sc.workload_kind == "andrew";
  params.flash = sc.dtcli.flash;
  params.device_map =
      workload::device_map(sc.dtcli.kind, sc.arch, params.geometry);
  return params;
}

cluster::WorldParams world_params(const Scenario& sc) {
  cluster::WorldParams wp;
  wp.arch = sc.arch;
  if (sc.timeout_ms > 0) {
    wp.cdd.request_timeout = sim::milliseconds(sc.timeout_ms);
  }
  wp.engine.background_mirrors = sc.bg_mirrors;
  wp.engine.use_locks = sc.locks;
  wp.engine.read_window = sc.window;
  wp.engine.write_window = sc.window;
  wp.engine.hybrid_mirrors = workload::hybrid_mirrors(sc.dtcli.kind, sc.arch);
  wp.cache = sc.cache;
  return wp;
}

/// Tenant working sets are carved back to back from each world's logical
/// space (under --sites, from the site's own primary region).  Reject a
/// set that cannot fit before any world or per-tenant vector exists,
/// citing the clause to shrink: req-blocks= or ws= when one tenant alone
/// overflows, else tenants=.  load::run_open_loop keeps the same bound.
void check_working_sets(const Scenario& sc) {
  const load::TenantLoad& shape = sc.olcli.shape;
  const std::uint64_t per_tenant =
      std::max<std::uint64_t>(
          1, shape.working_set_blocks / shape.blocks_per_op) *
      shape.blocks_per_op;
  const cluster::WorldParams wp = world_params(sc);
  const std::uint64_t capacity =
      workload::logical_blocks(wp.arch, world_cluster(sc).geometry,
                               wp.engine.hybrid_mirrors) /
      static_cast<std::uint64_t>(sc.sites);
  const auto tenants = static_cast<std::uint64_t>(sc.olcli.tenants);
  if (per_tenant <= capacity && tenants <= capacity / per_tenant) return;

  const std::string_view key = shape.blocks_per_op > capacity ? "req-blocks"
                               : per_tenant > capacity        ? "ws"
                                                              : "tenants";
  std::string where = "--open-loop '" + sc.open_loop_spec + "'";
  for (const sim::Clause& c :
       sim::parse_clauses(sc.open_loop_spec, ',', "--open-loop")) {
    if (c.key == key) where = c.where;
  }
  reject("%s: %llu tenant(s) x %llu-block working sets do not fit %s %llu "
         "logical blocks (%llu fit; shrink ws=/tenants= or grow the array)",
         where.c_str(), static_cast<unsigned long long>(tenants),
         static_cast<unsigned long long>(per_tenant),
         sc.sites > 1 ? "each site's primary region of" : "the array's",
         static_cast<unsigned long long>(capacity),
         static_cast<unsigned long long>(capacity / per_tenant));
}

/// Cache counters summed over every world.
cache::CacheStats cache_totals(std::span<cluster::World* const> worlds) {
  cache::CacheStats t;
  for (cluster::World* w : worlds) {
    const cache::CacheStats& s = w->cache->stats();
    t.hits += s.hits;
    t.peer_hits += s.peer_hits;
    t.misses += s.misses;
    t.fills += s.fills;
    t.writes_absorbed += s.writes_absorbed;
    t.invalidations += s.invalidations;
    t.flushes += s.flushes;
    t.evictions += s.evictions;
    t.directory_peak_entries += s.directory_peak_entries;
    t.directory_peak_sharers =
        std::max(t.directory_peak_sharers, s.directory_peak_sharers);
  }
  return t;
}

/// The recovery summary, summed over every world's orchestrator.
void print_ha_summary(std::span<cluster::World* const> worlds,
                      const std::string& across) {
  if (!worlds.front()->orchestrator) return;
  ha::HaStats hs;
  int spares_left = 0;
  for (cluster::World* w : worlds) {
    const ha::HaStats& s = w->orchestrator->stats();
    hs.detections += s.detections;
    hs.detections_by_traffic += s.detections_by_traffic;
    hs.detections_by_probe += s.detections_by_probe;
    hs.failovers += s.failovers;
    hs.rebuilds_completed += s.rebuilds_completed;
    hs.mttr_ns.insert(hs.mttr_ns.end(), s.mttr_ns.begin(), s.mttr_ns.end());
    spares_left += w->orchestrator->spares().total_available();
  }
  std::printf("ha                  : %llu detections (%llu traffic, %llu "
              "probe), %llu failovers, %llu rebuilds, %d spares left%s\n",
              static_cast<unsigned long long>(hs.detections),
              static_cast<unsigned long long>(hs.detections_by_traffic),
              static_cast<unsigned long long>(hs.detections_by_probe),
              static_cast<unsigned long long>(hs.failovers),
              static_cast<unsigned long long>(hs.rebuilds_completed),
              spares_left, across.c_str());
  if (!hs.mttr_ns.empty()) {
    double sum = 0;
    for (sim::Time t : hs.mttr_ns) sum += static_cast<double>(t);
    std::printf("ha mttr             : %8.3f s mean over %zu recoveries\n",
                sum / static_cast<double>(hs.mttr_ns.size()) * 1e-9,
                hs.mttr_ns.size());
  }
}

/// The integrity summary, summed over every world's plane (unrecoverable
/// blocks cite run-global disk ids).  Returns nonzero when the scrub soak
/// failed to converge: with the daemon on, every injected error must be
/// accounted for -- detected (and repaired or explicitly listed
/// unrecoverable), overwritten by traffic, or superseded by a whole-disk
/// recovery -- and no repair may have errored out.  CI runs storms
/// through this gate.
int print_integrity_summary(std::span<cluster::World* const> worlds) {
  if (!worlds.front()->plane) return 0;
  const integrity::IntegrityParams& params = worlds.front()->plane->params();
  integrity::IntegrityStats is;
  std::uint64_t undetected = 0;
  for (std::size_t w = 0; w < worlds.size(); ++w) {
    const integrity::IntegrityPlane& plane = *worlds[w]->plane;
    const integrity::IntegrityStats& s = plane.stats();
    is.injected += s.injected;
    is.detected += s.detected;
    is.detected_by_read += s.detected_by_read;
    is.detected_by_scrub += s.detected_by_scrub;
    is.repaired += s.repaired;
    is.unrecoverable += s.unrecoverable;
    is.repairs_failed += s.repairs_failed;
    is.superseded += s.superseded;
    is.overwritten += s.overwritten;
    is.escalations += s.escalations;
    is.scrub_passes += s.scrub_passes;
    is.blocks_scrubbed += s.blocks_scrubbed;
    is.mttd_ns.insert(is.mttd_ns.end(), s.mttd_ns.begin(), s.mttd_ns.end());
    const int base = static_cast<int>(w) * worlds[w]->cluster->total_disks();
    for (const integrity::UnrecoverableBlock& b : s.unrecoverable_blocks) {
      is.unrecoverable_blocks.push_back({base + b.disk, b.offset});
    }
    undetected += plane.undetected();
  }
  std::printf("integrity           : %llu injected, %llu detected (%llu "
              "read, %llu scrub), %llu repaired, %llu unrecoverable\n",
              static_cast<unsigned long long>(is.injected),
              static_cast<unsigned long long>(is.detected),
              static_cast<unsigned long long>(is.detected_by_read),
              static_cast<unsigned long long>(is.detected_by_scrub),
              static_cast<unsigned long long>(is.repaired),
              static_cast<unsigned long long>(is.unrecoverable));
  if (is.overwritten > 0 || is.superseded > 0 || is.escalations > 0) {
    std::printf("integrity (other)   : %llu overwritten, %llu superseded "
                "by rebuild, %llu disks escalated\n",
                static_cast<unsigned long long>(is.overwritten),
                static_cast<unsigned long long>(is.superseded),
                static_cast<unsigned long long>(is.escalations));
  }
  if (params.scrub) {
    std::printf("scrub               : %llu passes, %llu blocks verified "
                "(cap %.1f MB/s)\n",
                static_cast<unsigned long long>(is.scrub_passes),
                static_cast<unsigned long long>(is.blocks_scrubbed),
                params.scrub_rate_mbs);
  }
  if (!is.mttd_ns.empty()) {
    double sum = 0;
    for (sim::Time t : is.mttd_ns) sum += static_cast<double>(t);
    std::printf("integrity mttd      : %8.3f s mean over %zu detections\n",
                sum / static_cast<double>(is.mttd_ns.size()) * 1e-9,
                is.mttd_ns.size());
  }
  if (!is.unrecoverable_blocks.empty()) {
    std::printf("unrecoverable blocks:");
    for (const integrity::UnrecoverableBlock& b : is.unrecoverable_blocks) {
      std::printf(" D%d:%llu", b.disk,
                  static_cast<unsigned long long>(b.offset));
    }
    std::printf("\n");
  }
  if (params.scrub && is.injected > 0 &&
      (undetected > 0 || is.repairs_failed > 0)) {
    std::fprintf(stderr,
                 "integrity soak FAILED: %llu injected errors never "
                 "accounted for, %llu repairs errored\n",
                 static_cast<unsigned long long>(undetected),
                 static_cast<unsigned long long>(is.repairs_failed));
    return 1;
  }
  return 0;
}

/// The WAN's own report: remote reads and writes, links, geo-replication.
void print_wan(wan::Federation& fed) {
  const wan::WanStats& ws = fed.stats();
  std::uint64_t link_bytes = 0, link_drops = 0;
  for (int l = 0; l < fed.num_links(); ++l) {
    link_bytes += fed.link_by_id(l).bytes_carried();
    link_drops += fed.link_by_id(l).drops();
  }
  std::printf("wan reads           : %llu remote (%llu site-cache hits, "
              "%llu origin, %llu mirror [%llu stale], %llu unreachable, "
              "%llu redirected)\n",
              static_cast<unsigned long long>(ws.remote_reads),
              static_cast<unsigned long long>(ws.cache_hits),
              static_cast<unsigned long long>(ws.origin_reads),
              static_cast<unsigned long long>(ws.mirror_reads),
              static_cast<unsigned long long>(ws.stale_served),
              static_cast<unsigned long long>(ws.unreachable),
              static_cast<unsigned long long>(ws.redirects));
  std::printf("wan writes          : %llu forwarded, %llu forward "
              "failures\n",
              static_cast<unsigned long long>(ws.remote_writes),
              static_cast<unsigned long long>(ws.write_forward_failures));
  if (ws.remote_reads > 0) {
    std::printf("wan read latency    : p50 %.2f ms, p99 %.2f ms\n",
                fed.remote_read_latency().quantile(0.50) / 1e6,
                fed.remote_read_latency().quantile(0.99) / 1e6);
  }
  std::printf("wan links           : %.2f MB carried, %llu drops\n",
              static_cast<double>(link_bytes) / 1e6,
              static_cast<unsigned long long>(link_drops));
  wan::Replicator* rep = fed.replicator();
  if (rep == nullptr) return;
  const wan::StreamStats t = rep->totals();
  std::printf("geo-rep             : %llu appended (%llu coalesced), %llu "
              "shipped, %llu failed ships, backlog %llu (peak %llu)\n",
              static_cast<unsigned long long>(t.appended),
              static_cast<unsigned long long>(t.coalesced),
              static_cast<unsigned long long>(t.shipped),
              static_cast<unsigned long long>(t.failed_ships),
              static_cast<unsigned long long>(t.backlog),
              static_cast<unsigned long long>(t.peak_backlog));
  if (rep->lag().count() > 0) {
    std::printf("geo-rep lag         : p50 %.2f ms, p99 %.2f ms, max %.2f "
                "ms, %llu violation(s) of the %.1f s bound\n",
                rep->lag().quantile(0.50) / 1e6,
                rep->lag().quantile(0.99) / 1e6,
                static_cast<double>(t.max_lag) / 1e6,
                static_cast<unsigned long long>(t.staleness_violations),
                sim::to_seconds(fed.params().repl.staleness_bound));
  }
  if (t.backlog == 0) {
    std::printf("geo-rep converged   : %8.3f s\n",
                sim::to_seconds(t.last_drain));
  } else {
    std::printf("geo-rep converged   : never (a partition outlived the run; "
                "%llu entries still queued)\n",
                static_cast<unsigned long long>(t.backlog));
  }
}

/// Trace, SLO, event log, watch table and the metrics file.
int export_obs(const Scenario& sc, obs::Hub& hub, sim::Time now,
               obs::Scraper* scraper, const std::string& metrics_json) {
  if (!sc.trace_out.empty()) {
    std::string err;
    if (!hub.tracer().export_chrome(sc.trace_out, now, &err)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 1;
    }
    if (hub.tracer().selective()) {
      std::printf("trace               : %llu sampled + %zu reservoir "
                  "trace(s) of %llu -> %s\n",
                  static_cast<unsigned long long>(
                      hub.tracer().sampled_kept()),
                  hub.tracer().reservoir_count(),
                  static_cast<unsigned long long>(
                      hub.tracer().traces_started()),
                  sc.trace_out.c_str());
    } else {
      std::printf("trace               : %zu spans -> %s\n",
                  hub.tracer().spans().size(), sc.trace_out.c_str());
    }
  }
  if (hub.slo() != nullptr) {
    const obs::SloStats& ss = hub.slo()->stats();
    std::printf("slo                 : %llu/%llu over %.1f ms target, %llu "
                "window(s), %llu breach(es), %llu recover(ies), worst burn "
                "%.2fx\n",
                static_cast<unsigned long long>(ss.violations),
                static_cast<unsigned long long>(ss.requests),
                sim::to_milliseconds(hub.slo()->config().latency_target),
                static_cast<unsigned long long>(ss.windows),
                static_cast<unsigned long long>(ss.breaches),
                static_cast<unsigned long long>(ss.recoveries),
                ss.worst_burn);
  }
  if (hub.events() != nullptr && !hub.events()->events().empty()) {
    std::printf("events              : %zu in cluster log",
                hub.events()->events().size());
    if (const obs::ClusterEvent* b = hub.events()->first("slo.breach")) {
      std::printf("; first breach at %.3f s", sim::to_seconds(b->at));
    }
    std::printf("\n");
    if (sc.verbose) {
      for (const obs::ClusterEvent& ev : hub.events()->events()) {
        std::printf("  [%12.6f s] %-20s %s\n", sim::to_seconds(ev.at),
                    ev.kind.c_str(), ev.detail.c_str());
      }
    }
  }
  if (scraper != nullptr) {
    std::printf("\nwatch (%zu samples @ %.0f ms):\n%s", scraper->samples(),
                sim::to_milliseconds(scraper->interval()),
                scraper->render().c_str());
    if (!sc.wcli.out.empty()) {
      std::ofstream out(sc.wcli.out);
      out << scraper->json() << "\n";
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", sc.wcli.out.c_str());
        return 1;
      }
      std::printf("watch json          : %s\n", sc.wcli.out.c_str());
    }
  }
  if (!sc.metrics_out.empty()) {
    std::ofstream out(sc.metrics_out);
    if (hub.events() != nullptr) {
      // The ordered cluster event log rides the same artifact; the flat
      // snapshot moves under "metrics" only when events exist, so plain
      // --metrics files keep their historical shape.
      out << "{\"metrics\":" << metrics_json
          << ",\"events\":" << hub.events()->json() << "}\n";
    } else {
      out << metrics_json << "\n";
    }
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", sc.metrics_out.c_str());
      return 1;
    }
    std::printf("metrics             : %s\n", sc.metrics_out.c_str());
  }
  return 0;
}

/// The open-loop workload on every world of the composition at once:
/// per-world QoS gates, the banner, one run, and one summary.  Only the
/// sync line and the WAN report read the typed composition.  Returns 1
/// when the run fails.
int drive_open_loop(const Scenario& sc, cluster::Composition& comp,
                    cluster::ShardedCluster* sharded, wan::Federation* fed) {
  const std::span<cluster::World* const> worlds = comp.worlds();
  const int nworlds = static_cast<int>(worlds.size());
  cluster::World& first = *worlds.front();
  const std::string name = first.engine->name();
  const OpenLoopCli& ol = sc.olcli;
  if (ol.qos_mbs > 0.0) {
    load::TenantQos q;
    q.rate_mbs = ol.qos_mbs;
    q.burst_mb = ol.qos_burst_mb;
    q.policy = ol.policy;
    for (cluster::World* w : worlds) {
      w->gate = std::make_unique<load::QosGate>(
          w->sim(),
          std::vector<load::TenantQos>(static_cast<std::size_t>(ol.tenants),
                                       q));
    }
  }
  const char* gated = first.gate ? " [QoS gated]" : "";
  load::OpenLoopConfig ocfg;
  ocfg.tenants.assign(static_cast<std::size_t>(ol.tenants), ol.shape);
  ocfg.duration = sim::seconds(ol.duration_s);
  ocfg.seed = sc.seed;
  ocfg.max_in_flight = ol.cap;
  const int nthreads = sc.threads > 0 ? sc.threads : 1;
  if (sc.shards > 1) {
    std::printf("raidxsim: sharded open-loop on %s, %d shard(s) x %d "
                "nodes, %d tenant(s) x %.0f ops/s per shard, remote "
                "%.1f%%, %d worker(s)%s\n",
                name.c_str(), sc.shards, sc.nodes_per_world(), ol.tenants,
                ol.shape.rate_ops, 100.0 * ol.remote, nthreads, gated);
  } else if (sc.sites > 1) {
    std::printf("raidxsim: wan federation on %s, %d sites x %d nodes, %d "
                "link(s) @ %.0f MB/s, rtt %.0f ms, window %llu KB%s\n",
                name.c_str(), sc.sites, sc.nodes,
                wan::Federation::mesh_links(sc.sites),
                sc.wan_bw, sc.wan_rtt_ms,
                static_cast<unsigned long long>(sc.wan_window >> 10),
                sc.geo_rep ? " [geo-rep]" : "");
    std::printf("raidxsim: open-loop per site, %d tenant(s) x %.0f ops/s, "
                "zipf %.2f, remote %.1f%%%s\n",
                ol.tenants, ol.shape.rate_ops, ol.shape.zipf_alpha,
                100.0 * ol.remote, gated);
  } else {
    std::printf("raidxsim: open-loop on %s, %d tenant(s) x %.0f ops/s (%s"
                "%s), zipf %.2f, %d sessions each%s\n",
                name.c_str(), ol.tenants, ol.shape.rate_ops,
                ol.shape.dist == load::ArrivalDist::kBurst ? "burst"
                                                           : "poisson",
                ol.shape.write_fraction > 0 ? ", mixed r/w" : "",
                ol.shape.zipf_alpha, ol.shape.sessions, gated);
  }
  load::ShardedLoadResult r;
  try {
    r = load::run_open_loop(comp, ocfg, ol.remote, nthreads);
  } catch (const std::bad_alloc&) {
    throw;  // main reports it: an unrunnable size, not a failed run
  } catch (const std::exception& e) {
    std::printf("run failed: %s\n", e.what());
    return 1;
  }
  const std::string slowest =
      nworlds > 1 ? std::string("slowest ") + sc.world_kind() + " " : "";
  std::printf("\noffered             : %8.2f MB/s (%llu requests over "
              "%.3f s%s)\n",
              r.offered_mbs, static_cast<unsigned long long>(r.offered),
              sim::to_seconds(r.duration), sc.sites > 1 ? ", all sites" : "");
  std::printf("goodput             : %8.2f MB/s (%llu completed, %sdrained "
              "at %.3f s)\n",
              r.goodput_mbs, static_cast<unsigned long long>(r.completed),
              slowest.c_str(), sim::to_seconds(r.drained_at));
  std::printf("turned away         : %llu rejected, %llu shed, %llu "
              "failed, %llu cap-dropped\n",
              static_cast<unsigned long long>(r.rejected),
              static_cast<unsigned long long>(r.shed),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.cap_dropped));
  // Each world's peak is its own; their sum is no concurrent peak.
  if (nworlds == 1) {
    std::printf("peak in flight      : %llu concurrent requests\n",
                static_cast<unsigned long long>(r.peak_in_flight));
  }
  if (sc.shards > 1) {
    std::printf("cross-shard         : %llu of %llu arrivals over the "
                "spine\n",
                static_cast<unsigned long long>(r.remote_ops),
                static_cast<unsigned long long>(r.offered));
  }
  std::printf("latency             : p50 %.2f ms, p99 %.2f ms, p999 %.2f "
              "ms\n",
              r.latency.quantile(0.50) / 1e6,
              r.latency.quantile(0.99) / 1e6,
              r.latency.quantile(0.999) / 1e6);
  if (sharded) {
    const sim::ShardGroup::Stats& gs = sharded->group().stats();
    std::printf("sync                : %llu windows, %llu cross-shard "
                "messages\n",
                static_cast<unsigned long long>(gs.windows),
                static_cast<unsigned long long>(gs.messages));
  }
  if (sc.verbose || ol.tenants > 1) {
    std::printf("\nper-tenant:\n");
    for (std::size_t t = 0; t < r.tenants.size(); ++t) {
      const load::TenantResult& tr = r.tenants[t];
      std::printf("  T%zu: offered %7.2f MB/s, goodput %7.2f MB/s, "
                  "p99 %8.2f ms, shed %llu, rejected %llu\n",
                  t, tr.offered_mbs, tr.goodput_mbs,
                  tr.latency.quantile(0.99) / 1e6,
                  static_cast<unsigned long long>(tr.shed),
                  static_cast<unsigned long long>(tr.rejected));
    }
  }
  if (sc.verbose && nworlds > 1) {
    for (int w = 0; w < nworlds; ++w) {
      const load::OpenLoopResult& wr =
          r.per_shard[static_cast<std::size_t>(w)];
      std::printf("  %s %2d: offered %7.2f MB/s, goodput %7.2f MB/s, "
                  "p99 %8.2f ms, %llu remote\n",
                  sc.world_kind(), w, wr.offered_mbs, wr.goodput_mbs,
                  wr.latency.quantile(0.99) / 1e6,
                  static_cast<unsigned long long>(wr.remote_ops));
    }
  }
  if (fed) print_wan(*fed);
  if (first.cache->enabled()) {
    const cache::CacheStats cs = cache_totals(worlds);
    std::printf("cache               : %.1f%% hit, directory peak %llu "
                "entries / %llu sharers\n",
                100.0 * cs.hit_ratio(),
                static_cast<unsigned long long>(cs.directory_peak_entries),
                static_cast<unsigned long long>(cs.directory_peak_sharers));
  }
  return 0;
}

/// One of the closed-loop workloads on the run's single world: a trace
/// replay, the Andrew benchmark, or synthetic parallel I/O.  Returns 1
/// when the run fails.
int drive_closed_loop(const Scenario& sc, cluster::World& world,
                      const cluster::ClusterParams& params) {
  const std::string name = world.engine->name();
  if (!sc.replay_file.empty()) {
    std::ifstream in(sc.replay_file);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", sc.replay_file.c_str());
      return 1;
    }
    std::vector<workload::TraceRecord> recs;
    try {
      recs = workload::parse_trace(in);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    std::printf("raidxsim: replaying %zu trace records from %s on %s\n",
                recs.size(), sc.replay_file.c_str(), name.c_str());
    const auto tr = workload::replay_trace(*world.engine, recs);
    std::printf("\nelapsed             : %8.3f s\n",
                sim::to_seconds(tr.elapsed));
    std::printf("moved               : %8.2f MB read, %8.2f MB written\n",
                static_cast<double>(tr.bytes_read) / 1e6,
                static_cast<double>(tr.bytes_written) / 1e6);
    std::printf("aggregate bandwidth : %8.2f MB/s\n", tr.aggregate_mbs);
    std::printf("read latency        : mean %.2f ms, p95 %.2f ms\n",
                tr.read_latency.mean() / 1e6,
                sim::to_milliseconds(tr.read_latency.quantile(0.95)));
    std::printf("write latency       : mean %.2f ms, p95 %.2f ms\n",
                tr.write_latency.mean() / 1e6,
                sim::to_milliseconds(tr.write_latency.quantile(0.95)));
  } else if (sc.workload_kind == "andrew") {
    workload::AndrewConfig acfg;
    acfg.clients = sc.clients;
    acfg.seed = sc.seed;
    acfg.exclude_node = workload::exclude_node(sc.arch);
    std::printf("raidxsim: Andrew benchmark on %s, %d clients\n",
                name.c_str(), sc.clients);
    workload::AndrewResult ar;
    try {
      ar = workload::run_andrew(*world.engine, acfg);
    } catch (const std::bad_alloc&) {
      throw;  // main reports it: an unrunnable size, not a failed run
    } catch (const std::exception& e) {
      std::printf("run failed: %s\n", e.what());
      return 1;
    }
    std::printf("\nMakeDir             : %8.3f s\n",
                sim::to_seconds(ar.make_dir));
    std::printf("Copy                : %8.3f s\n",
                sim::to_seconds(ar.copy_files));
    std::printf("ScanDir             : %8.3f s\n",
                sim::to_seconds(ar.scan_dir));
    std::printf("ReadAll             : %8.3f s\n",
                sim::to_seconds(ar.read_all));
    std::printf("Compile             : %8.3f s\n",
                sim::to_seconds(ar.compile));
    std::printf("total               : %8.3f s\n", sim::to_seconds(ar.total()));
  } else {
    workload::ParallelIoConfig cfg;
    cfg.clients = sc.clients;
    cfg.op = sc.is_write ? workload::IoOp::kWrite : workload::IoOp::kRead;
    cfg.bytes_per_op = sc.bytes;
    cfg.ops_per_client = sc.ops;
    cfg.scattered = sc.scattered;
    cfg.warm_passes = sc.warm;
    cfg.seed = sc.seed;
    cfg.exclude_node = workload::exclude_node(sc.arch);
    std::printf("raidxsim: %s on %dx%d (%s), %d clients x %d x %.2f MB %s%s\n",
                name.c_str(), sc.nodes, sc.disks,
                params.geometry.describe().c_str(), sc.clients, sc.ops,
                static_cast<double>(sc.bytes) / 1e6,
                sc.is_write ? "write" : "read",
                sc.scattered ? " (scattered)" : "");
    if (!sc.fails.empty()) {
      std::printf("failed disks:");
      for (int f : sc.fails) std::printf(" D%d", f);
      std::printf("\n");
    }
    workload::ParallelIoResult r;
    try {
      r = workload::run_parallel_io(*world.engine, cfg);
    } catch (const std::bad_alloc&) {
      throw;  // main reports it: an unrunnable size, not a failed run
    } catch (const std::exception& e) {
      std::printf("run failed: %s\n", e.what());
      return 1;
    }
    std::printf("\naggregate bandwidth : %8.2f MB/s (foreground)\n",
                r.aggregate_mbs);
    std::printf("sustained bandwidth : %8.2f MB/s (incl. background "
                "drain)\n",
                r.sustained_mbs);
    std::printf("elapsed             : %8.3f s\n", sim::to_seconds(r.elapsed));
    std::printf("op latency          : mean %.2f ms, p50 %.2f, p95 %.2f, "
                "max %.2f\n",
                r.op_latency.mean() / 1e6,
                sim::to_milliseconds(r.op_latency.quantile(0.5)),
                sim::to_milliseconds(r.op_latency.quantile(0.95)),
                sim::to_milliseconds(r.op_latency.max()));
    if (world.cache->enabled()) {
      const cache::CacheStats& cs = world.cache->stats();
      std::printf("cache               : %.1f MB/node %s%s, %s\n",
                  sc.cache_mb, sc.cache_policy.c_str(),
                  sc.coop_cache ? " cooperative" : "",
                  sc.cache_evict.c_str());
      std::printf("cache hits          : %llu local, %llu peer, %llu misses "
                  "(%.1f%% hit)\n",
                  static_cast<unsigned long long>(cs.hits),
                  static_cast<unsigned long long>(cs.peer_hits),
                  static_cast<unsigned long long>(cs.misses),
                  100.0 * cs.hit_ratio());
      std::printf("cache traffic       : %llu fills, %llu absorbed writes, "
                  "%llu invalidations, %llu flushes, %llu evictions\n",
                  static_cast<unsigned long long>(cs.fills),
                  static_cast<unsigned long long>(cs.writes_absorbed),
                  static_cast<unsigned long long>(cs.invalidations),
                  static_cast<unsigned long long>(cs.flushes),
                  static_cast<unsigned long long>(cs.evictions));
    }
    if (sc.verbose) {
      cluster::Cluster& cluster = *world.cluster;
      std::printf("\nper-client completion:\n");
      for (std::size_t c = 0; c < r.clients.size(); ++c) {
        std::printf("  client %2zu: %8.3f s, %6.2f MB\n", c,
                    sim::to_seconds(r.clients[c].end - r.clients[c].start),
                    static_cast<double>(r.clients[c].bytes) / 1e6);
      }
      std::printf("\nper-disk utilization (busy fraction):\n");
      for (int d = 0; d < cluster.total_disks(); ++d) {
        const auto& disk = cluster.disk(d);
        std::printf("  D%-2d: %5.1f%%  (%llu reads, %llu writes)\n", d,
                    100.0 * static_cast<double>(disk.busy_time()) /
                        static_cast<double>(world.sim().now()),
                    static_cast<unsigned long long>(disk.reads()),
                    static_cast<unsigned long long>(disk.writes()));
      }
      std::printf("\nCDD requests: %llu local, %llu remote\n",
                  static_cast<unsigned long long>(
                      world.fabric->local_requests()),
                  static_cast<unsigned long long>(
                      world.fabric->remote_requests()));
    }
  }
  return 0;
}

/// Build the run's one composition -- a world, S placement groups, or N
/// sites -- then arm, drive and collect it, and print and export once.
int run(const Scenario& sc) {
  const int nworlds = sc.worlds();
  const cluster::ClusterParams params = world_cluster(sc);
  const int world_disks = params.geometry.total_disks();

  // The chaos plan, parsed once in run-global ids before anything is
  // built.  Partition events need a CDD timeout, or any request in flight
  // across the partition waits forever.
  ha::FaultPlan plan;
  if (!sc.faults_spec.empty()) {
    const int links = sc.sites > 1 ? wan::Federation::mesh_links(sc.sites) : 0;
    plan = ha::FaultPlan::parse(sc.faults_spec, nworlds * world_disks,
                                params.geometry.blocks_per_disk,
                                sc.sites > 1 ? sc.sites : 0, links);
    for (const ha::FaultEvent& ev : plan.events()) {
      if (ev.kind == ha::FaultEvent::Kind::kPartitionNode &&
          sc.timeout_ms <= 0) {
        reject("part: faults need --timeout-ms, or requests at the "
               "partitioned node block forever");
      }
      if ((ev.kind == ha::FaultEvent::Kind::kPartitionNode ||
           ev.kind == ha::FaultEvent::Kind::kJoinNode) &&
          (ev.target < 0 || ev.target >= nworlds * sc.nodes_per_world())) {
        reject("--faults: no such node: %d (the run has %d)", ev.target,
               nworlds * sc.nodes_per_world());
      }
    }
  }
  for (int f : sc.fails) {
    if (f < 0 || f >= nworlds * world_disks) {
      reject("--fail %d: no such disk (the run has %d)", f,
             nworlds * world_disks);
    }
  }

  obs::Hub hub;
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<cluster::Composition> comp;
  // Typed views of `comp`, for the composition's own report lines.
  cluster::ShardedCluster* sharded = nullptr;
  wan::Federation* fed = nullptr;
  const cluster::WorldParams wp = world_params(sc);
  if (sc.shards > 1) {
    // S placement groups, each on its own Simulation and hub, advanced in
    // parallel under the conservative synchronizer.
    cluster::ShardedParams sp;
    static_cast<cluster::WorldParams&>(sp) = wp;
    sp.shards = sc.shards;
    auto groups = std::make_unique<cluster::ShardedCluster>(params, sp);
    sharded = groups.get();
    comp = std::move(groups);
  } else {
    sim = std::make_unique<sim::Simulation>();
    if (!sc.trace_out.empty() || !sc.metrics_out.empty() || sc.slo_on ||
        sc.watch_on) {
      hub.tracing = !sc.trace_out.empty();
      if (sc.trace_sample_on) hub.tracer().set_selective(sc.ts_cfg);
      // The attribution matrix rides the metrics snapshot; enabling it has
      // zero effect on simulated timestamps (pure bookkeeping at existing
      // span boundaries).
      if (!sc.metrics_out.empty()) hub.enable_attribution();
      if (sc.slo_on) hub.enable_slo(sc.slo_cfg);
      sim->set_hub(&hub);
    }
    if (sc.sites > 1) {
      // N identical sites under this one simulation, joined by a full mesh
      // of BDP-limited links.
      wan::FederationParams fp;
      static_cast<cluster::WorldParams&>(fp) = wp;
      fp.sites = sc.sites;
      fp.link.bandwidth_mbs = sc.wan_bw;
      fp.link.rtt = sim::milliseconds(sc.wan_rtt_ms);
      fp.link.window_bytes = sc.wan_window;
      fp.geo_rep = sc.geo_rep;
      fp.repl.ship_mbs = sc.geo_rep_mbs;
      fp.cluster = params;
      auto sites = std::make_unique<wan::Federation>(*sim, fp);
      fed = sites.get();
      comp = std::move(sites);
    } else {
      comp = std::make_unique<cluster::OneWorld>(*sim, params, wp);
    }
  }
  const std::span<cluster::World* const> worlds = comp->worlds();
  cluster::World& first = *worlds.front();
  const std::string across =
      nworlds > 1 ? " across " + std::to_string(nworlds) + " " +
                        sc.world_kind() + "s"
                  : "";

  // --watch: sim-time series scraper over every world on the shared
  // simulation.  Sampling rides daemon events, which never keep run()
  // alive or shift foreground timestamps, so a watched run finishes at the
  // same simulated instant as an unwatched one.
  std::unique_ptr<obs::Scraper> scraper;
  if (sc.watch_on) {
    sim::Simulation& s = *sim;
    scraper = std::make_unique<obs::Scraper>(s, sc.wcli.interval,
                                             sc.wcli.samples);
    scraper->add_series(
        "disk.util", [worlds, &s, prev = 0.0, prev_t = 0.0]() mutable {
          double busy = 0.0;
          int disks = 0;
          for (cluster::World* w : worlds) {
            for (int d = 0; d < w->cluster->total_disks(); ++d) {
              busy += static_cast<double>(w->cluster->disk(d).busy_time());
            }
            disks += w->cluster->total_disks();
          }
          const double now = static_cast<double>(s.now());
          const double span = (now - prev_t) * disks;
          const double u = span > 0.0 ? (busy - prev) / span : 0.0;
          prev = busy;
          prev_t = now;
          return u;
        });
    scraper->add_series(
        "net.tx_mbs", [worlds, &s, prev = 0.0, prev_t = 0.0]() mutable {
          double sent = 0.0;
          for (cluster::World* w : worlds) {
            net::Network& net = w->cluster->network();
            for (int n = 0; n < net.nodes(); ++n) {
              sent += static_cast<double>(net.bytes_sent(n));
            }
          }
          const double now = static_cast<double>(s.now());
          // bytes/ns -> MB/s is a factor of 1000.
          const double mbs =
              now > prev_t ? (sent - prev) / (now - prev_t) * 1e3 : 0.0;
          prev = sent;
          prev_t = now;
          return mbs;
        });
    scraper->add_series(
        "cdd.remote_ops", [worlds, &s, prev = 0.0, prev_t = 0.0]() mutable {
          double ops = 0.0;
          for (cluster::World* w : worlds) {
            ops += static_cast<double>(w->fabric->remote_requests());
          }
          const double now = static_cast<double>(s.now());
          const double rate =
              now > prev_t ? (ops - prev) / ((now - prev_t) * 1e-9) : 0.0;
          prev = ops;
          prev_t = now;
          return rate;
        });
    scraper->add_series("sim.pending", [&s]() {
      return static_cast<double>(s.foreground_pending());
    });
    scraper->start();
  }

  for (int f : sc.fails) {
    worlds[static_cast<std::size_t>(f / world_disks)]->cluster->disk(
        f % world_disks).fail();
  }

  // Recovery orchestration: on when asked for explicitly, or implied by a
  // fault plan that touches the arrays (chaos without recovery needs
  // --no-ha; site partitions and link brownouts leave every array whole).
  const bool wan_only =
      !plan.empty() &&
      std::all_of(plan.events().begin(), plan.events().end(),
                  [](const ha::FaultEvent& ev) { return ev.wan(); });
  const bool want_orch =
      sc.ha_on || (!sc.faults_spec.empty() && !sc.no_ha && !wan_only);
  ha::HaParams hp;
  hp.spares_per_node = sc.spares;
  hp.global_spares = sc.global_spares;
  hp.rebuild_mbs = sc.rebuild_mbs;
  // Integrity plane: on when verification or scrubbing was asked for, or
  // implied by corruption in the fault plan (silent corruption with no
  // checksum plane would vanish without a trace -- the very failure mode
  // the subsystem exists to expose).
  const bool want_plane = sc.verify_reads || sc.scrub_rate > 0 ||
                          sc.fail_threshold > 0 || plan.has_corruption();
  integrity::IntegrityParams ip;
  ip.verify_reads = sc.verify_reads;
  ip.scrub = sc.scrub_rate > 0;
  ip.scrub_rate_mbs = sc.scrub_rate;
  ip.fail_threshold = sc.fail_threshold;
  if (!plan.empty()) {
    std::string where;
    if (sc.shards > 1) where = ", partitioned over " + std::to_string(nworlds) + " shards";
    if (sc.sites > 1) where = ", " + std::to_string(nworlds) + " sites";
    std::printf("fault plan (%s%s):\n%s", want_orch ? "orchestrated" : "raw",
                where.c_str(), plan.describe().c_str());
  }
  comp->arm_faults(plan, want_orch ? &hp : nullptr,
                   want_plane ? &ip : nullptr);

  const int rc = sc.open_loop() ? drive_open_loop(sc, *comp, sharded, fed)
                                : drive_closed_loop(sc, first, params);
  if (rc != 0) return rc;

  print_ha_summary(worlds, across);
  const int soak_rc = print_integrity_summary(worlds);
  // The hub's registry already holds the load tier's keys when the run
  // shares this hub; shards export into their own hubs, which their
  // composition folds in.
  std::string metrics_json;
  if (!sc.metrics_out.empty()) {
    comp->collect(hub.registry());
    metrics_json = hub.registry().snapshot_json();
  }
  const int obs_rc = export_obs(sc, hub, first.sim().now(), scraper.get(),
                                metrics_json);
  return obs_rc != 0 ? obs_rc : soak_rc;
}

}  // namespace

int main(int argc, char** argv) {
  // Every malformed flag, spec or combination throws std::invalid_argument
  // before any world runs; this is the one place that reports it.  Flags
  // that ask for more worlds, sites or nodes than memory holds are as
  // unrunnable, and exit the same way.
  try {
    Scenario sc = parse_args(argc, argv);
    validate(sc);
    if (!sc.dump_trace_file.empty()) return dump_trace(sc);
    return run(sc);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  } catch (const std::bad_alloc&) {
    std::fprintf(stderr, "%s: out of memory: the flags ask for a run larger "
                 "than this host can build\n", argv[0]);
    return 2;
  }
}
