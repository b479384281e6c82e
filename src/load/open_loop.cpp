#include "load/open_loop.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "block/payload.hpp"
#include "cluster/sharded.hpp"
#include "load/qos.hpp"
#include "obs/obs.hpp"
#include "sim/random.hpp"

namespace raidx::load {

namespace {

std::string tenant_key(int tenant, const char* metric) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "load.tenant.%03d.%s", tenant, metric);
  return buf;
}

struct Shared {
  raid::ArrayController& engine;
  const OpenLoopConfig& config;
  QosGate* gate;
  OpenLoopResult& result;
  sim::Time start = 0;    // arrival window opens here
  sim::Time end_at = 0;   // ... and closes here (exclusive)
  std::size_t in_flight = 0;
  sim::Time last_completion = 0;
  /// One scratch buffer shared by every in-flight read.  Safe: the sim is
  /// single-threaded and timing depends only on sizes, so concurrent reads
  /// scribbling over each other changes no simulated outcome -- and NOT
  /// sharing it would cost op_bytes * 100k+ in host memory at the
  /// concurrency the saturation harness drives.
  std::vector<std::byte> scratch = {};
  /// Per-tenant zero-run write payloads (O(1) host memory).
  std::vector<block::Payload> wpayload = {};
  /// Per-tenant working-set base LBA and ranks (ops, not blocks).
  std::vector<std::uint64_t> region_base = {};
  std::vector<std::uint64_t> region_slots = {};
  /// Per-tenant node rotation for session -> client-node binding.
  std::vector<std::vector<int>> tenant_nodes = {};
};

sim::Task<> request(Shared& sh, int tenant, int node, std::uint64_t lba,
                    bool write) {
  auto& sim = sh.engine.simulation();
  TenantResult& r = sh.result.tenants[static_cast<std::size_t>(tenant)];
  const TenantLoad& cfg =
      sh.config.tenants[static_cast<std::size_t>(tenant)];
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(cfg.blocks_per_op) * sh.engine.block_bytes();
  const sim::Time t0 = sim.now();
  bool ok = false;
  try {
    if (write) {
      co_await sh.engine.write(
          node, lba, sh.wpayload[static_cast<std::size_t>(tenant)]);
    } else {
      co_await sh.engine.read(
          node, lba, cfg.blocks_per_op,
          std::span<std::byte>(sh.scratch.data(),
                               static_cast<std::size_t>(bytes)));
    }
    ok = true;
  } catch (const raid::AdmissionError&) {
    // The gate's own stats split reject/queue-overflow; here the tenant's
    // configured policy decides which result bucket the turn-away lands in.
    if (sh.gate != nullptr &&
        sh.gate->config(tenant).policy == AdmitPolicy::kReject) {
      ++r.rejected;
    } else {
      ++r.shed;
    }
  } catch (const raid::IoError&) {
    ++r.failed;
    // Failed requests count against the SLO (turn-aways do not: admission
    // is policy, not service).
    obs::note_slo_request(sim, sim.now() - t0, /*ok=*/false);
  }
  if (ok) {
    ++r.completed;
    r.bytes_completed += bytes;
    r.latency.observe(static_cast<std::uint64_t>(sim.now() - t0));
    obs::note_slo_request(sim, sim.now() - t0, /*ok=*/true);
  }
  --sh.in_flight;
  if (sim.now() > sh.last_completion) sh.last_completion = sim.now();
}

/// An arrival redirected across the spine: the remote hook owns routing,
/// serialization, and far-end execution; this wrapper only keeps the
/// tenant accounting symmetric with the local path.
sim::Task<> remote_request(Shared& sh, int tenant, std::uint64_t slot,
                           bool write) {
  auto& sim = sh.engine.simulation();
  TenantResult& r = sh.result.tenants[static_cast<std::size_t>(tenant)];
  const TenantLoad& cfg =
      sh.config.tenants[static_cast<std::size_t>(tenant)];
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(cfg.blocks_per_op) * sh.engine.block_bytes();
  const sim::Time t0 = sim.now();
  const bool ok = co_await sh.config.remote.exec(slot, cfg.blocks_per_op,
                                                 write);
  if (ok) {
    ++r.completed;
    r.bytes_completed += bytes;
    r.latency.observe(static_cast<std::uint64_t>(sim.now() - t0));
    obs::note_slo_request(sim, sim.now() - t0, /*ok=*/true);
  } else {
    ++r.failed;
    obs::note_slo_request(sim, sim.now() - t0, /*ok=*/false);
  }
  --sh.in_flight;
  if (sim.now() > sh.last_completion) sh.last_completion = sim.now();
}

sim::Task<> dispatcher(Shared& sh, int tenant, sim::Rng rng) {
  auto& sim = sh.engine.simulation();
  const TenantLoad& cfg =
      sh.config.tenants[static_cast<std::size_t>(tenant)];
  TenantResult& r = sh.result.tenants[static_cast<std::size_t>(tenant)];
  const std::vector<int>& nodes =
      sh.tenant_nodes[static_cast<std::size_t>(tenant)];
  const std::uint64_t base =
      sh.region_base[static_cast<std::size_t>(tenant)];
  const std::uint64_t slots =
      sh.region_slots[static_cast<std::size_t>(tenant)];
  std::optional<sim::dist::Zipf> zipf;
  if (cfg.zipf_alpha > 0.0) zipf.emplace(cfg.zipf_alpha, slots);

  // ON-OFF modulation state (kBurst): sources start ON so short windows
  // still offer load.  Exponential phase lengths + exponential gaps keep
  // the process memoryless, so truncating a drawn gap at a phase boundary
  // and redrawing on the other side is exact, not an approximation.
  bool on = true;
  sim::Time phase_end =
      sh.start + (cfg.dist == ArrivalDist::kBurst
                      ? sim::seconds(rng.exponential(cfg.burst_on_s))
                      : sh.config.duration);
  int session = 0;
  while (true) {
    double rate = cfg.rate_ops;
    if (cfg.dist == ArrivalDist::kBurst) {
      if (sim.now() >= phase_end) {
        on = !on;
        const double mean_s = on ? cfg.burst_on_s : cfg.burst_off_s;
        phase_end = sim.now() + sim::seconds(rng.exponential(mean_s));
      }
      if (!on) {
        const sim::Time sleep =
            std::min(phase_end, sh.end_at) - sim.now();
        if (sim.now() + sleep >= sh.end_at) co_return;
        co_await sim.delay(sleep);
        continue;
      }
      rate *= cfg.burst_mult;
    }
    if (rate <= 0.0) co_return;
    const sim::Time gap =
        std::max<sim::Time>(1, sim::seconds(rng.exponential(1.0 / rate)));
    if (sim.now() + gap >= sh.end_at) co_return;  // window closed
    if (cfg.dist == ArrivalDist::kBurst && sim.now() + gap >= phase_end) {
      co_await sim.delay(phase_end - sim.now());
      continue;  // phase flips at the top of the loop
    }
    co_await sim.delay(gap);

    // One arrival: round-robin session, Zipf (or uniform) op slot.
    const int s = session;
    session = (session + 1) % cfg.sessions;
    const int node = nodes[static_cast<std::size_t>(s) % nodes.size()];
    const std::uint64_t slot =
        zipf ? zipf->sample(rng)
             : (slots > 1 ? rng.uniform_u64(0, slots - 1) : 0);
    const std::uint64_t lba = base + slot * cfg.blocks_per_op;
    const bool write =
        cfg.write_fraction > 0.0 && rng.chance(cfg.write_fraction);
    // The cross-shard coin is only flipped when a hook is installed, so
    // hook-less configs consume the exact pre-federation RNG stream.
    const bool remote =
        sh.config.remote.exec != nullptr &&
        rng.chance(sh.config.remote.fraction);

    ++r.offered;
    if (sh.result.arrivals.size() < sh.config.record_arrivals) {
      sh.result.arrivals.push_back(
          Arrival{sim.now() - sh.start, tenant, s, lba, write});
    }
    if (sh.in_flight >= sh.config.max_in_flight) {
      ++r.cap_dropped;
      continue;
    }
    ++sh.in_flight;
    if (sh.in_flight > sh.result.peak_in_flight) {
      sh.result.peak_in_flight = sh.in_flight;
    }
    if (remote) {
      ++sh.result.remote_ops;
      sim.spawn(remote_request(sh, tenant, slot, write));
    } else {
      sim.spawn(request(sh, tenant, node, lba, write));
    }
  }
}

void export_metrics(Shared& sh) {
  obs::Hub* hub = sh.engine.simulation().hub();
  if (hub == nullptr) return;
  obs::Registry& reg = hub->registry();
  const OpenLoopResult& res = sh.result;
  reg.counter("load.offered").inc(res.offered);
  reg.counter("load.completed").inc(res.completed);
  reg.counter("load.rejected").inc(res.rejected);
  reg.counter("load.shed").inc(res.shed);
  reg.counter("load.failed").inc(res.failed);
  reg.counter("load.cap_dropped").inc(res.cap_dropped);
  reg.counter("load.bytes_completed").inc(res.bytes_completed);
  reg.counter("load.peak_in_flight").inc(res.peak_in_flight);
  reg.gauge("load.offered_mbs").set(res.offered_mbs);
  reg.gauge("load.goodput_mbs").set(res.goodput_mbs);
  reg.histogram("load.latency_ns").merge(res.latency);
  // Gated on the hook, not the count: a federated run with zero redirected
  // arrivals still gets a stable key set.
  if (sh.config.remote.exec != nullptr) {
    reg.counter("load.remote_ops").inc(res.remote_ops);
  }
  for (std::size_t t = 0; t < res.tenants.size(); ++t) {
    const TenantResult& r = res.tenants[t];
    const int i = static_cast<int>(t);
    reg.counter(tenant_key(i, "offered")).inc(r.offered);
    reg.counter(tenant_key(i, "completed")).inc(r.completed);
    reg.counter(tenant_key(i, "rejected")).inc(r.rejected);
    reg.counter(tenant_key(i, "shed")).inc(r.shed);
    reg.counter(tenant_key(i, "failed")).inc(r.failed);
    reg.gauge(tenant_key(i, "offered_mbs")).set(r.offered_mbs);
    reg.gauge(tenant_key(i, "goodput_mbs")).set(r.goodput_mbs);
    reg.histogram(tenant_key(i, "latency_ns")).merge(r.latency);
  }
  if (sh.gate != nullptr) sh.gate->export_metrics(reg);
}

}  // namespace

struct OpenLoopDriver::State {
  State(raid::ArrayController& engine_, const OpenLoopConfig& config_,
        QosGate* gate_)
      : engine(engine_), config(config_), gate(gate_) {}

  raid::ArrayController& engine;
  OpenLoopConfig config;  // owned copy: the hook closure must stay alive
  QosGate* gate;
  OpenLoopResult result;
  std::optional<Shared> sh;
  raid::AdmissionGate* prior = nullptr;
  bool started = false;
  bool finished = false;
};

OpenLoopDriver::OpenLoopDriver(raid::ArrayController& engine,
                               const OpenLoopConfig& config, QosGate* gate)
    : state_(std::make_unique<State>(engine, config, gate)) {}

OpenLoopDriver::~OpenLoopDriver() = default;

void OpenLoopDriver::start() {
  State& st = *state_;
  assert(!st.started);
  st.started = true;
  const OpenLoopConfig& config = st.config;
  if (config.tenants.empty()) {
    throw std::invalid_argument("open-loop config needs at least one tenant");
  }
  auto& sim = st.engine.simulation();
  const int num_nodes = st.engine.fabric().cluster().num_nodes();
  const std::uint32_t bs = st.engine.block_bytes();

  st.result.tenants.resize(config.tenants.size());
  st.result.duration = config.duration;
  if (config.record_arrivals > 0) {
    st.result.arrivals.reserve(config.record_arrivals);
  }

  st.sh.emplace(Shared{st.engine, config, st.gate, st.result});
  Shared& sh = *st.sh;
  sh.start = sim.now();
  sh.end_at = sh.start + config.duration;

  // Carve tenant working sets back-to-back from the logical space and
  // size the shared read scratch to the largest op.
  std::uint64_t next_base = config.base_lba;
  std::size_t max_op_bytes = 0;
  for (std::size_t t = 0; t < config.tenants.size(); ++t) {
    const TenantLoad& cfg = config.tenants[t];
    if (cfg.blocks_per_op == 0 || cfg.sessions <= 0) {
      throw std::invalid_argument("tenant needs blocks_per_op and sessions");
    }
    const std::uint64_t slots =
        std::max<std::uint64_t>(1, cfg.working_set_blocks / cfg.blocks_per_op);
    sh.region_base.push_back(next_base);
    sh.region_slots.push_back(slots);
    next_base += slots * cfg.blocks_per_op;
    max_op_bytes = std::max(
        max_op_bytes, static_cast<std::size_t>(cfg.blocks_per_op) * bs);
    sh.wpayload.push_back(block::Payload::zeros(
        static_cast<std::size_t>(cfg.blocks_per_op) * bs));
  }
  if (next_base > st.engine.logical_blocks()) {
    throw std::invalid_argument(
        "tenant working sets exceed the array's logical capacity");
  }
  sh.scratch.resize(max_op_bytes);

  // Partition client nodes round-robin across tenants so tenancy is
  // resolvable from the client node alone (what QosGate keys on).  With
  // more tenants than usable nodes, later tenants share nodes modulo the
  // pool -- admission then throttles the shared node's traffic under the
  // sharing tenants' combined binding, so flag configs that would
  // misattribute instead of silently mixing tenants on one node.
  std::vector<int> usable;
  for (int n = 0; n < num_nodes; ++n) {
    if (n != config.exclude_node) usable.push_back(n);
  }
  const int T = static_cast<int>(config.tenants.size());
  if (usable.empty() ||
      (st.gate != nullptr && T > static_cast<int>(usable.size()))) {
    throw std::invalid_argument(
        "need at least one client node per tenant for QoS binding");
  }
  sh.tenant_nodes.resize(config.tenants.size());
  for (std::size_t i = 0; i < usable.size(); ++i) {
    sh.tenant_nodes[i % static_cast<std::size_t>(T)].push_back(usable[i]);
  }
  for (int t = 0; t < T; ++t) {
    if (sh.tenant_nodes[static_cast<std::size_t>(t)].empty()) {
      // More tenants than nodes without a gate: share nodes modulo.
      sh.tenant_nodes[static_cast<std::size_t>(t)].push_back(
          usable[static_cast<std::size_t>(t) % usable.size()]);
    }
    if (st.gate != nullptr) {
      for (int node : sh.tenant_nodes[static_cast<std::size_t>(t)]) {
        st.gate->bind_client(node, t);
      }
    }
  }

  st.prior = st.engine.admission();
  if (st.gate != nullptr) st.engine.set_admission(st.gate);

  sim::Rng root(config.seed);
  for (int t = 0; t < T; ++t) {
    sim.spawn(dispatcher(sh, t, root.fork()));
  }
}

OpenLoopResult OpenLoopDriver::finish() {
  State& st = *state_;
  assert(st.started && !st.finished);
  st.finished = true;
  Shared& sh = *st.sh;
  OpenLoopResult& result = st.result;
  const OpenLoopConfig& config = st.config;
  const std::uint32_t bs = st.engine.block_bytes();

  st.engine.set_admission(st.prior);

  // Fold per-tenant accumulators into the cluster-wide result and derive
  // the rates: offered over the arrival window, goodput over the full
  // drain (that gap widening is exactly what the knee plot shows).
  result.drained_at = std::max(sh.last_completion - sh.start,
                               sim::Time(0));
  const sim::Time window = std::max<sim::Time>(1, config.duration);
  const sim::Time drain = std::max<sim::Time>(1, result.drained_at);
  for (std::size_t t = 0; t < result.tenants.size(); ++t) {
    TenantResult& r = result.tenants[t];
    const std::uint64_t op_bytes =
        static_cast<std::uint64_t>(config.tenants[t].blocks_per_op) * bs;
    r.offered_mbs = sim::bandwidth_mbs(r.offered * op_bytes, window);
    r.goodput_mbs = sim::bandwidth_mbs(r.bytes_completed, drain);
    result.offered += r.offered;
    result.completed += r.completed;
    result.rejected += r.rejected;
    result.shed += r.shed;
    result.failed += r.failed;
    result.cap_dropped += r.cap_dropped;
    result.bytes_offered += r.offered * op_bytes;
    result.bytes_completed += r.bytes_completed;
    result.latency.merge(r.latency);
  }
  result.offered_mbs = sim::bandwidth_mbs(result.bytes_offered, window);
  result.goodput_mbs = sim::bandwidth_mbs(result.bytes_completed, drain);

  export_metrics(sh);
  return std::move(result);
}

OpenLoopResult run_open_loop(raid::ArrayController& engine,
                             const OpenLoopConfig& config,
                             QosGate* gate) {
  OpenLoopDriver driver(engine, config, gate);
  driver.start();
  engine.simulation().run();  // arrival window + full drain
  return driver.finish();
}

namespace {

/// Fold per-world results into a composition's totals.
ShardedLoadResult fold_results(std::vector<OpenLoopResult> per_world) {
  ShardedLoadResult out;
  for (const OpenLoopResult& r : per_world) {
    if (out.tenants.size() < r.tenants.size()) {
      out.tenants.resize(r.tenants.size());
    }
    for (std::size_t t = 0; t < r.tenants.size(); ++t) {
      TenantResult& to = out.tenants[t];
      const TenantResult& from = r.tenants[t];
      to.offered += from.offered;
      to.completed += from.completed;
      to.rejected += from.rejected;
      to.shed += from.shed;
      to.failed += from.failed;
      to.cap_dropped += from.cap_dropped;
      to.bytes_completed += from.bytes_completed;
      to.latency.merge(from.latency);
      to.offered_mbs += from.offered_mbs;
      to.goodput_mbs += from.goodput_mbs;
    }
    out.latency.merge(r.latency);
    out.offered += r.offered;
    out.completed += r.completed;
    out.rejected += r.rejected;
    out.shed += r.shed;
    out.failed += r.failed;
    out.cap_dropped += r.cap_dropped;
    out.bytes_offered += r.bytes_offered;
    out.bytes_completed += r.bytes_completed;
    out.peak_in_flight += r.peak_in_flight;
    out.duration = std::max(out.duration, r.duration);
    out.drained_at = std::max(out.drained_at, r.drained_at);
    out.offered_mbs += r.offered_mbs;
    out.goodput_mbs += r.goodput_mbs;
    out.remote_ops += r.remote_ops;
    out.arrivals.insert(out.arrivals.end(), r.arrivals.begin(),
                        r.arrivals.end());
  }
  out.per_shard = std::move(per_world);
  return out;
}

}  // namespace

ShardedLoadResult run_open_loop(cluster::Composition& comp,
                                const OpenLoopConfig& per_world_config,
                                double remote_fraction, int threads) {
  const std::span<cluster::World* const> worlds = comp.worlds();
  std::vector<std::unique_ptr<OpenLoopDriver>> drivers;
  drivers.reserve(worlds.size());
  for (std::size_t w = 0; w < worlds.size(); ++w) {
    // Dispatcher frames are born here, on the coordinating thread; pin
    // them to their world's pool so they recycle wherever it runs.
    sim::FramePool::Scope scope(&worlds[w]->sim().frame_pool());
    const int s = static_cast<int>(w);
    OpenLoopConfig cfg = per_world_config;
    cfg.seed = per_world_config.seed + w;
    cfg.base_lba = comp.home_base(s);
    if (worlds.size() > 1 && remote_fraction > 0.0) {
      cfg.remote.fraction = remote_fraction;
      cfg.remote.exec = [&comp, s](std::uint64_t slot, std::uint32_t nblocks,
                                   bool write) {
        return comp.remote_io(s, slot, nblocks, write);
      };
    }
    drivers.push_back(std::make_unique<OpenLoopDriver>(
        *worlds[w]->engine, cfg, worlds[w]->gate.get()));
    drivers.back()->start();
  }

  comp.run(threads);

  std::vector<OpenLoopResult> per_world;
  per_world.reserve(drivers.size());
  for (auto& d : drivers) per_world.push_back(d->finish());
  return fold_results(std::move(per_world));
}

ShardedLoadResult run_open_loop_sharded(cluster::ShardedCluster& world,
                                        const OpenLoopConfig& per_shard_config,
                                        double remote_fraction, int threads) {
  return run_open_loop(world, per_shard_config, remote_fraction, threads);
}

}  // namespace raidx::load
