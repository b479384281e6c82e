// Open-loop traffic tier: arrival engine, session multiplexing, and
// tail-latency accounting.
//
// The closed-loop workloads (src/workload) can never show saturation: a
// finite client population slows down with the array, so offered load
// tracks goodput by construction.  This tier keeps OFFERING load past the
// knee -- arrivals are generated by a timed process that does not wait for
// completions -- which is what exposes the goodput plateau and the p99
// blow-up the saturation-sweep methodology (EXPERIMENTS.md) publishes.
//
// Structure per tenant: one dispatcher coroutine draws inter-arrival gaps
// from a seeded RNG (Poisson, or ON-OFF modulated bursts), multiplexes the
// arrivals over `sessions` lightweight client sessions (a session is an
// index + a node binding, NOT a coroutine -- millions are free; a
// coroutine frame is only spent on in-flight requests, which the engine's
// frame pool recycles), samples a block from a Zipf(alpha) popularity
// curve over the tenant's working set, and spawns one request task.  Rank
// 0 of the Zipf curve is the hottest block; ranks map to consecutive LBAs,
// which striping spreads across the array's disks and -- when a cache
// fabric is attached -- concentrates in the coherence directory's hot set.
//
// Determinism: every random draw comes from per-tenant forks of one seeded
// root Rng, dispatchers are ordinary simulation coroutines, and
// completions only mutate per-tenant accumulators -- so two identically
// seeded runs produce identical arrival traces and identical results.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "raid/controller.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace raidx::cluster {
class Composition;
class ShardedCluster;
}  // namespace raidx::cluster

namespace raidx::load {

class QosGate;

enum class ArrivalDist { kPoisson, kBurst };

struct TenantLoad {
  /// Mean arrival rate in requests/s (Poisson), or the base rate an ON-OFF
  /// source modulates (kBurst: rate * burst_mult while ON, silent while
  /// OFF; mean ON/OFF period lengths are exponential with the means
  /// below).
  double rate_ops = 1000.0;
  ArrivalDist dist = ArrivalDist::kPoisson;
  double burst_on_s = 0.05;
  double burst_off_s = 0.45;
  double burst_mult = 10.0;
  /// Zipf skew over the tenant's working set; 0 = uniform.
  double zipf_alpha = 0.0;
  /// Private working set, in blocks.  Tenant regions are carved
  /// back-to-back from the engine's logical space.
  std::uint64_t working_set_blocks = 4096;
  std::uint32_t blocks_per_op = 1;
  double write_fraction = 0.0;
  /// Lightweight sessions this tenant multiplexes arrivals over.
  int sessions = 1024;
};

struct OpenLoopConfig {
  std::vector<TenantLoad> tenants;
  /// Arrival window: dispatchers stop offering at this simulated time;
  /// the run then drains every in-flight request.
  sim::Time duration = sim::seconds(1);
  std::uint64_t seed = 42;
  /// Safety cap on requests in flight (arrivals past it are counted in
  /// cap_dropped, never silently lost).  Far above the 100k-session scale
  /// the saturation harness drives; it only exists so a runaway overload
  /// configuration degrades into an explicit counter instead of eating
  /// the host's memory.
  std::size_t max_in_flight = std::size_t{1} << 22;
  /// Keep the first N arrivals (time, tenant, session, lba, write) for
  /// determinism checks; 0 records nothing.
  std::size_t record_arrivals = 0;
  /// Node that hosts no sessions (NFS server), or -1.
  int exclude_node = -1;
  /// First LBA tenant regions are carved from.  The default keeps the
  /// historical layout (regions from 0); the composition runner moves
  /// each world's driver to its Composition::home_base, so a site's local
  /// traffic stays inside its own primary region.
  std::uint64_t base_lba = 0;
  /// Cross-world traffic hook (the composition runner installs it).  When
  /// `exec` is set, each arrival flips a coin with probability `fraction`
  /// and, on heads, runs through `exec` -- Composition::remote_io, a
  /// gateway RPC into a remote placement group or a WAN op at a peer site
  /// -- instead of the local engine; `exec` receives the Zipf popularity
  /// slot (the callee maps it into the peer's logical space), the op
  /// size, and the direction, and resolves to the op's success.  A null
  /// exec (the default) draws nothing extra from the RNG stream, keeping
  /// one-world arrival streams bit-identical to builds that predate
  /// sharding.
  struct RemoteHook {
    double fraction = 0.0;
    std::function<sim::Task<bool>(std::uint64_t slot, std::uint32_t nblocks,
                                  bool write)>
        exec;
  };
  RemoteHook remote;
};

struct Arrival {
  sim::Time at = 0;
  int tenant = 0;
  int session = 0;
  std::uint64_t lba = 0;
  bool write = false;

  bool operator==(const Arrival&) const = default;
};

struct TenantResult {
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;   // admission kReject
  std::uint64_t shed = 0;       // admission kShed / queue overflow
  std::uint64_t failed = 0;     // real I/O errors
  std::uint64_t cap_dropped = 0;
  std::uint64_t bytes_completed = 0;
  obs::Histogram latency;  // ns, completed requests only
  double offered_mbs = 0.0;
  double goodput_mbs = 0.0;
};

struct OpenLoopResult {
  std::vector<TenantResult> tenants;
  obs::Histogram latency;  // cluster-wide, ns
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cap_dropped = 0;
  std::uint64_t bytes_offered = 0;
  std::uint64_t bytes_completed = 0;
  /// High-water mark of concurrently in-flight requests ("concurrent
  /// sessions" in the saturation report).
  std::uint64_t peak_in_flight = 0;
  /// Configured arrival window and the time the last completion landed
  /// (relative to the run's start).  In overload drained_at >> duration:
  /// that widening gap is the backlog the knee plot shows.
  sim::Time duration = 0;
  sim::Time drained_at = 0;
  double offered_mbs = 0.0;  // bytes offered over the arrival window
  double goodput_mbs = 0.0;  // bytes completed over the full drain
  std::vector<Arrival> arrivals;
  /// Arrivals redirected through the cross-shard hook (subset of offered;
  /// their completions/failures land in the usual buckets).
  std::uint64_t remote_ops = 0;
};

/// Run the open-loop workload on `engine` until every arrival from the
/// configured window has completed (or been rejected/shed).  When `gate`
/// is non-null it is attached to the engine for the run, each tenant's
/// session nodes are bound to it, and its `qos.*` counters are exported
/// alongside the `load.*` metrics into the simulation's obs registry (when
/// a hub is attached).
OpenLoopResult run_open_loop(raid::ArrayController& engine,
                             const OpenLoopConfig& config,
                             QosGate* gate = nullptr);

/// The two phases of run_open_loop, split apart so a caller that owns the
/// event loop -- the composition runner below, which advances several
/// worlds at once -- can interleave several workloads.  start()
/// validates the config, installs the admission gate, and spawns the
/// dispatchers (the arrival window opens at the simulation's current
/// time); the caller then drains the simulation(s); finish() restores the
/// gate, folds the accumulators into rates, exports `load.*` metrics, and
/// returns the result.  run_open_loop() is exactly start(); sim.run();
/// finish(), so the single-engine path stays bit-identical.
class OpenLoopDriver {
 public:
  OpenLoopDriver(raid::ArrayController& engine, const OpenLoopConfig& config,
                 QosGate* gate = nullptr);
  ~OpenLoopDriver();
  OpenLoopDriver(const OpenLoopDriver&) = delete;
  OpenLoopDriver& operator=(const OpenLoopDriver&) = delete;

  /// Throws std::invalid_argument on a bad config.  Call once.
  void start();
  /// Call once, after the simulation has fully drained.
  OpenLoopResult finish();

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Totals of one open-loop run over a composition's worlds:
/// OpenLoopResult's sums, per tenant too, with every world's completions
/// in `latency`, the slowest world's drain, and rates and
/// `peak_in_flight` summed over the worlds.  `arrivals` is each world's
/// recorded trace in world order: world 0's, then world 1's, and so on.
struct ShardedLoadResult : OpenLoopResult {
  std::vector<OpenLoopResult> per_shard;  // each world's own, in order
};

/// Drive `per_world_config` on every world of `comp` at once, the one
/// multi-world runner.  World w seeds its RNG root from
/// per_world_config.seed + w, carves its tenants from comp.home_base(w)
/// on, and admits through its World::gate when it has one.  With more
/// than one world, `remote_fraction` of each world's arrivals run through
/// comp.remote_io instead.  `threads` changes only wall-clock time, never
/// results: the run is a pure function of (seed, composition).
ShardedLoadResult run_open_loop(cluster::Composition& comp,
                                const OpenLoopConfig& per_world_config,
                                double remote_fraction, int threads);

/// run_open_loop over a ShardedCluster; the host-cost benchmark
/// (perfbench/) calls it.
ShardedLoadResult run_open_loop_sharded(cluster::ShardedCluster& world,
                                        const OpenLoopConfig& per_shard_config,
                                        double remote_fraction, int threads);

}  // namespace raidx::load
