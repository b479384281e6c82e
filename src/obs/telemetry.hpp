// Continuous telemetry: per-request latency attribution, an SLO monitor
// with burn-rate alerts, one ordered cluster event log, and a sim-time
// series scraper.  Everything here follows the src/obs ground rules
// (obs.hpp): no function awaits, delays, or reorders simulation events --
// the scraper's daemon wakeups ride the queue as daemon events, which
// never change the timestamps (or relative order) of foreground work --
// and disabled means absent: each facility hangs off the Hub as a null
// unique_ptr until explicitly enabled.
//
// Attribution decomposes a request's end-to-end time into exclusive
// per-layer lanes.  The slot a request owns records, at every lane
// enter/exit, the time elapsed since its previous transition, charged to
// the *deepest currently-active* lane (disk.service outranks disk.queue
// outranks net.service ... outranks ctl.service, which is active for the
// whole request).  Every nanosecond between open and close is therefore
// charged to exactly one lane, so per-lane sums reconcile with end-to-end
// latency exactly -- not statistically.  Slot references are generation-
// checked: deferred background work (RAID-x image flushes) carrying a
// retired request's reference becomes a no-op instead of corrupting a
// recycled slot.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace raidx::obs {

/// Attribution lanes, ranked: when several are active the deepest (highest
/// value) owns the elapsed time.  kCtlService is the request's own lane,
/// active from open to close, so the partition is total.
enum class Lane : std::uint8_t {
  kCtlService = 0,  // controller logic not covered by any deeper lane
  kCtlQueue,        // admission gate + chunk-window waits
  kCacheService,    // cache fabric lookup/coherence work
  kCddQueue,        // client-side CDD request (RPC issue to reply)
  kCddService,      // server-side CDD handling
  kNetQueue,        // network transmit (port wait + flight)
  kNetService,      // TX/RX port occupancy + SCSI bus transfer
  kDiskQueue,       // disk request queued behind the arm
  kDiskService,     // arm busy on the request
};
inline constexpr std::size_t kNumLanes = 9;

const char* lane_name(Lane lane);  // "ctl.service", "disk.queue", ...

/// Request-type x lane attribution matrix plus the per-request slot table.
class Attribution {
 public:
  struct TypeTotals {
    std::array<std::uint64_t, kNumLanes> lane_ns{};
    std::uint64_t count = 0;       // completed requests folded in
    std::uint64_t total_ns = 0;    // their end-to-end time (== sum of lanes)
    std::uint64_t aborted = 0;     // failed/shed requests folded in
    std::uint64_t aborted_ns = 0;  // their end-to-end time (also in lanes)
  };

  /// Open a slot for a request starting now; returns a reference to stamp
  /// into the request's TraceContext (never 0).
  std::uint64_t open(bool is_write, sim::Time now);
  void enter(std::uint64_t ref, Lane lane, sim::Time now);
  void exit(std::uint64_t ref, Lane lane, sim::Time now);
  /// Fold the slot into the matrix and recycle it.  Stale references (a
  /// second close, or a reference that never resolved) are no-ops.
  void close(std::uint64_t ref, sim::Time now, bool completed);

  const TypeTotals& reads() const { return totals_[0]; }
  const TypeTotals& writes() const { return totals_[1]; }
  /// Slots currently open (tests assert 0 after a drained run).
  std::size_t live_slots() const { return live_; }

  /// Publish `attr.<read|write>.<lane>_ns` + count/total_ns/aborted keys.
  void export_metrics(Registry& reg) const;

 private:
  struct Slot {
    sim::Time last = 0;  // instant of the previous lane transition
    std::array<std::uint32_t, kNumLanes> depth{};
    std::array<sim::Time, kNumLanes> ns{};
    std::uint32_t gen = 1;
    std::uint8_t type = 0;  // 0 = read, 1 = write
    bool in_use = false;
  };

  Slot* resolve(std::uint64_t ref);
  static void charge(Slot& s, sim::Time now);

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
  TypeTotals totals_[2];
};

/// One ordered cluster event: faults, detections, failovers, rebuilds,
/// scrub verdicts, QoS sheds, SLO breaches -- a single append-ordered
/// stream so cross-subsystem causality (fault -> detection -> breach ->
/// recovery) is readable from one place.
struct ClusterEvent {
  sim::Time at = 0;
  std::uint64_t seq = 0;  // append order; ties on `at` stay ordered
  std::string kind;       // dotted, e.g. "ha.detected", "slo.breach"
  std::string detail;
};

class EventLog {
 public:
  void emit(sim::Time at, std::string kind, std::string detail);

  const std::vector<ClusterEvent>& events() const { return events_; }
  /// First event of `kind`, or nullptr.
  const ClusterEvent* first(const std::string& kind) const;
  std::uint64_t count(const std::string& kind) const;

  /// [{"at_ns":..., "seq":..., "kind":"...", "detail":"..."}, ...]
  std::string json() const;

 private:
  std::vector<ClusterEvent> events_;
};

/// Latency service-level objective evaluated over fixed windows of
/// simulated time.  Evaluation is lazy -- windows are rolled forward from
/// completion timestamps, never from a timer -- so an attached monitor
/// adds zero events to the simulation.  A window whose violation fraction
/// burns the error budget at >= `burn_alert`x fires a breach event; a
/// later window back under budget (burn < 1) emits the recovery.
struct SloConfig {
  sim::Time latency_target = sim::milliseconds(50);
  /// Fraction of requests that must complete under the target (the error
  /// budget is 1 - objective).
  double objective = 0.999;
  sim::Time window = sim::milliseconds(500);
  double burn_alert = 2.0;
};

struct SloStats {
  std::uint64_t requests = 0;
  std::uint64_t violations = 0;  // over-target or failed
  std::uint64_t windows = 0;     // evaluated (non-final) windows
  std::uint64_t breaches = 0;
  std::uint64_t recoveries = 0;
  double worst_burn = 0.0;
  bool breached = false;  // currently out of SLO
};

class SloMonitor {
 public:
  /// `log` may be null (counters only, no events).
  SloMonitor(EventLog* log, SloConfig cfg) : log_(log), cfg_(cfg) {}

  /// One finished request: `ok` false for real I/O failures (always a
  /// violation).  Admission turn-aways are not reported here -- the SLO
  /// covers served traffic.
  void note_request(sim::Time now, sim::Time latency, bool ok);

  const SloConfig& config() const { return cfg_; }
  const SloStats& stats() const { return stats_; }

  /// Publish `slo.*` counters/gauges.
  void export_metrics(Registry& reg) const;

 private:
  void evaluate_window(sim::Time at);

  EventLog* log_;
  SloConfig cfg_;
  SloStats stats_;
  bool started_ = false;
  sim::Time window_end_ = 0;
  std::uint64_t win_requests_ = 0;
  std::uint64_t win_violations_ = 0;
};

/// Sim-time series scraper: a daemon samples registered callbacks every
/// `interval` into per-series ring buffers of `capacity` windows.  Daemon
/// wakeups never keep sim.run() alive and never shift foreground
/// timestamps, so a watched run finishes at the same simulated instant as
/// an unwatched one.
class Scraper {
 public:
  Scraper(sim::Simulation& sim, sim::Time interval,
          std::size_t capacity = 240);

  /// Register a series before start(); `sample` is called at every tick.
  void add_series(std::string name, std::function<double()> sample);
  /// Spawn the daemon loop.  Call once, before sim.run().
  void start();

  sim::Time interval() const { return interval_; }
  std::size_t samples() const { return count_; }
  /// Sample timestamps / values in chronological order (oldest surviving
  /// window first).
  std::vector<sim::Time> times() const;
  std::vector<double> values(std::size_t series) const;

  /// {"interval_ms":..., "samples":[...], "series":{"name":[...], ...}}
  std::string json() const;
  /// Compact fixed-width table with min/mean/max/last and a sparkline per
  /// series (the `raidxsim --watch` render).
  std::string render() const;

 private:
  struct Series {
    std::string name;
    std::function<double()> sample;
    std::vector<double> ring;
  };

  sim::Task<> loop();
  template <typename T>
  std::vector<T> unroll(const std::vector<T>& ring) const;

  sim::Simulation& sim_;
  sim::Time interval_;
  std::size_t capacity_;
  std::size_t count_ = 0;  // samples taken (ring holds min(count, capacity))
  std::size_t head_ = 0;   // next ring slot to overwrite
  std::vector<sim::Time> times_;
  std::vector<Series> series_;
  bool started_ = false;
};

}  // namespace raidx::obs
