// Recovery orchestration: the paper's reliability story, automated.
//
// Section 5 of the paper argues RAID-x's single-failure tolerance from
// geometry (every data block has an image on another node); this subsystem
// supplies the *operational* half of that argument -- noticing the failure,
// wiring in a spare, and re-establishing redundancy -- so MTTR becomes a
// measured output instead of an assumed input:
//
//  * failure detection rides two paths, whichever fires first: ordinary
//    traffic (a CDD that hits a failed disk reports it synchronously via
//    CddFabric::set_disk_failure_listener) and a monitor node's periodic
//    probe rounds (kProbe RPCs under a client-side timeout, so a dead or
//    partitioned node is detected by silence);
//  * hot-spare failover: a per-node spare pool with an optional global
//    overflow; taking a spare, waiting out the swap latency, and replacing
//    the disk updates the cluster view atomically at one simulated instant;
//  * auto-rebuild: the array controller's rebuild sweep is launched
//    automatically, rate-capped by a sim::TokenBucket so restoration does
//    not starve foreground I/O, with detection latency and MTTR recorded
//    per event for the obs registry;
//  * cache hygiene: a node declared down (missed heartbeats) has its
//    cooperative-cache directory state scrubbed so peers stop forwarding
//    reads at its memory.
//
// Everything here is opt-in: a cluster that never constructs an
// Orchestrator (and never arms a FaultPlan) executes a bit-identical event
// sequence to builds that predate this subsystem.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "cdd/cdd.hpp"
#include "disk/device.hpp"
#include "sim/time.hpp"

namespace raidx::cache {
class CacheFabric;
}
namespace raidx::raid {
class ArrayController;
}
namespace raidx::sim {
class TokenBucket;
}

namespace raidx::ha {

struct HaParams {
  /// Node that runs probe rounds and drives rebuilds.
  int monitor_node = 0;
  /// Probe-round cadence.  The monitor loop is a *daemon*: it wakes on
  /// this period only while foreground work exists (or a fault needs
  /// attention), so an idle simulation still terminates.
  sim::Time probe_interval = sim::milliseconds(250);
  /// Client-side timeout on each probe RPC (must be positive: a probe at
  /// a partitioned node otherwise waits forever).
  sim::Time probe_timeout = sim::milliseconds(50);
  /// Consecutive silent probe rounds before a node is declared down.
  int heartbeat_misses = 3;
  /// Hot spares racked per node, plus a shared global overflow pool.
  int spares_per_node = 1;
  int global_spares = 0;
  /// Latency of wiring a spare in place of the dead drive.
  sim::Time spare_swap_time = sim::seconds(2);
  /// Rebuild write-bandwidth cap in MB/s; 0 = no cap.
  double rebuild_mbs = 0.0;
  /// Launch the layout's rebuild sweep automatically after failover.
  /// Off: the spare is wired in (blank, rebuilding at watermark 0, so
  /// reads fall back to the degraded path) and awaits a manual sweep.
  bool auto_rebuild = true;
};

/// Lifecycle of one array slot as the orchestrator sees it.
enum class DiskState : std::uint8_t {
  kHealthy,
  kFailed,      // detected, failover not yet started
  kSwapping,    // spare being wired in
  kRebuilding,  // sweep running (or aborted: frozen watermark)
  kDegraded,    // failed with no spare left; serving degraded reads
};

/// Per-node hot spares with a global overflow pool, racked per device
/// class: an HDD spare cannot stand in for a failed SSD (and vice versa)
/// -- rebuild would demand flash latency from a spindle.  Each node stocks
/// `per_node` spares of every class it actually racks (a homogeneous
/// cluster therefore stocks exactly the pre-heterogeneity counts), and the
/// global pool stocks `global` of every class present anywhere.
class SparePool {
 public:
  static constexpr int kClasses = 2;  // disk::DeviceClass cardinality

  /// `node_masks[n]` has bit c set when node n racks devices of class c;
  /// empty = every node is HDD-only (the homogeneous default).
  SparePool(int nodes, int per_node, int global,
            const std::vector<std::uint8_t>& node_masks = {})
      : per_node_(static_cast<std::size_t>(nodes), {0, 0}), global_{0, 0} {
    std::uint8_t all = 0;
    for (int n = 0; n < nodes; ++n) {
      const std::uint8_t mask =
          node_masks.empty() ? std::uint8_t{1}
                             : node_masks[static_cast<std::size_t>(n)];
      all |= mask;
      for (int c = 0; c < kClasses; ++c) {
        if (mask & (1u << c)) {
          per_node_[static_cast<std::size_t>(n)][static_cast<std::size_t>(
              c)] = per_node;
        }
      }
    }
    for (int c = 0; c < kClasses; ++c) {
      if (all & (1u << c)) global_[static_cast<std::size_t>(c)] = global;
    }
  }

  /// Take a class-matched spare for a failure on `node`: local rack
  /// first, then the global pool.  False when both are empty -- even if
  /// the other class's racks are full.
  bool take(int node, disk::DeviceClass cls = disk::DeviceClass::kHdd) {
    const auto c = static_cast<std::size_t>(cls);
    auto& n = per_node_[static_cast<std::size_t>(node)][c];
    if (n > 0) {
      --n;
      return true;
    }
    if (global_[c] > 0) {
      --global_[c];
      return true;
    }
    return false;
  }
  /// Return one spare to `node`'s rack (a serviced drive restocks it).
  void restock(int node, disk::DeviceClass cls = disk::DeviceClass::kHdd) {
    ++per_node_[static_cast<std::size_t>(node)][static_cast<std::size_t>(
        cls)];
  }

  int available(int node, disk::DeviceClass cls) const {
    return per_node_[static_cast<std::size_t>(node)][static_cast<std::size_t>(
        cls)];
  }
  int available(int node) const {
    int t = 0;
    for (int s : per_node_[static_cast<std::size_t>(node)]) t += s;
    return t;
  }
  int global_available() const { return global_[0] + global_[1]; }
  int total_available() const {
    int t = global_available();
    for (const auto& n : per_node_) {
      for (int s : n) t += s;
    }
    return t;
  }

 private:
  std::vector<std::array<int, kClasses>> per_node_;
  std::array<int, kClasses> global_;
};

struct HaStats {
  std::uint64_t detections = 0;
  std::uint64_t detections_by_traffic = 0;
  std::uint64_t detections_by_probe = 0;
  std::uint64_t failovers = 0;
  std::uint64_t spare_exhausted = 0;
  /// Subset of spare_exhausted where spares of the WRONG device class were
  /// on the rack -- the heterogeneity tax, distinct from plain exhaustion.
  std::uint64_t spare_class_mismatch = 0;
  std::uint64_t rebuilds_completed = 0;
  std::uint64_t rebuilds_failed = 0;
  std::uint64_t nodes_declared_down = 0;
  std::uint64_t nodes_recovered = 0;
  std::uint64_t probes_sent = 0;
  /// Per-event samples: fault injection -> detection, and fault (or
  /// detection, when the injection instant is unknown) -> redundancy
  /// restored.  Exported as obs histograms.
  std::vector<sim::Time> detection_ns;
  std::vector<sim::Time> mttr_ns;
};

/// Drives the failure lifecycle for one engine's array.  Construct after
/// the engine; destroy before the fabric (the constructor registers the
/// fabric's disk-failure listener and, when a throttle is configured,
/// attaches a token bucket to the engine; the destructor detaches both).
class Orchestrator {
 public:
  Orchestrator(raid::ArrayController& engine, HaParams params = {});
  ~Orchestrator();
  Orchestrator(const Orchestrator&) = delete;
  Orchestrator& operator=(const Orchestrator&) = delete;

  /// Fault-injection hooks (the chaos FaultPlan calls these so detection
  /// latency can be measured from the true injection instant, and so the
  /// monitor keeps probing in traffic-free windows until the fault is
  /// found -- see attention_loop).
  void note_fault_injected(int disk);
  void note_node_partitioned(int node);
  void note_node_joined(int node);
  /// Operator serviced the slot: a recovered slot restocks the spare
  /// pool; a degraded slot (no spare was left) gets the fresh drive wired
  /// in directly and its rebuild launched.
  void note_disk_serviced(int disk);

  DiskState disk_state(int disk) const {
    return state_[static_cast<std::size_t>(disk)];
  }
  bool node_down(int node) const {
    return node_down_[static_cast<std::size_t>(node)] != 0;
  }
  const HaStats& stats() const { return stats_; }
  const SparePool& spares() const { return spares_; }
  const HaParams& params() const { return params_; }
  const sim::TokenBucket* throttle() const { return throttle_.get(); }
  /// Failovers (swap + rebuild) still in flight; tests drain on this.
  int recoveries_in_flight() const { return recoveries_in_flight_; }

 private:
  sim::Task<> watch_loop();      // daemon: periodic probe rounds
  sim::Task<> attention_loop();  // foreground: runs while a noted fault
                                 // is undetected, so detection completes
                                 // even with no other traffic
  sim::Task<> probe_round();
  void on_disk_failure_report(int disk, bool by_traffic);
  sim::Task<> recover_disk(int disk);
  void declare_node_down(int node);
  void declare_node_up(int node);

  raid::ArrayController& engine_;
  cdd::CddFabric& fabric_;
  HaParams params_;
  SparePool spares_;
  std::vector<DiskState> state_;
  std::vector<sim::Time> fault_time_;  // injection instant; -1 = unknown
  std::vector<int> missed_;            // consecutive silent rounds, per node
  std::vector<char> node_down_;
  std::vector<char> node_noted_;       // partition noted, not yet detected
  HaStats stats_;
  std::unique_ptr<sim::TokenBucket> throttle_;
  int undetected_ = 0;  // noted faults the monitor has not found yet
  bool attention_active_ = false;
  int recoveries_in_flight_ = 0;
};

}  // namespace raidx::ha
