#include "ha/ha.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <utility>

#include "cache/cache_fabric.hpp"
#include "cluster/cluster.hpp"
#include "obs/obs.hpp"
#include "raid/controller.hpp"
#include "sim/token_bucket.hpp"

namespace raidx::ha {

namespace {

constexpr sim::Time kUnknownFaultTime = -1;

/// Bit c set when node n racks devices of class c, for SparePool seeding.
std::vector<std::uint8_t> device_class_masks(const cluster::Cluster& cluster) {
  const auto& geo = cluster.geometry();
  std::vector<std::uint8_t> masks(static_cast<std::size_t>(geo.nodes), 0);
  for (int node = 0; node < geo.nodes; ++node) {
    for (int row = 0; row < geo.disks_per_node; ++row) {
      masks[static_cast<std::size_t>(node)] |= static_cast<std::uint8_t>(
          1u << static_cast<int>(
              cluster.device_class(geo.disk_id(row, node))));
    }
  }
  return masks;
}

std::string disk_detail(int disk, const char* extra = nullptr) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "disk=%d%s%s", disk, extra ? " " : "",
                extra ? extra : "");
  return buf;
}

}  // namespace

Orchestrator::Orchestrator(raid::ArrayController& engine, HaParams params)
    : engine_(engine),
      fabric_(engine.fabric()),
      params_(params),
      spares_(fabric_.cluster().num_nodes(), params.spares_per_node,
              params.global_spares, device_class_masks(fabric_.cluster())),
      state_(static_cast<std::size_t>(fabric_.cluster().total_disks()),
             DiskState::kHealthy),
      fault_time_(static_cast<std::size_t>(fabric_.cluster().total_disks()),
                  kUnknownFaultTime),
      missed_(static_cast<std::size_t>(fabric_.cluster().num_nodes()), 0),
      node_down_(static_cast<std::size_t>(fabric_.cluster().num_nodes()), 0),
      node_noted_(static_cast<std::size_t>(fabric_.cluster().num_nodes()),
                  0) {
  // A probe at a partitioned node with no timeout would wait forever and
  // wedge the simulation; clamp to something sane instead.
  if (params_.probe_timeout <= 0) {
    params_.probe_timeout = sim::milliseconds(50);
  }

  if (params_.rebuild_mbs > 0) {
    const double rate = params_.rebuild_mbs * 1e6;  // bytes/s
    const double burst = std::max(
        static_cast<double>(fabric_.cluster().geometry().block_bytes),
        rate / 10.0);
    throttle_ = std::make_unique<sim::TokenBucket>(fabric_.cluster().sim(),
                                                   rate, burst);
    engine_.set_rebuild_throttle(throttle_.get());
  }

  // Detection path 1: ordinary traffic.  The listener runs synchronously
  // inside the CDD handler, so it only flips state and spawns tasks.
  fabric_.set_disk_failure_listener(
      [this](int disk) { on_disk_failure_report(disk, /*by_traffic=*/true); });

  // Detection path 2: the monitor's probe rounds.
  fabric_.cluster().sim().spawn(watch_loop());
}

Orchestrator::~Orchestrator() {
  fabric_.set_disk_failure_listener(nullptr);
  engine_.set_rebuild_throttle(nullptr);
}

void Orchestrator::note_fault_injected(int disk) {
  if (state_[static_cast<std::size_t>(disk)] != DiskState::kHealthy) return;
  fault_time_[static_cast<std::size_t>(disk)] =
      fabric_.cluster().sim().now();
  ++undetected_;
  if (!attention_active_) {
    attention_active_ = true;
    fabric_.cluster().sim().spawn(attention_loop());
  }
}

void Orchestrator::note_node_partitioned(int node) {
  if (node_noted_[static_cast<std::size_t>(node)] ||
      node_down_[static_cast<std::size_t>(node)]) {
    return;
  }
  node_noted_[static_cast<std::size_t>(node)] = 1;
  ++undetected_;
  if (!attention_active_) {
    attention_active_ = true;
    fabric_.cluster().sim().spawn(attention_loop());
  }
}

void Orchestrator::note_node_joined(int node) {
  // Healed before the monitor ever declared it down: the noted fault will
  // never be "detected", so stop holding the attention loop open for it.
  if (node_noted_[static_cast<std::size_t>(node)] &&
      !node_down_[static_cast<std::size_t>(node)]) {
    node_noted_[static_cast<std::size_t>(node)] = 0;
    --undetected_;
  }
}

void Orchestrator::note_disk_serviced(int disk) {
  auto& slot = state_[static_cast<std::size_t>(disk)];
  switch (slot) {
    case DiskState::kHealthy: {
      const auto idx = static_cast<std::size_t>(disk);
      if (fault_time_[idx] != kUnknownFaultTime) {
        // Serviced before detection: account the detection now (the
        // service visit found the dead drive), then recover normally.
        fault_time_[idx] = kUnknownFaultTime;
        --undetected_;
        ++stats_.detections;
        slot = DiskState::kFailed;
        ++recoveries_in_flight_;
        fabric_.cluster().sim().spawn(recover_disk(disk));
        break;
      }
      // Recovered slot: the operator's visit restocks the local rack
      // with a drive of the slot's own class.
      spares_.restock(fabric_.cluster().geometry().node_of(disk),
                      fabric_.cluster().device_class(disk));
      break;
    }
    case DiskState::kSwapping:
    case DiskState::kRebuilding:
      // Recovery already in progress on a spare; the serviced original
      // replenishes the rack it came from.
      spares_.restock(fabric_.cluster().geometry().node_of(disk),
                      fabric_.cluster().device_class(disk));
      break;
    case DiskState::kFailed:
    case DiskState::kDegraded:
      // No spare was available: the serviced drive IS the spare -- stock
      // it into the local rack so recover_disk's take() finds it.
      spares_.restock(fabric_.cluster().geometry().node_of(disk),
                      fabric_.cluster().device_class(disk));
      slot = DiskState::kFailed;
      ++recoveries_in_flight_;
      fabric_.cluster().sim().spawn(recover_disk(disk));
      break;
  }
}

void Orchestrator::on_disk_failure_report(int disk, bool by_traffic) {
  const auto idx = static_cast<std::size_t>(disk);
  if (state_[idx] != DiskState::kHealthy) return;  // already handled
  state_[idx] = DiskState::kFailed;
  ++stats_.detections;
  if (by_traffic) {
    ++stats_.detections_by_traffic;
  } else {
    ++stats_.detections_by_probe;
  }
  if (fault_time_[idx] != kUnknownFaultTime) {
    stats_.detection_ns.push_back(fabric_.cluster().sim().now() -
                                  fault_time_[idx]);
    --undetected_;
  }
  obs::log_event(fabric_.cluster().sim(), "ha.detected",
                 disk_detail(disk, by_traffic ? "by=traffic" : "by=probe"));
  ++recoveries_in_flight_;
  fabric_.cluster().sim().spawn(recover_disk(disk));
}

sim::Task<> Orchestrator::recover_disk(int disk) {
  auto& cluster = fabric_.cluster();
  const auto idx = static_cast<std::size_t>(disk);
  const int node = cluster.geometry().node_of(disk);
  const sim::Time injected = fault_time_[idx];
  const sim::Time detected = cluster.sim().now();
  fault_time_[idx] = kUnknownFaultTime;

  obs::Span span = obs::trace_span(
      cluster.sim(), {}, "ha.failover", obs::Track::kRequest,
      params_.monitor_node,
      [&](obs::SpanArgs& a) { a.tag("disk", disk).tag("node", node); });

  const disk::DeviceClass cls = cluster.device_class(disk);
  if (!spares_.take(node, cls)) {
    // Nothing class-matched to fail over to; the array keeps serving via
    // its degraded path until note_disk_serviced brings a fresh drive.
    state_[idx] = DiskState::kDegraded;
    ++stats_.spare_exhausted;
    if (spares_.available(node) > 0 || spares_.global_available() > 0) {
      // Spares of the WRONG class were on the rack: a spindle cannot
      // stand in for flash (or vice versa).
      ++stats_.spare_class_mismatch;
      obs::log_event(cluster.sim(), "ha.spare_class_mismatch",
                     disk_detail(disk, disk::to_string(cls)));
    }
    obs::log_event(cluster.sim(), "ha.spare_exhausted", disk_detail(disk));
    --recoveries_in_flight_;
    co_return;
  }

  state_[idx] = DiskState::kSwapping;
  co_await cluster.sim().delay(params_.spare_swap_time);

  // The swap commits atomically at this instant: replace() hands the slot
  // a blank disk, and begin_rebuild() immediately marks every block
  // not-yet-restored -- without it, reads between the swap and the sweep's
  // own begin_rebuild() would be served zeros instead of falling back to
  // the degraded path.
  auto& d = cluster.disk(disk);
  d.replace();
  d.begin_rebuild();
  state_[idx] = DiskState::kRebuilding;
  ++stats_.failovers;
  obs::log_event(cluster.sim(), "ha.failover", disk_detail(disk));

  if (!params_.auto_rebuild) {
    // Leave the spare blank and marked rebuilding (watermark 0); a manual
    // rebuild_disk() call finishes the job.
    --recoveries_in_flight_;
    co_return;
  }

  try {
    co_await engine_.rebuild_disk(params_.monitor_node, disk);
    state_[idx] = DiskState::kHealthy;
    ++stats_.rebuilds_completed;
    const sim::Time since =
        injected != kUnknownFaultTime ? injected : detected;
    stats_.mttr_ns.push_back(cluster.sim().now() - since);
    obs::log_event(cluster.sim(), "ha.rebuilt", disk_detail(disk));
  } catch (const raid::IoError&) {
    // Second failure (or RAID-0) aborted the sweep; RebuildScope froze the
    // watermark, so the unrestored tail keeps reading degraded.
    ++stats_.rebuilds_failed;
    obs::log_event(cluster.sim(), "ha.rebuild_failed", disk_detail(disk));
  }
  --recoveries_in_flight_;
}

sim::Task<> Orchestrator::probe_round() {
  auto& cluster = fabric_.cluster();
  const auto& geo = cluster.geometry();
  for (int node = 0; node < cluster.num_nodes(); ++node) {
    ++stats_.probes_sent;
    cdd::Reply alive = co_await fabric_.probe(
        params_.monitor_node, node, -1, params_.probe_timeout);
    if (alive.timed_out) {
      auto& misses = missed_[static_cast<std::size_t>(node)];
      ++misses;
      if (misses >= params_.heartbeat_misses &&
          !node_down_[static_cast<std::size_t>(node)]) {
        declare_node_down(node);
      }
      continue;
    }
    missed_[static_cast<std::size_t>(node)] = 0;
    if (node_down_[static_cast<std::size_t>(node)]) declare_node_up(node);

    // Node is reachable: check its disks' health from device state.
    for (int row = 0; row < geo.disks_per_node; ++row) {
      const int disk = geo.disk_id(row, node);
      if (state_[static_cast<std::size_t>(disk)] != DiskState::kHealthy) {
        continue;
      }
      ++stats_.probes_sent;
      cdd::Reply r = co_await fabric_.probe(params_.monitor_node, node,
                                            disk, params_.probe_timeout);
      if (!r.timed_out && !r.ok) {
        on_disk_failure_report(disk, /*by_traffic=*/false);
      }
    }
  }
}

void Orchestrator::declare_node_down(int node) {
  node_down_[static_cast<std::size_t>(node)] = 1;
  ++stats_.nodes_declared_down;
  {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "node=%d", node);
    obs::log_event(fabric_.cluster().sim(), "ha.node_down", buf);
  }
  if (node_noted_[static_cast<std::size_t>(node)]) {
    node_noted_[static_cast<std::size_t>(node)] = 0;
    --undetected_;
  }
  // Scrub the cooperative cache: peers must stop counting on this node's
  // memory, and its directory entries are now unreachable.
  if (cache::CacheFabric* c = engine_.cache()) c->on_node_down(node);
}

void Orchestrator::declare_node_up(int node) {
  node_down_[static_cast<std::size_t>(node)] = 0;
  ++stats_.nodes_recovered;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "node=%d", node);
  obs::log_event(fabric_.cluster().sim(), "ha.node_up", buf);
}

sim::Task<> Orchestrator::watch_loop() {
  auto& sim = fabric_.cluster().sim();
  for (;;) {
    // Daemon tick: parks while the simulation is otherwise idle, so a
    // monitored but quiescent cluster still lets run() terminate.
    co_await sim.daemon_delay(params_.probe_interval);
    if (attention_active_) continue;  // attention_loop is already probing
    co_await probe_round();
  }
}

sim::Task<> Orchestrator::attention_loop() {
  // Foreground: keeps the simulation alive until every noted fault has
  // been detected, so chaos runs in traffic-free windows converge.
  auto& sim = fabric_.cluster().sim();
  while (undetected_ > 0) {
    co_await probe_round();
    if (undetected_ > 0) co_await sim.delay(params_.probe_interval);
  }
  attention_active_ = false;
}

}  // namespace raidx::ha
