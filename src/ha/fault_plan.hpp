// Deterministic chaos scheduler: a seeded list of fail/heal/partition
// events applied at fixed simulated instants.
//
// A plan is data, not behavior: parse it from a spec string (the
// `raidxsim --faults=<spec>` surface), or generate one from a seed, then
// arm() it against a cluster.  Two runs with the same spec and seed inject
// the exact same faults at the exact same simulated times, so chaos
// results are reproducible and bisectable.
//
// Spec grammar (events separated by ';', times as an unsigned number and a
// required unit s|ms|us|ns; every value parses through sim/spec.hpp):
//   fail:disk=3@2s        kill disk 3 at t=2s
//   heal:disk=3@8s        operator services slot 3 at t=8s
//   part:node=1@1s        partition node 1 off the network at t=1s
//   join:node=1@4s        heal the partition at t=4s
//   rand:seed=7,faults=2,window=10s[,heal=3s]
//                         seeded random plan: 2 disk failures uniformly
//                         inside [window/10, window], each healed
//                         heal= later (omit heal= to leave them dead)
//   corrupt:disk=3,block=17@2s
//                         silently flip block 17 of disk 3 at t=2s: the
//                         disk keeps answering reads with a clean status,
//                         only a checksum (src/integrity) can tell
//   rot:seed=7,errors=5,window=10s
//                         seeded bit-rot storm: 5 corruptions on distinct
//                         (disk, block) pairs at uniform instants inside
//                         [window/10, window]
//
// WAN federation clauses (accepted only when the caller passes the
// federation's site/link counts -- single-cluster parses reject them):
//   partition:site=1@5s   drop every WAN link touching site 1 at t=5s
//   heal:site=1@15s       restore site 1's links at t=15s
//   brownout:link=0,bw=5@3s
//                         degrade link 0 to 5 MB/s at t=3s
//   heal:link=0@9s        restore link 0's nominal bandwidth at t=9s
// A site already partitioned (and not yet healed) cannot be partitioned
// again, and healing a site that is not partitioned is rejected --
// duplicate-site typos in a chaos recipe fail at parse time, not mid-run.
//
// Parse errors cite the offending *clause*, not the whole spec, so a long
// chaos recipe with one typo points straight at it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/task.hpp"
#include "sim/time.hpp"

namespace raidx::cluster {
class Cluster;
}

namespace raidx::integrity {
class IntegrityPlane;
}

namespace raidx::ha {

class Orchestrator;

struct FaultEvent {
  enum class Kind : std::uint8_t {
    kFailDisk,
    kHealDisk,
    kPartitionNode,
    kJoinNode,
    kCorruptBlock,
    kPartitionSite,  // WAN: every link touching the site goes down
    kHealSite,       // WAN: the site's links come back
    kBrownoutLink,   // WAN: degrade one link to `mbs`
    kHealLink,       // WAN: restore the link's nominal bandwidth
  };
  Kind kind = Kind::kFailDisk;
  int target = 0;  // disk, node, site, or link id
  std::uint64_t block = 0;  // kCorruptBlock: physical block on that disk
  double mbs = 0.0;         // kBrownoutLink: degraded bandwidth, MB/s
  sim::Time at = 0;

  /// A WAN site/link event: it belongs to the federation's links, not to
  /// any one cluster.
  bool wan() const {
    return kind == Kind::kPartitionSite || kind == Kind::kHealSite ||
           kind == Kind::kBrownoutLink || kind == Kind::kHealLink;
  }
};

class FaultPlan {
 public:
  FaultPlan() = default;

  /// Parse a spec string; `total_disks` bounds targets and feeds the
  /// rand: generator; `blocks_per_disk` bounds corrupt:/rot: block
  /// addresses and feeds the rot: generator (0 = corruption clauses
  /// rejected -- the caller has no geometry to validate against).
  /// `sites`/`links` bound the WAN clauses the same way (0 = rejected:
  /// no federation to aim them at).  Throws std::invalid_argument naming
  /// the offending clause.
  static FaultPlan parse(const std::string& spec, int total_disks,
                         std::uint64_t blocks_per_disk = 0, int sites = 0,
                         int links = 0);

  /// The most faults one `rand:` or `rot:` clause may draw.  Both
  /// generators reserve a slot per fault up front, so the count needs a
  /// ceiling; 65,536 events already bury a small array.
  static constexpr int kMaxStorm = 1 << 16;

  /// Seeded random plan: `faults` disk failures at distinct uniform times
  /// in [window/10, window], targets drawn over [0, targets); when
  /// heal_after > 0 every failure is serviced that much later, and a disk
  /// is never re-failed while still down.
  static FaultPlan random_plan(std::uint64_t seed, int targets, int faults,
                               sim::Time window, sim::Time heal_after = 0);

  /// Seeded bit-rot storm: `errors` corruptions on distinct (disk, block)
  /// pairs at uniform instants in [window/10, window].
  static FaultPlan random_rot(std::uint64_t seed, int targets,
                              std::uint64_t blocks_per_disk, int errors,
                              sim::Time window);

  void add(FaultEvent ev) { events_.push_back(ev); }
  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  /// Does the plan inject silent corruption (so callers know an integrity
  /// plane is needed to ever notice)?
  bool has_corruption() const;
  /// Does the plan carry WAN site/link events (so callers know it must be
  /// armed against a wan::Federation, not a bare Cluster)?
  bool has_wan() const;

  /// Spawn the driver task: sleeps to each event's instant and applies it
  /// (disk.fail(), network partition, ...), notifying `orch` when given so
  /// detection latency is measured from the true injection time, and
  /// `plane` of silent corruptions so detection latency (MTTD) is measured
  /// from the true decay time.  The driver runs in the foreground; the
  /// plan object must outlive the run.
  void arm(cluster::Cluster& cluster, Orchestrator* orch = nullptr,
           integrity::IntegrityPlane* plane = nullptr);

  /// Human-readable one-line-per-event rendering (CLI banner).
  std::string describe() const;

 private:
  sim::Task<> driver(cluster::Cluster& cluster, Orchestrator* orch,
                     integrity::IntegrityPlane* plane);

  std::vector<FaultEvent> events_;
};

}  // namespace raidx::ha
