// Cooperative disk drivers (CDD) -- the paper's enabling mechanism for the
// single I/O space.
//
// One CddService runs on every node, combining the paper's three modules:
//  * storage manager: a server loop draining the node's request mailbox and
//    executing I/O against the locally attached disks;
//  * client module: redirects I/O on remotely-managed disks to the owning
//    node's storage manager over the network ("device masquerading" -- the
//    caller addresses any disk in the SIOS and never sees the difference
//    beyond latency);
//  * consistency module: home-node partitioned lock-group table, whose
//    grants and releases are mirrored to every peer as one-way background
//    lock syncs.  The replica carries traffic only: a peer pays the wire
//    and its CPU for each sync and counts it, but keeps no contents,
//    because no model decision reads them.  A sync is a frameless
//    callback chain (DESIGN.md section 10): the home node fans it out peer
//    by peer through Network::send, and a peer applies it from an inline
//    event, each with its state in a record the fabric pools.
//
// Local requests bypass the network entirely (one kernel crossing), which is
// exactly the property that lets a serverless cluster beat a central file
// server.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "cdd/lock_table.hpp"
#include "cdd/message.hpp"
#include "cluster/cluster.hpp"
#include "sim/channel.hpp"
#include "sim/random.hpp"
#include "sim/record_pool.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"

namespace raidx::cdd {

struct CddParams {
  /// Mirror every lock grant/release to all peer consistency modules.
  bool replicate_lock_table = true;

  /// Client-side timeout on remote read/write/probe RPCs; 0 (the default)
  /// keeps the seed behavior of waiting forever, and leaves the request
  /// path bit-identical to builds that predate recovery orchestration.
  /// Lock traffic never times out: the home node is also where the data
  /// lives, so a dead lock home fails the I/O itself, and retrying a
  /// queued FIFO acquire would reorder writers.
  sim::Time request_timeout = 0;
  /// Retries after the first timeout before giving up (Reply.timed_out).
  int max_retries = 3;
  /// Exponential backoff between retries: base * multiplier^attempt,
  /// stretched by a seeded jitter in [0, backoff_jitter] so synchronized
  /// clients desynchronize deterministically.
  sim::Time backoff_base = sim::milliseconds(1);
  double backoff_multiplier = 2.0;
  double backoff_jitter = 0.25;
  std::uint64_t backoff_seed = 0x5eedb0ff;
};

class CddFabric;

/// Hooks the CDD data path calls when an integrity plane (src/integrity)
/// is attached.  An abstract interface rather than the concrete plane so
/// the CDD layer does not depend on the subsystem that drives repairs.
class IntegrityHooks {
 public:
  virtual ~IntegrityHooks() = default;
  /// Verify every ordinary read at the CDD boundary (--verify-reads).
  virtual bool verify_reads() const = 0;
  /// Simulated CPU cost of checksumming `bytes` at the serving node.
  virtual sim::Time checksum_cost(std::uint64_t bytes) const = 0;
  /// A block failed verification.  Runs synchronously inside the CDD
  /// handler; must be cheap and spawn any real work (repair, escalation).
  virtual void on_corruption_found(int disk, std::uint64_t offset,
                                   bool by_scrub) = 0;
};

class CddService {
 public:
  CddService(CddFabric& fabric, int node_id);
  CddService(const CddService&) = delete;
  CddService& operator=(const CddService&) = delete;

  sim::Channel<Request>& mailbox() { return mailbox_; }
  LockGroupTable& lock_table() { return locks_; }
  int node_id() const { return node_; }

  std::uint64_t requests_served() const { return served_; }

 private:
  friend class CddFabric;

  /// One lock sync in flight, at the home node sending it (`peer` is the
  /// peer it is on) or at a peer applying it (charging the CPU in
  /// Node::charge's callback form).
  struct Sync : cluster::Node::ChargeWaiter {
    CddService* svc = nullptr;
    obs::Span span;          // cdd.replicate, or cdd.serve.locksync
    obs::TraceContext ctx{};  // a peer's inbound context, until its span
    int peer = -1;
  };

  sim::Task<> server_loop();
  /// The handler for `req`'s kind, one coroutine per kind: GCC gives every
  /// branch's locals their own slot in a coroutine frame, so one handler
  /// branching over all kinds would make each request carry the read
  /// path's frame.  Lock syncs take no handler: server_loop applies them.
  sim::Task<> serve(Request&& req);
  sim::Task<> serve_read(Request req);
  sim::Task<> serve_write(Request req);
  sim::Task<> serve_lock(Request req);
  sim::Task<> serve_unlock(Request req);
  sim::Task<> serve_probe(Request req);
  sim::Task<> send_reply(int to, std::uint64_t rpc_id,
                         sim::Oneshot<Reply>* slot, Reply reply,
                         obs::TraceContext ctx = {});

  // Home node: mirror one grant or release to every peer, from an event
  // at this instant, one peer after another.
  void replicate();
  void send_syncs(Sync* s);
  static void synced(void* sync, bool delivered);
  void deliver_sync(Sync* s, bool delivered);
  // Peer: apply an incoming sync from an event at this instant.
  void receive_sync(const obs::TraceContext& ctx);
  void apply_sync(Sync* s);
  static void applied(cluster::Node::ChargeWaiter* sync);

  CddFabric& fabric_;
  int node_;
  sim::Channel<Request> mailbox_;
  LockGroupTable locks_;
  std::uint64_t served_ = 0;
};

/// The cluster-wide collection of CDDs plus the client-side API that the
/// RAID controllers program against.
class CddFabric {
 public:
  CddFabric(cluster::Cluster& cluster, CddParams params = {});
  CddFabric(const CddFabric&) = delete;
  CddFabric& operator=(const CddFabric&) = delete;

  /// Read `nblocks` from physical (disk, offset) on behalf of node
  /// `client`.  Returns the data; Reply.ok is false if the disk failed.
  sim::Task<Reply> read(int client, int disk_id, std::uint64_t offset,
                        std::uint32_t nblocks,
                        disk::IoPriority prio = disk::IoPriority::kForeground,
                        obs::TraceContext ctx = {});

  /// Write `data` to physical (disk, offset) on behalf of node `client`.
  sim::Task<Reply> write(int client, int disk_id, std::uint64_t offset,
                         block::Payload data,
                         disk::IoPriority prio = disk::IoPriority::kForeground,
                         obs::TraceContext ctx = {});

  /// Acquire/release exclusive write locks on a set of groups (sorted
  /// ascending, no duplicates).  Batched: one RPC per home node, homes
  /// visited in ascending order -- every client uses the same global
  /// (home, group) acquisition order, so overlapping writers queue FIFO
  /// instead of deadlocking.  `owner` is a token from next_lock_owner().
  sim::Task<> lock_groups(int client, std::vector<std::uint64_t> groups,
                          std::uint64_t owner, obs::TraceContext ctx = {});
  sim::Task<> unlock_groups(int client, std::vector<std::uint64_t> groups,
                            std::uint64_t owner, obs::TraceContext ctx = {});

  /// Scrub read: like read(), but with per-block checksum verification
  /// forced at the serving CDD.  Mismatching blocks come back listed in
  /// Reply.bad_blocks (ok stays true -- the scrubber wants the report,
  /// not a degraded fallback).  Runs at background priority so sweeps
  /// yield to foreground traffic.
  sim::Task<Reply> scrub_read(int client, int disk_id, std::uint64_t offset,
                              std::uint32_t nblocks,
                              obs::TraceContext ctx = {});

  /// Attach/detach the integrity plane.  Null (the default) keeps every
  /// read bit-identical to a build that predates the checksum plane.
  void set_integrity(IntegrityHooks* hooks) { integrity_ = hooks; }
  IntegrityHooks* integrity() const { return integrity_; }

  /// Health-check RPC: is `node` reachable, and (disk >= 0) is that disk
  /// alive?  Answered from device state with no media access, so probes
  /// never perturb disk heads or queue behind data traffic.  `timeout`
  /// bounds the round trip (0 falls back to the fabric default); probes
  /// are never retried -- the prober's own cadence is the retry policy.
  sim::Task<Reply> probe(int client, int node, int disk = -1,
                         sim::Time timeout = 0, obs::TraceContext ctx = {});

  /// Called by a CddService when a media access hits a failed disk, so
  /// detection can ride ordinary traffic instead of waiting for a probe
  /// round.  The listener runs synchronously; it must be cheap and spawn
  /// any real work (the ha::Orchestrator registers itself here).
  void set_disk_failure_listener(std::function<void(int)> fn) {
    disk_failure_listener_ = std::move(fn);
  }
  void notify_disk_failure(int disk) {
    if (disk_failure_listener_) disk_failure_listener_(disk);
  }

  /// Deterministic backoff before retry number `attempt` (0-based), with
  /// the seeded jitter applied.  Public so tests can pin the schedule.
  sim::Time backoff_delay(int attempt);

  bool timeouts_enabled() const { return params_.request_timeout > 0; }
  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t retries() const { return retries_; }
  std::uint64_t retries_exhausted() const { return retries_exhausted_; }
  std::uint64_t late_replies() const { return late_replies_; }

  /// Mint a fresh lock-owner token (unique across the fabric's lifetime).
  std::uint64_t next_lock_owner() { return ++lock_owner_seq_; }

  int lock_home(std::uint64_t group) const {
    return static_cast<int>(group % static_cast<std::uint64_t>(
                                        cluster_.num_nodes()));
  }

  cluster::Cluster& cluster() { return cluster_; }
  const CddParams& params() const { return params_; }
  CddService& service(int node) {
    return *services_[static_cast<std::size_t>(node)];
  }

  std::uint64_t remote_requests() const { return remote_requests_; }
  std::uint64_t local_requests() const { return local_requests_; }

  /// Lock-sync records made so far: the most syncs ever in flight at once,
  /// sending and applying together.
  std::size_t sync_records() const { return syncs_.size(); }

 private:
  friend class CddService;

  /// Route a request to the node owning its target; the returned task
  /// completes when the reply has fully arrived back at the client.  Picks
  /// one coroutine per delivery path (local mailbox, untimed remote, timed
  /// remote with retries), so an RPC's frame holds only its own path.
  /// `span` is the RPC's own span (empty for lock traffic, whose span the
  /// caller holds); the path coroutine closes it once the reply is in.
  sim::Task<Reply> submit(int client, int target_node, Request&& req,
                          obs::Span&& span);
  sim::Task<Reply> submit_local(int client, Request req, obs::Span span);
  sim::Task<Reply> submit_remote(int client, int target_node, Request req,
                                 obs::Span span);
  sim::Task<Reply> submit_timed(int client, int target_node, Request req,
                                obs::Span span, sim::Time timeout,
                                int max_retries);

  /// Watchdog fired for a pending RPC: resolve it with a timed-out reply
  /// unless the real reply won the race (then the map entry is gone).
  void resolve_timeout(std::uint64_t rpc_id);
  /// Route a server reply to the pending slot; false (and counted) when
  /// the watchdog already abandoned the RPC -- the late reply is dropped,
  /// never delivered twice.
  bool deliver_reply(std::uint64_t rpc_id, Reply reply);

  cluster::Cluster& cluster_;
  CddParams params_;
  std::vector<std::unique_ptr<CddService>> services_;
  std::uint64_t remote_requests_ = 0;
  std::uint64_t local_requests_ = 0;
  std::uint64_t lock_owner_seq_ = 0;
  /// rpc_id -> reply slot of the attempt still waiting.  Entries are
  /// erased by whichever of {server reply, timeout watchdog} gets there
  /// first; the slot pointer lives in submit_timed()'s frame, which the
  /// erasure protocol keeps alive until the slot resolves.
  std::unordered_map<std::uint64_t, sim::Oneshot<Reply>*> pending_;
  std::uint64_t rpc_seq_ = 0;
  sim::Rng backoff_rng_;
  std::uint64_t timeouts_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t retries_exhausted_ = 0;
  std::uint64_t late_replies_ = 0;
  std::function<void(int)> disk_failure_listener_;
  IntegrityHooks* integrity_ = nullptr;
  sim::RecordPool<CddService::Sync> syncs_;
};

}  // namespace raidx::cdd
