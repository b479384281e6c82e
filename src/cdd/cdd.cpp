#include "cdd/cdd.hpp"

#include <cassert>
#include <utility>

namespace raidx::cdd {

CddService::CddService(CddFabric& fabric, int node_id)
    : fabric_(fabric),
      node_(node_id),
      mailbox_(fabric.cluster().sim()),
      locks_(fabric.cluster().sim()) {}

sim::Task<> CddService::server_loop() {
  for (;;) {
    Request req = co_await mailbox_.recv();
    ++served_;
    // Each request is handled concurrently; ordering on the actual disk is
    // enforced by the disk's own FIFO queue, as in a real driver.
    if (req.op == Request::Op::kLockSync) {
      receive_sync(req.ctx);
    } else {
      fabric_.cluster().sim().spawn(serve(std::move(req)));
    }
  }
}

sim::Task<> CddService::serve(Request&& req) {
  switch (req.op) {
    case Request::Op::kRead:
      return serve_read(std::move(req));
    case Request::Op::kWrite:
      return serve_write(std::move(req));
    case Request::Op::kLock:
      return serve_lock(std::move(req));
    case Request::Op::kUnlock:
      return serve_unlock(std::move(req));
    case Request::Op::kLockSync:
    case Request::Op::kProbe:
      break;
  }
  assert(req.op == Request::Op::kProbe && "syncs never reach a handler");
  return serve_probe(std::move(req));
}

sim::Task<> CddService::serve_read(Request req) {
  auto& cluster = fabric_.cluster();
  auto& node = cluster.node(node_);
  obs::Span span = obs::trace_span(
      cluster.sim(), req.ctx, "cdd.serve.read", obs::Track::kServer, node_,
      [&](obs::SpanArgs& a) { a.tag("node", node_).tag("disk", req.disk); });
  Reply reply;
  co_await node.cpu_work(req.wire_bytes());
  try {
    auto& d = cluster.disk(req.disk);
    // Failed disks and not-yet-rebuilt regions cannot serve reads;
    // the client's controller falls back to its degraded path.
    if (!d.readable(req.offset, req.nblocks)) {
      reply.ok = false;
      if (d.failed()) fabric_.notify_disk_failure(req.disk);
    } else {
      co_await d.io(disk::IoKind::kRead, req.offset, req.nblocks, req.prio,
                    span.ctx());
      reply.data = d.read_payload(req.offset, req.nblocks);
      IntegrityHooks* integ = fabric_.integrity();
      if (integ != nullptr && (req.verify || integ->verify_reads())) {
        co_await node.compute(integ->checksum_cost(
            static_cast<std::uint64_t>(req.nblocks) * d.block_bytes()));
        d.verify_blocks(req.offset, req.nblocks, reply.bad_blocks);
        for (std::uint64_t b : reply.bad_blocks) {
          integ->on_corruption_found(req.disk, b, req.verify);
        }
        if (!reply.bad_blocks.empty() && !req.verify) {
          // An ordinary read must never deliver bytes that failed
          // verification: fail the reply so the client's controller
          // re-fetches through its degraded/redundancy path (and the bad
          // bytes can never be installed in a cache).
          reply.ok = false;
          reply.data = {};
        }
      }
    }
  } catch (const disk::DiskFailedError& e) {
    reply.ok = false;
    fabric_.notify_disk_failure(e.disk_id);
  }
  co_await send_reply(req.from, req.rpc_id, req.reply, std::move(reply),
                      span.ctx());
}

sim::Task<> CddService::serve_write(Request req) {
  auto& cluster = fabric_.cluster();
  auto& node = cluster.node(node_);
  obs::Span span = obs::trace_span(
      cluster.sim(), req.ctx, "cdd.serve.write", obs::Track::kServer, node_,
      [&](obs::SpanArgs& a) { a.tag("node", node_).tag("disk", req.disk); });
  Reply reply;
  co_await node.cpu_work(req.wire_bytes());
  try {
    auto& d = cluster.disk(req.disk);
    // With an integrity plane attached, the CDD computes the blocks'
    // checksums before they hit the media (write_data stores them).
    if (IntegrityHooks* integ = fabric_.integrity()) {
      co_await node.compute(integ->checksum_cost(
          static_cast<std::uint64_t>(req.nblocks) * d.block_bytes()));
    }
    co_await d.io(disk::IoKind::kWrite, req.offset, req.nblocks, req.prio,
                  span.ctx());
    d.write_data(req.offset, req.payload);
  } catch (const disk::DiskFailedError& e) {
    reply.ok = false;
    fabric_.notify_disk_failure(e.disk_id);
  }
  co_await send_reply(req.from, req.rpc_id, req.reply, std::move(reply),
                      span.ctx());
}

sim::Task<> CddService::serve_lock(Request req) {
  auto& cluster = fabric_.cluster();
  obs::Span span = obs::trace_span(
      cluster.sim(), req.ctx, "cdd.serve.lock", obs::Track::kServer, node_,
      [&](obs::SpanArgs& a) {
        a.tag("node", node_)
            .tag("groups", static_cast<std::int64_t>(req.lock_groups.size()));
      });
  co_await cluster.node(node_).cpu_work(req.wire_bytes());
  // Grant the whole record atomically: groups in ascending order, the same
  // order every requester uses.
  for (std::uint64_t g : req.lock_groups) {
    if (!locks_.try_acquire_now(g, req.lock_owner)) {
      co_await locks_.acquire(g, req.lock_owner);
    }
    if (fabric_.params().replicate_lock_table) replicate();
  }
  co_await send_reply(req.from, req.rpc_id, req.reply, Reply{}, span.ctx());
}

sim::Task<> CddService::serve_unlock(Request req) {
  auto& cluster = fabric_.cluster();
  obs::Span span = obs::trace_span(
      cluster.sim(), req.ctx, "cdd.serve.unlock", obs::Track::kServer, node_,
      [&](obs::SpanArgs& a) {
        a.tag("node", node_)
            .tag("groups", static_cast<std::int64_t>(req.lock_groups.size()));
      });
  co_await cluster.node(node_).cpu_work(req.wire_bytes());
  for (std::uint64_t g : req.lock_groups) {
    locks_.release(g, req.lock_owner);
    if (fabric_.params().replicate_lock_table) replicate();
  }
  co_await send_reply(req.from, req.rpc_id, req.reply, Reply{}, span.ctx());
}

sim::Task<> CddService::serve_probe(Request req) {
  // Health query answered from device state: no media access, so a probe
  // never perturbs the disk head or queues behind data traffic.
  auto& cluster = fabric_.cluster();
  obs::Span span = obs::trace_span(
      cluster.sim(), req.ctx, "cdd.serve.probe", obs::Track::kServer, node_,
      [&](obs::SpanArgs& a) { a.tag("node", node_).tag("disk", req.disk); });
  Reply reply;
  co_await cluster.node(node_).cpu_work(req.wire_bytes());
  if (req.disk >= 0) reply.ok = !cluster.disk(req.disk).failed();
  co_await send_reply(req.from, req.rpc_id, req.reply, std::move(reply),
                      span.ctx());
}

sim::Task<> CddService::send_reply(int to, std::uint64_t rpc_id,
                                   sim::Oneshot<Reply>* slot, Reply reply,
                                   obs::TraceContext ctx) {
  if (to != node_) {
    auto& cluster = fabric_.cluster();
    co_await cluster.node(node_).cpu_work(reply.wire_bytes());
    const bool delivered = co_await cluster.network().transmit(
        node_, to, reply.wire_bytes(), ctx);
    // Reply lost to a partition: the client's watchdog owns the outcome.
    if (!delivered) co_return;
  }
  if (rpc_id != 0) {
    fabric_.deliver_reply(rpc_id, std::move(reply));
  } else {
    assert(slot != nullptr);
    slot->set(std::move(reply));
  }
}

// A sync is all header: the group and owner it names are not kept at the
// peers, so it carries neither.
void CddService::replicate() {
  Sync* s = fabric_.syncs_.take();
  s->svc = this;
  s->peer = -1;
  fabric_.cluster().sim().schedule(0, [s] {
    CddService& svc = *s->svc;
    // Background one-way traffic gets its own root trace.
    s->span = obs::trace_span(
        svc.fabric_.cluster().sim(), {}, "cdd.replicate",
        obs::Track::kRequest, svc.node_,
        [&](obs::SpanArgs& a) { a.tag("node", svc.node_); });
    svc.send_syncs(s);
  });
}

void CddService::send_syncs(Sync* s) {
  auto& cluster = fabric_.cluster();
  while (++s->peer < cluster.num_nodes()) {
    if (s->peer == node_) continue;
    const net::Network::Sent sent = cluster.network().send(
        node_, s->peer, kHeaderBytes, s->span.ctx(), &synced, s);
    if (sent == net::Network::Sent::kInFlight) return;
    deliver_sync(s, sent == net::Network::Sent::kDelivered);
  }
  s->span.close();
  fabric_.syncs_.give(s);
}

void CddService::synced(void* sync, bool delivered) {
  auto* s = static_cast<Sync*>(sync);
  s->svc->deliver_sync(s, delivered);
  s->svc->send_syncs(s);
}

void CddService::deliver_sync(Sync* s, bool delivered) {
  // Replication is best-effort one-way traffic; a partitioned peer just
  // misses the update.
  if (!delivered) return;
  Request sync;
  sync.op = Request::Op::kLockSync;
  sync.from = node_;
  sync.ctx = s->span.ctx();
  fabric_.service(s->peer).mailbox().send(std::move(sync));
}

void CddService::receive_sync(const obs::TraceContext& ctx) {
  Sync* s = fabric_.syncs_.take();
  s->svc = this;
  s->ctx = ctx;
  fabric_.cluster().sim().schedule(0, [s] { s->svc->apply_sync(s); });
}

// Applying a sync charges the CPU, as serving any request does, then
// counts the sync.
void CddService::apply_sync(Sync* s) {
  auto& cluster = fabric_.cluster();
  s->span = obs::trace_span(
      cluster.sim(), s->ctx, "cdd.serve.locksync", obs::Track::kServer, node_,
      [&](obs::SpanArgs& a) { a.tag("node", node_); });
  auto& node = cluster.node(node_);
  node.charge(s, node.cpu_time(kHeaderBytes), &applied);
}

void CddService::applied(cluster::Node::ChargeWaiter* sync) {
  auto* s = static_cast<Sync*>(sync);
  CddService& svc = *s->svc;
  svc.locks_.note_replica_update();
  s->span.close();
  svc.fabric_.syncs_.give(s);
}

CddFabric::CddFabric(cluster::Cluster& cluster, CddParams params)
    : cluster_(cluster),
      params_(params),
      backoff_rng_(params.backoff_seed),
      syncs_(cluster.sim()) {
  services_.reserve(static_cast<std::size_t>(cluster.num_nodes()));
  for (int i = 0; i < cluster.num_nodes(); ++i) {
    services_.push_back(std::make_unique<CddService>(*this, i));
    cluster.sim().spawn(services_.back()->server_loop());
  }
}

sim::Task<Reply> CddFabric::submit(int client, int target_node,
                                   Request&& req, obs::Span&& span) {
  req.from = client;
  if (target_node == client) {
    ++local_requests_;
    return submit_local(client, std::move(req), std::move(span));
  }
  ++remote_requests_;
  // Only data-path ops are safely retryable: reads and probes are
  // idempotent, and block writes are idempotent at this layer (same
  // payload to the same physical extent).  Lock traffic never times out
  // (see CddParams), so its reply routes through the raw slot pointer.
  const bool can_retry = req.op == Request::Op::kRead ||
                         req.op == Request::Op::kWrite ||
                         req.op == Request::Op::kProbe;
  const sim::Time timeout =
      can_retry ? (req.timeout > 0 ? req.timeout : params_.request_timeout)
                : 0;
  if (timeout <= 0) {
    return submit_remote(client, target_node, std::move(req),
                         std::move(span));
  }
  const int max_retries =
      req.retries >= 0 ? req.retries : params_.max_retries;
  return submit_timed(client, target_node, std::move(req), std::move(span),
                      timeout, max_retries);
}

sim::Task<Reply> CddFabric::submit_local(int client, Request req,
                                         obs::Span span) {
  sim::Oneshot<Reply> slot(cluster_.sim());
  req.reply = &slot;
  service(client).mailbox().send(std::move(req));
  Reply reply = co_await slot.wait();
  span.close();
  co_return reply;
}

sim::Task<Reply> CddFabric::submit_remote(int client, int target_node,
                                          Request req, obs::Span span) {
  const std::uint64_t request_bytes = req.wire_bytes();
  sim::Oneshot<Reply> slot(cluster_.sim());
  req.reply = &slot;
  co_await cluster_.node(client).cpu_work(request_bytes);
  const bool delivered = co_await cluster_.network().transmit(
      client, target_node, request_bytes, req.ctx);
  if (delivered) service(target_node).mailbox().send(std::move(req));
  // An undelivered request with no watchdog waits forever -- exactly the
  // seed's semantics; chaos runs must configure request_timeout.
  Reply reply = co_await slot.wait();
  co_await cluster_.node(client).cpu_work(reply.wire_bytes());
  span.close();
  co_return reply;
}

sim::Task<Reply> CddFabric::submit_timed(int client, int target_node,
                                         Request req, obs::Span span,
                                         sim::Time timeout,
                                         int max_retries) {
  const std::uint64_t request_bytes = req.wire_bytes();
  for (int attempt = 0;; ++attempt) {
    // Fresh slot and fresh rpc id per attempt: a reply to an abandoned
    // attempt finds no map entry and is dropped, never double-delivered.
    sim::Oneshot<Reply> slot(cluster_.sim());
    const std::uint64_t id = ++rpc_seq_;
    pending_.emplace(id, &slot);
    Request wire = req;       // keep `req` for potential retries
    wire.rpc_id = id;
    wire.reply = nullptr;     // timed RPCs route through the pending map
    co_await cluster_.node(client).cpu_work(request_bytes);
    const bool delivered = co_await cluster_.network().transmit(
        client, target_node, request_bytes, req.ctx);
    if (delivered) service(target_node).mailbox().send(std::move(wire));
    cluster_.sim().schedule(timeout, [this, id] { resolve_timeout(id); });
    Reply reply = co_await slot.wait();
    if (!reply.timed_out) {
      co_await cluster_.node(client).cpu_work(reply.wire_bytes());
      span.close();
      co_return reply;
    }
    ++timeouts_;
    if (attempt >= max_retries) {
      ++retries_exhausted_;
      span.close();
      co_return reply;  // ok = false, timed_out = true
    }
    ++retries_;
    co_await cluster_.sim().delay(backoff_delay(attempt));
  }
}

void CddFabric::resolve_timeout(std::uint64_t rpc_id) {
  auto it = pending_.find(rpc_id);
  if (it == pending_.end()) return;  // real reply won the race
  sim::Oneshot<Reply>* slot = it->second;
  pending_.erase(it);
  Reply reply;
  reply.ok = false;
  reply.timed_out = true;
  slot->set(std::move(reply));
}

bool CddFabric::deliver_reply(std::uint64_t rpc_id, Reply reply) {
  auto it = pending_.find(rpc_id);
  if (it == pending_.end()) {
    // The watchdog already abandoned this attempt; the waiter's slot is
    // gone (possibly destroyed), so the late reply must be dropped.
    ++late_replies_;
    return false;
  }
  sim::Oneshot<Reply>* slot = it->second;
  pending_.erase(it);
  slot->set(std::move(reply));
  return true;
}

sim::Time CddFabric::backoff_delay(int attempt) {
  double d = static_cast<double>(params_.backoff_base);
  for (int i = 0; i < attempt; ++i) d *= params_.backoff_multiplier;
  if (params_.backoff_jitter > 0) {
    d *= 1.0 + backoff_rng_.uniform_real(0.0, params_.backoff_jitter);
  }
  return static_cast<sim::Time>(d);
}

// The four RPC entries share one shape: open the RPC's span, build its
// Request, and hand both to submit(), whose path coroutine closes the span
// once the reply is in.  Plain functions, so an RPC in flight holds no
// entry frame and one Request; every caller awaits the returned task at
// once, so the span opens and closes at the same instants as a coroutine
// entry's would.
sim::Task<Reply> CddFabric::probe(int client, int node, int disk,
                                  sim::Time timeout, obs::TraceContext ctx) {
  obs::Span span = obs::trace_span(
      cluster_.sim(), ctx, "cdd.probe", obs::Track::kRequest, client,
      [&](obs::SpanArgs& a) {
        a.tag("client", client)
            .tag("node", node)
            .tag("disk", disk);
      });
  Request req;
  req.op = Request::Op::kProbe;
  req.disk = disk;
  req.timeout = timeout > 0 ? timeout : params_.request_timeout;
  req.retries = 0;  // the prober's cadence is the retry policy
  req.ctx = span.ctx();
  return submit(client, node, std::move(req), std::move(span));
}

sim::Task<Reply> CddFabric::read(int client, int disk_id, std::uint64_t offset,
                                 std::uint32_t nblocks,
                                 disk::IoPriority prio,
                                 obs::TraceContext ctx) {
  const int target = cluster_.geometry().node_of(disk_id);
  obs::Span span = obs::trace_span(
      cluster_.sim(), ctx, "cdd.read", obs::Track::kRequest, client,
      [&](obs::SpanArgs& a) {
        a.tag("client", client)
            .tag("disk", disk_id)
            .tag("remote", target != client ? 1 : 0);
      });
  Request req;
  req.op = Request::Op::kRead;
  req.disk = disk_id;
  req.offset = offset;
  req.nblocks = nblocks;
  req.prio = prio;
  req.ctx = span.ctx();
  return submit(client, target, std::move(req), std::move(span));
}

sim::Task<Reply> CddFabric::scrub_read(int client, int disk_id,
                                       std::uint64_t offset,
                                       std::uint32_t nblocks,
                                       obs::TraceContext ctx) {
  const int target = cluster_.geometry().node_of(disk_id);
  obs::Span span = obs::trace_span(
      cluster_.sim(), ctx, "cdd.scrub_read", obs::Track::kRequest, client,
      [&](obs::SpanArgs& a) {
        a.tag("client", client)
            .tag("disk", disk_id)
            .tag("remote", target != client ? 1 : 0);
      });
  Request req;
  req.op = Request::Op::kRead;
  req.disk = disk_id;
  req.offset = offset;
  req.nblocks = nblocks;
  req.prio = disk::IoPriority::kBackground;
  req.verify = true;
  req.ctx = span.ctx();
  return submit(client, target, std::move(req), std::move(span));
}

sim::Task<Reply> CddFabric::write(int client, int disk_id,
                                  std::uint64_t offset,
                                  block::Payload data,
                                  disk::IoPriority prio,
                                  obs::TraceContext ctx) {
  assert(data.size() % cluster_.geometry().block_bytes == 0);
  const int target = cluster_.geometry().node_of(disk_id);
  obs::Span span = obs::trace_span(
      cluster_.sim(), ctx, "cdd.write", obs::Track::kRequest, client,
      [&](obs::SpanArgs& a) {
        a.tag("client", client)
            .tag("disk", disk_id)
            .tag("remote", target != client ? 1 : 0)
            .tag("background",
                 prio == disk::IoPriority::kBackground ? 1 : 0);
      });
  Request req;
  req.op = Request::Op::kWrite;
  req.disk = disk_id;
  req.offset = offset;
  req.nblocks = static_cast<std::uint32_t>(
      data.size() / cluster_.geometry().block_bytes);
  req.payload = std::move(data);
  req.prio = prio;
  req.ctx = span.ctx();
  return submit(client, target, std::move(req), std::move(span));
}

sim::Task<> CddFabric::lock_groups(int client,
                                   std::vector<std::uint64_t> groups,
                                   std::uint64_t owner,
                                   obs::TraceContext ctx) {
  obs::Span span = obs::trace_span(
      cluster_.sim(), ctx, "cdd.lock", obs::Track::kRequest, client,
      [&](obs::SpanArgs& a) {
        a.tag("client", client)
            .tag("groups", static_cast<std::int64_t>(groups.size()));
      });
  // One RPC per home node, homes in ascending order.  Groups are already
  // sorted, so each home's sub-list is ascending too.
  for (int home = 0; home < cluster_.num_nodes(); ++home) {
    Request req;
    req.op = Request::Op::kLock;
    req.lock_owner = owner;
    req.ctx = span.ctx();
    for (std::uint64_t g : groups) {
      if (lock_home(g) == home) req.lock_groups.push_back(g);
    }
    if (req.lock_groups.empty()) continue;
    co_await submit(client, home, std::move(req), obs::Span{});
  }
}

sim::Task<> CddFabric::unlock_groups(int client,
                                     std::vector<std::uint64_t> groups,
                                     std::uint64_t owner,
                                     obs::TraceContext ctx) {
  obs::Span span = obs::trace_span(
      cluster_.sim(), ctx, "cdd.unlock", obs::Track::kRequest, client,
      [&](obs::SpanArgs& a) {
        a.tag("client", client)
            .tag("groups", static_cast<std::int64_t>(groups.size()));
      });
  for (int home = 0; home < cluster_.num_nodes(); ++home) {
    Request req;
    req.op = Request::Op::kUnlock;
    req.lock_owner = owner;
    req.ctx = span.ctx();
    for (std::uint64_t g : groups) {
      if (lock_home(g) == home) req.lock_groups.push_back(g);
    }
    if (req.lock_groups.empty()) continue;
    co_await submit(client, home, std::move(req), obs::Span{});
  }
}

}  // namespace raidx::cdd
