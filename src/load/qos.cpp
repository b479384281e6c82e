#include "load/qos.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace raidx::load {

namespace {

std::string tenant_key(int tenant, const char* metric) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "qos.tenant.%03d.%s", tenant, metric);
  return buf;
}

}  // namespace

const char* admit_policy_name(AdmitPolicy p) {
  switch (p) {
    case AdmitPolicy::kReject: return "reject";
    case AdmitPolicy::kQueue: return "queue";
    case AdmitPolicy::kShed: return "shed";
  }
  return "?";
}

QosGate::QosGate(sim::Simulation& sim, std::vector<TenantQos> tenants)
    : sim_(sim) {
  tenants_.reserve(tenants.size());
  for (TenantQos& cfg : tenants) {
    Tenant t;
    t.cfg = cfg;
    t.tokens = std::max(cfg.burst_mb, 0.0) * 1e6;
    t.last = sim.now();
    t.fifo = std::make_unique<sim::Resource>(sim, 1);
    tenants_.push_back(std::move(t));
  }
}

void QosGate::bind_client(int client, int tenant) {
  if (client < 0) return;
  if (static_cast<std::size_t>(client) >= client_tenant_.size()) {
    client_tenant_.resize(static_cast<std::size_t>(client) + 1, -1);
  }
  client_tenant_[static_cast<std::size_t>(client)] = tenant;
}

int QosGate::tenant_of(int client) const {
  if (client < 0 ||
      static_cast<std::size_t>(client) >= client_tenant_.size()) {
    return -1;
  }
  return client_tenant_[static_cast<std::size_t>(client)];
}

void QosGate::refill(Tenant& t) {
  const sim::Time now = sim_.now();
  if (now > t.last) {
    const double burst = std::max(t.cfg.burst_mb, 0.0) * 1e6;
    t.tokens = std::min(
        burst, t.tokens + t.cfg.rate_mbs * 1e6 * sim::to_seconds(now - t.last));
    t.last = now;
  }
}

sim::Task<> QosGate::admit_queued(Tenant& t, int tenant,
                                  std::uint64_t bytes) {
  const sim::Time t0 = sim_.now();
  ++t.waiting;
  if (t.waiting > t.stats.peak_queue) t.stats.peak_queue = t.waiting;
  auto turn = co_await t.fifo->acquire();  // FIFO among this tenant's waiters
  refill(t);
  const double need = static_cast<double>(bytes);
  const double burst = std::max(t.cfg.burst_mb, 0.0) * 1e6;
  // Oversize requests still pass (the bucket drains below zero-equivalent:
  // they wait for a full burst first), so the long-run rate holds.
  const double want = std::min(need, std::max(burst, 1.0));
  if (t.tokens < want) {
    const sim::Time wait =
        sim::seconds((want - t.tokens) / (t.cfg.rate_mbs * 1e6)) + 1;
    co_await sim_.delay(wait);
    refill(t);
  }
  t.tokens = std::max(0.0, t.tokens - need);
  --t.waiting;
  const sim::Time waited = sim_.now() - t0;
  if (waited > 0) {
    ++t.stats.queued;
    t.stats.queue_wait_ns += waited;
  }
  ++t.stats.admitted;
  t.stats.admitted_bytes += bytes;
  (void)tenant;
}

sim::Task<> QosGate::admit(int client, bool is_write, std::uint64_t bytes,
                           obs::TraceContext ctx) {
  (void)is_write;
  (void)ctx;
  const int tenant = tenant_of(client);
  if (tenant < 0) co_return;  // unmanaged traffic passes untouched
  Tenant& t = tenants_[static_cast<std::size_t>(tenant)];
  if (t.cfg.rate_mbs <= 0.0) {
    ++t.stats.admitted;
    t.stats.admitted_bytes += bytes;
    co_return;
  }
  refill(t);
  const double need = static_cast<double>(bytes);
  // The first turn-away per tenant lands in the cluster event log (one
  // line, not one per shed request: the log records state changes).
  const auto note_first = [&](const char* kind, std::uint64_t count) {
    if (count != 1) return;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "tenant=%d", tenant);
    obs::log_event(sim_, kind, buf);
  };
  switch (t.cfg.policy) {
    case AdmitPolicy::kReject:
      if (t.tokens < need) {
        ++t.stats.rejected;
        note_first("qos.rejecting", t.stats.rejected);
        throw raid::AdmissionError("tenant " + std::to_string(tenant) +
                                   " over token-bucket rate (rejected)");
      }
      break;
    case AdmitPolicy::kShed:
      if (t.tokens < need) {
        ++t.stats.shed;
        note_first("qos.shedding", t.stats.shed);
        throw raid::AdmissionError("tenant " + std::to_string(tenant) +
                                   " over token-bucket rate (shed)");
      }
      break;
    case AdmitPolicy::kQueue:
      // Fast path only when nobody is queued, so FIFO order is preserved.
      if (t.waiting > 0 || t.tokens < need) {
        if (t.waiting >= t.cfg.max_queue) {
          ++t.stats.shed;
          note_first("qos.shedding", t.stats.shed);
          throw raid::AdmissionError("tenant " + std::to_string(tenant) +
                                     " admission queue full (shed)");
        }
        co_await admit_queued(t, tenant, bytes);
        co_return;
      }
      break;
  }
  t.tokens -= need;
  ++t.stats.admitted;
  t.stats.admitted_bytes += bytes;
}

void QosGate::export_metrics(obs::Registry& reg) const {
  for (int i = 0; i < num_tenants(); ++i) {
    const TenantQosStats& s = stats(i);
    reg.counter(tenant_key(i, "admitted")).inc(s.admitted);
    reg.counter(tenant_key(i, "admitted_bytes")).inc(s.admitted_bytes);
    reg.counter(tenant_key(i, "rejected")).inc(s.rejected);
    reg.counter(tenant_key(i, "shed")).inc(s.shed);
    reg.counter(tenant_key(i, "queued")).inc(s.queued);
    reg.counter(tenant_key(i, "queue_wait_ns"))
        .inc(static_cast<std::uint64_t>(s.queue_wait_ns));
    reg.counter(tenant_key(i, "peak_queue"))
        .inc(static_cast<std::uint64_t>(s.peak_queue));
  }
}

}  // namespace raidx::load
