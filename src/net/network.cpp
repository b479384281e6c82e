#include "net/network.hpp"

#include <cassert>

namespace raidx::net {

Network::Network(sim::Simulation& sim, NetParams params, int nodes)
    : sim_(sim),
      params_(params),
      bytes_sent_(static_cast<std::size_t>(nodes), 0),
      msgs_sent_(static_cast<std::size_t>(nodes), 0),
      up_(static_cast<std::size_t>(nodes), 1),
      messages_(sim) {
  assert(nodes > 0);
  tx_.reserve(static_cast<std::size_t>(nodes));
  rx_.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    tx_.push_back(std::make_unique<sim::Resource>(sim, 1));
    rx_.push_back(std::make_unique<sim::Resource>(sim, 1));
  }
  tx_rec_.resize(static_cast<std::size_t>(nodes));
  rx_rec_.resize(static_cast<std::size_t>(nodes));
}

void Network::set_node_up(int node, bool up) {
  assert(node >= 0 && node < nodes());
  fault_injection_used_ = true;
  up_[static_cast<std::size_t>(node)] = up ? 1 : 0;
}

Network::Transmit Network::transmit(int from, int to, std::uint64_t bytes,
                                    obs::TraceContext ctx) {
  return Transmit(start(from, to, bytes, ctx));
}

std::coroutine_handle<> Network::Transmit::await_suspend(
    std::coroutine_handle<> h) {
  caller_ = h;
  switch (msg_->net->drive(msg_, &Transmit::done, this)) {
    case Sent::kInFlight:
      return std::noop_coroutine();
    case Sent::kDelivered:
      break;
    case Sent::kDropped:
      delivered_ = false;
      break;
  }
  return h;
}

void Network::Transmit::done(void* self, bool delivered) {
  auto* t = static_cast<Transmit*>(self);
  t->delivered_ = delivered;
  t->caller_.resume();
}

Network::Sent Network::send(int from, int to, std::uint64_t bytes,
                            obs::TraceContext ctx, void (*done)(void*, bool),
                            void* arg) {
  Message* m = start(from, to, bytes, ctx);
  return m == nullptr ? Sent::kDelivered : drive(m, done, arg);
}

Network::Message* Network::start(int from, int to, std::uint64_t bytes,
                                 const obs::TraceContext& ctx) {
  assert(from >= 0 && from < nodes());
  assert(to >= 0 && to < nodes());
  bytes_sent_[static_cast<std::size_t>(from)] += bytes;
  ++msgs_sent_[static_cast<std::size_t>(from)];
  // Loopback never touches the wire, so a partition cannot cut a node off
  // from its own disks.
  if (from == to) return nullptr;

  Message* m = messages_.take();
  m->net = this;
  m->from = from;
  m->to = to;
  m->bytes = bytes;
  m->wire = sim::transfer_time(bytes, params_.effective_mbs());
  m->step = Step::kTx;
  m->msg = obs::trace_span(sim_, ctx, "net.transmit", obs::Track::kRequest,
                           from, [&](obs::SpanArgs& a) {
                             a.tag("from", from)
                                 .tag("to", to)
                                 .tag("bytes",
                                      static_cast<std::int64_t>(bytes));
                           });
  return m;
}

Network::Sent Network::drive(Message* m, void (*done)(void*, bool),
                             void* arg) {
  m->done = done;
  m->arg = arg;
  if (!advance(m)) return Sent::kInFlight;
  const bool delivered = m->delivered;
  messages_.give(m);
  return delivered ? Sent::kDelivered : Sent::kDropped;
}

void Network::resume(Message* m) {
  Network& net = *m->net;
  if (!net.advance(m)) return;
  const bool delivered = m->delivered;
  void (*done)(void*, bool) = m->done;
  void* arg = m->arg;
  net.messages_.give(m);
  done(arg, delivered);
}

// Each step keeps the order of the coroutine it replaces: a port span
// closes, then its busy interval is recorded, then the port is released;
// the message span closes last, before the completion runs.  A grant or a
// queued timed step re-enters at the step it left for.
bool Network::advance(Message* m) {
  const auto from = static_cast<std::size_t>(m->from);
  const auto to = static_cast<std::size_t>(m->to);
  const auto later = [m] { resume(m); };
  switch (m->step) {
    case Step::kTx:
      m->step = Step::kTxGranted;
      if (!tx_[from]->acquire_or_park(m)) return false;
      [[fallthrough]];
    case Step::kTxGranted:
      m->grant = sim_.now();
      m->port = obs::trace_span(
          sim_, m->msg.ctx(), "net.tx", obs::Track::kNetTx, m->from,
          [m](obs::SpanArgs& a) {
            a.tag("to", m->to).tag("bytes",
                                   static_cast<std::int64_t>(m->bytes));
          });
      m->step = Step::kTxDone;
      if (!sim_.step_after(params_.per_message_overhead + m->wire, later)) {
        return false;
      }
      [[fallthrough]];
    case Step::kTxDone:
      m->port.close();
      tx_rec_[from].record(sim_, obs::Track::kNetTx, m->from, m->grant,
                           sim_.now());
      tx_[from]->release();
      m->step = Step::kSwitch;
      if (!sim_.step_after(params_.switch_latency, later)) return false;
      [[fallthrough]];
    case Step::kSwitch:
      // Partition check at the switch, after the sender has paid its TX
      // cost: the frame left the NIC, the switch has no live port to
      // forward it to.  Checked once per message (not per phase) so the
      // drop point is deterministic.
      if (!node_up(m->from) || !node_up(m->to)) {
        ++dropped_;
        m->delivered = false;
        m->msg.close();
        return true;
      }
      m->step = Step::kRxGranted;
      if (!rx_[to]->acquire_or_park(m)) return false;
      [[fallthrough]];
    case Step::kRxGranted:
      m->grant = sim_.now();
      m->port = obs::trace_span(
          sim_, m->msg.ctx(), "net.rx", obs::Track::kNetRx, m->to,
          [m](obs::SpanArgs& a) {
            a.tag("from", m->from)
                .tag("bytes", static_cast<std::int64_t>(m->bytes));
          });
      m->step = Step::kRxDone;
      if (!sim_.step_after(m->wire, later)) return false;
      [[fallthrough]];
    case Step::kRxDone:
      m->port.close();
      rx_rec_[to].record(sim_, obs::Track::kNetRx, m->to, m->grant,
                         sim_.now());
      rx_[to]->release();
      m->delivered = true;
      m->msg.close();
      return true;
  }
  return true;
}

}  // namespace raidx::net
