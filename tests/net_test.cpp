// Unit tests for the switched-Ethernet model: serialization, pipelining,
// port contention, loopback, and the frameless message path against the
// coroutine it replaced.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "net/network.hpp"
#include "obs/obs.hpp"
#include "sim/event_queue.hpp"
#include "sim/resource.hpp"
#include "sim/stats.hpp"

namespace raidx::net {
namespace {

sim::Task<> send(Network& net, int from, int to, std::uint64_t bytes,
                 sim::Simulation& sim, sim::Time* done_at = nullptr) {
  co_await net.transmit(from, to, bytes);
  if (done_at) *done_at = sim.now();
}

TEST(NetworkModel, SingleMessageLatency) {
  sim::Simulation sim;
  NetParams p;
  Network net(sim, p, 4);
  sim::Time done = 0;
  sim.spawn(send(net, 0, 1, 32'768, sim, &done));
  sim.run();
  const sim::Time wire = sim::transfer_time(32'768, p.effective_mbs());
  // TX serialization + switch latency + RX serialization.
  EXPECT_EQ(done, p.per_message_overhead + wire + p.switch_latency + wire);
}

TEST(NetworkModel, LoopbackIsFree) {
  sim::Simulation sim;
  Network net(sim, NetParams{}, 4);
  sim::Time done = -1;
  sim.spawn(send(net, 2, 2, 1'000'000, sim, &done));
  sim.run();
  EXPECT_EQ(done, 0);
}

TEST(NetworkModel, SerialStreamPaysBothSerializationPhases) {
  // One synchronous request stream (each message awaited before the next)
  // cannot overlap its TX and RX phases: it lands near half the link rate.
  // This is why the array controllers keep a window of outstanding chunks.
  sim::Simulation sim;
  NetParams p;
  Network net(sim, p, 2);
  const int messages = 100;
  const std::uint64_t bytes = 65'536;
  auto stream = [](Network& n, int count, std::uint64_t sz) -> sim::Task<> {
    for (int i = 0; i < count; ++i) co_await n.transmit(0, 1, sz);
  };
  sim.spawn(stream(net, messages, bytes));
  sim.run();
  const double achieved =
      sim::bandwidth_mbs(static_cast<std::uint64_t>(messages) * bytes,
                         sim.now());
  EXPECT_GT(achieved, p.effective_mbs() * 0.40);
  EXPECT_LT(achieved, p.effective_mbs() * 0.60);
}

TEST(NetworkModel, TwoOutstandingMessagesPipelineToLinkRate) {
  // With >= 2 messages in flight, TX of one overlaps RX of the previous:
  // sustained throughput approaches the effective link rate.
  sim::Simulation sim;
  NetParams p;
  Network net(sim, p, 2);
  const int messages = 100;
  const std::uint64_t bytes = 65'536;
  auto stream = [](Network& n, int count, std::uint64_t sz) -> sim::Task<> {
    for (int i = 0; i < count; ++i) co_await n.transmit(0, 1, sz);
  };
  sim.spawn(stream(net, messages / 2, bytes));
  sim.spawn(stream(net, messages / 2, bytes));
  sim.run();
  const double achieved =
      sim::bandwidth_mbs(static_cast<std::uint64_t>(messages) * bytes,
                         sim.now());
  EXPECT_GT(achieved, p.effective_mbs() * 0.80);
  EXPECT_LE(achieved, p.effective_mbs() * 1.01);
}

TEST(NetworkModel, FanInContendsOnReceiverPort) {
  // N senders to one receiver share its RX port: aggregate caps at one
  // link's rate -- the NFS-collapse mechanism.
  sim::Simulation sim;
  NetParams p;
  Network net(sim, p, 9);
  const std::uint64_t bytes = 262'144;
  auto stream = [](Network& n, int from, std::uint64_t sz) -> sim::Task<> {
    for (int i = 0; i < 10; ++i) co_await n.transmit(from, 0, sz);
  };
  for (int s = 1; s <= 8; ++s) sim.spawn(stream(net, s, bytes));
  sim.run();
  const double aggregate =
      sim::bandwidth_mbs(8ull * 10 * bytes, sim.now());
  EXPECT_LE(aggregate, p.effective_mbs() * 1.05);
}

TEST(NetworkModel, DisjointPairsDoNotInterfere) {
  sim::Simulation sim;
  NetParams p;
  Network net(sim, p, 4);
  sim::Time done01 = 0, done23 = 0;
  sim.spawn(send(net, 0, 1, 1'000'000, sim, &done01));
  sim.spawn(send(net, 2, 3, 1'000'000, sim, &done23));
  sim.run();
  EXPECT_EQ(done01, done23);  // full bisection: no shared resource
}

TEST(NetworkModel, CountsTraffic) {
  sim::Simulation sim;
  Network net(sim, NetParams{}, 3);
  sim.spawn(send(net, 0, 1, 1000, sim));
  sim.spawn(send(net, 0, 2, 2000, sim));
  sim.run();
  EXPECT_EQ(net.bytes_sent(0), 3000u);
  EXPECT_EQ(net.messages_sent(0), 2u);
  EXPECT_EQ(net.bytes_sent(1), 0u);
}

TEST(NetworkModel, EffectiveRateBelowRawRate) {
  NetParams p;
  EXPECT_LT(p.effective_mbs(), p.link_mbs);
  EXPECT_GT(p.effective_mbs(), 0.0);
}

// ---- the frameless message path against a coroutine reference ------------

/// The ports, flags and recorders the reference transmit runs on.
struct ReferenceNet {
  ReferenceNet(sim::Simulation& s, NetParams p, int nodes)
      : sim(s), params(p), up(static_cast<std::size_t>(nodes), 1),
        tx_rec(static_cast<std::size_t>(nodes)),
        rx_rec(static_cast<std::size_t>(nodes)) {
    for (int i = 0; i < nodes; ++i) {
      tx.push_back(std::make_unique<sim::Resource>(s, 1));
      rx.push_back(std::make_unique<sim::Resource>(s, 1));
    }
  }
  sim::Simulation& sim;
  NetParams params;
  std::vector<std::unique_ptr<sim::Resource>> tx;
  std::vector<std::unique_ptr<sim::Resource>> rx;
  std::vector<char> up;
  std::vector<obs::BusyRecorder> tx_rec;
  std::vector<obs::BusyRecorder> rx_rec;
};

/// Network::transmit as a coroutine: acquire the TX port, delay, release
/// it, delay through the switch, drop there or do the same on the RX port.
sim::Task<bool> reference_transmit(ReferenceNet& n, int from, int to,
                                   std::uint64_t bytes) {
  if (from == to) co_return true;
  const auto f = static_cast<std::size_t>(from);
  const auto t = static_cast<std::size_t>(to);
  obs::Span msg = obs::trace_span(
      n.sim, {}, "net.transmit", obs::Track::kRequest, from,
      [&](obs::SpanArgs& a) {
        a.tag("from", from)
            .tag("to", to)
            .tag("bytes", static_cast<std::int64_t>(bytes));
      });
  const sim::Time wire =
      sim::transfer_time(bytes, n.params.effective_mbs());
  {
    auto held = co_await n.tx[f]->acquire();
    const sim::Time grant = n.sim.now();
    obs::Span port = obs::trace_span(
        n.sim, msg.ctx(), "net.tx", obs::Track::kNetTx, from,
        [&](obs::SpanArgs& a) {
          a.tag("to", to).tag("bytes", static_cast<std::int64_t>(bytes));
        });
    co_await n.sim.delay(n.params.per_message_overhead + wire);
    port.close();
    n.tx_rec[f].record(n.sim, obs::Track::kNetTx, from, grant, n.sim.now());
  }
  co_await n.sim.delay(n.params.switch_latency);
  if (n.up[f] == 0 || n.up[t] == 0) co_return false;
  {
    auto held = co_await n.rx[t]->acquire();
    const sim::Time grant = n.sim.now();
    obs::Span port = obs::trace_span(
        n.sim, msg.ctx(), "net.rx", obs::Track::kNetRx, to,
        [&](obs::SpanArgs& a) {
          a.tag("from", from).tag("bytes", static_cast<std::int64_t>(bytes));
        });
    co_await n.sim.delay(wire);
    port.close();
    n.rx_rec[t].record(n.sim, obs::Track::kNetRx, to, grant, n.sim.now());
  }
  co_return true;
}

struct Message {
  sim::Time start = 0;
  int from = 0;
  int to = 0;
  std::uint64_t bytes = 0;
};

/// Everything a run of messages leaves that the model or a trace can see.
struct MessageRun {
  std::vector<std::tuple<int, sim::Time, bool>> done;  // (message, at, ok)
  std::uint64_t events = 0;
  std::uint64_t fast_resumes = 0;
  std::vector<std::string> spans;  // every field, in span-id order
  std::string timelines;
  bool operator==(const MessageRun&) const = default;
};

template <typename Transmit>
sim::Task<> message_job(sim::Simulation& sim, Transmit transmit, int id,
                        const Message* m, MessageRun* out) {
  if (m->start > 0) co_await sim.delay(m->start);
  const bool ok = co_await transmit(m->from, m->to, m->bytes);
  out->done.emplace_back(id, sim.now(), ok);
}

std::string describe(const obs::SpanRecord& s) {
  std::string out = std::string(s.name) + " track " +
                    std::to_string(static_cast<int>(s.track)) + " idx " +
                    std::to_string(s.idx) + " [" + std::to_string(s.begin) +
                    ", " + std::to_string(s.end) + "] id " +
                    std::to_string(s.id) + " trace " +
                    std::to_string(s.trace) + " parent " +
                    std::to_string(s.parent);
  for (std::uint8_t i = 0; i < s.args.n; ++i) {
    out += std::string(" ") + s.args.tags[i].key + "=" +
           std::to_string(s.args.tags[i].value);
  }
  return out;
}

/// Run `messages` to the end, or (stop > 0) until `stop` and abandon the
/// run there, with messages still in flight.
template <typename Transmit>
MessageRun run_messages(sim::Simulation& sim, obs::Hub& hub,
                        Transmit transmit,
                        const std::vector<Message>& messages,
                        sim::Time stop) {
  MessageRun out;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    sim.spawn(message_job(sim, transmit, static_cast<int>(i), &messages[i],
                          &out));
  }
  if (stop > 0) {
    sim.run_until(stop);
    sim.abandon();
  } else {
    sim.run();
  }
  out.events = sim.events_processed();
  out.fast_resumes = sim.queue_stats().fast_resumes;
  for (const obs::SpanRecord& s : hub.tracer().spans()) {
    out.spans.push_back(describe(s));
  }
  out.timelines = hub.timelines().json();
  return out;
}

/// The reference and the Network on the same messages, each on its own
/// traced simulation; `down` nodes are cut off before anything runs, and
/// a positive `stop` abandons both runs at that instant.
std::pair<MessageRun, MessageRun> both_paths(
    const std::vector<Message>& messages, NetParams params = {},
    std::vector<int> down = {}, sim::Time stop = 0) {
  constexpr int kNodes = 4;
  obs::Hub ref_hub;
  ref_hub.tracing = true;
  sim::Simulation ref_sim;
  ref_sim.set_hub(&ref_hub);
  ReferenceNet ref(ref_sim, params, kNodes);
  for (int n : down) ref.up[static_cast<std::size_t>(n)] = 0;
  const MessageRun want = run_messages(
      ref_sim, ref_hub,
      [&ref](int from, int to, std::uint64_t bytes) {
        return reference_transmit(ref, from, to, bytes);
      },
      messages, stop);

  obs::Hub hub;
  hub.tracing = true;
  sim::Simulation net_sim;
  net_sim.set_hub(&hub);
  Network net(net_sim, params, kNodes);
  for (int n : down) net.set_node_up(n, false);
  const MessageRun got = run_messages(
      net_sim, hub,
      [&net](int from, int to, std::uint64_t bytes) {
        return net.transmit(from, to, bytes);
      },
      messages, stop);
  for (int n = 0; n < kNodes; ++n) {
    EXPECT_EQ(net.tx_busy(n), ref.tx[static_cast<std::size_t>(n)]->busy_time());
    EXPECT_EQ(net.rx_busy(n), ref.rx[static_cast<std::size_t>(n)]->busy_time());
  }
  return {want, got};
}

TEST(FramelessTransmit, LoneMessageOnAnEmptyQueueTakesTheFastPath) {
  const auto [want, got] = both_paths({{0, 0, 1, 4096}});
  EXPECT_EQ(got, want);
  ASSERT_EQ(got.done.size(), 1u);
  EXPECT_GT(got.fast_resumes, 0u);
  EXPECT_EQ(got.spans.size(), 3u);  // net.transmit, net.tx, net.rx
}

TEST(FramelessTransmit, UncontendedMessagesMatchTheCoroutine) {
  // Starts far enough apart that no message waits for a port.
  const std::vector<Message> messages = {{0, 0, 1, 1000},
                                         {sim::milliseconds(5), 2, 3, 9000},
                                         {sim::milliseconds(9), 3, 0, 64}};
  const auto [want, got] = both_paths(messages);
  EXPECT_EQ(got, want);
  EXPECT_EQ(got.done.size(), 3u);
}

TEST(FramelessTransmit, ContendedPortsQueueFifoLikeTheCoroutine) {
  // Three senders on node 0's TX port at once, then a fan-in on node 2's
  // RX port, with later arrivals landing mid-service on both.
  const std::vector<Message> messages = {
      {0, 0, 1, 30000},    {0, 0, 2, 5000},   {0, 0, 3, 20000},
      {0, 1, 2, 40000},    {0, 3, 2, 10000},  {7000, 0, 2, 1000},
      {7000, 1, 2, 2500},  {31000, 3, 2, 100}, {31000, 0, 1, 100}};
  const auto [want, got] = both_paths(messages);
  EXPECT_EQ(got, want);
  EXPECT_EQ(got.done.size(), messages.size());
}

TEST(FramelessTransmit, SwitchDropsAfterANodeGoesDown) {
  // Node 3 is cut off: messages to and from it pay their TX serialization
  // and die at the switch; the others queue behind them on node 0's port.
  const std::vector<Message> messages = {
      {0, 0, 3, 8000}, {0, 0, 1, 8000}, {0, 3, 1, 500}, {100, 2, 1, 700}};
  const auto [want, got] = both_paths(messages, {}, {3});
  EXPECT_EQ(got, want);
  int dropped = 0;
  for (const auto& [id, at, ok] : got.done) dropped += ok ? 0 : 1;
  EXPECT_EQ(dropped, 2);
}

TEST(FramelessTransmit, LoopbackTakesNoEvent) {
  const std::vector<Message> messages = {{0, 2, 2, 1'000'000},
                                         {50, 1, 1, 0},
                                         {50, 1, 2, 100}};
  const auto [want, got] = both_paths(messages);
  EXPECT_EQ(got, want);
  ASSERT_EQ(got.done.size(), 3u);
  EXPECT_EQ(got.done[0], std::make_tuple(0, sim::Time{0}, true));
}

TEST(FramelessTransmit, ZeroSwitchLatencyTakesNoEvent) {
  NetParams p;
  p.switch_latency = 0;
  const std::vector<Message> messages = {
      {0, 0, 1, 2000}, {0, 0, 1, 2000}, {0, 2, 1, 2000}, {10, 3, 0, 10}};
  const auto [want, got] = both_paths(messages, p);
  EXPECT_EQ(got, want);
  EXPECT_EQ(got.done.size(), 4u);
}

TEST(FramelessTransmit, ZeroByteMessagesMatchTheCoroutine) {
  // A zero-byte message still pays the stack overhead on TX, but its RX
  // wire time is zero: that step takes no event.
  const std::vector<Message> messages = {
      {0, 0, 1, 0}, {0, 2, 1, 0}, {0, 0, 1, 0}, {200, 1, 0, 0}};
  const auto [want, got] = both_paths(messages);
  EXPECT_EQ(got, want);
  NetParams bare;
  bare.per_message_overhead = 0;
  const auto [bare_want, bare_got] = both_paths(messages, bare);
  EXPECT_EQ(bare_got, bare_want);
  EXPECT_EQ(bare_got.done.size(), 4u);
}

TEST(FramelessTransmit, AbandonEndsMessagesInFlightLikeTheirFrames) {
  // Abandoned mid-run: messages parked on both ports' FIFOs and in timed
  // steps close their spans at abandon(), as the reference's destroyed
  // frames do, and none completes.
  const std::vector<Message> messages = {
      {0, 0, 1, 30000}, {0, 0, 2, 5000}, {0, 0, 3, 20000},
      {0, 1, 2, 40000}, {0, 3, 2, 10000}, {7000, 1, 2, 2500}};
  const auto [want, got] =
      both_paths(messages, {}, {}, sim::microseconds(3500));
  EXPECT_EQ(got, want);
  EXPECT_LT(got.done.size(), messages.size());
  for (const std::string& span : got.spans) {
    EXPECT_EQ(span.find(", -1]"), std::string::npos) << span;
  }
}

TEST(FramelessTransmit, AbandonedMessagesNeverReachADeadHub) {
  // A sharded world's hub dies before its Network: abandon() must have
  // ended every message first (under ASan this test is the check).
  sim::Simulation sim;
  auto hub = std::make_unique<obs::Hub>();
  hub->tracing = true;
  sim.set_hub(hub.get());
  {
    Network net(sim, {}, 4);
    for (int i = 0; i < 3; ++i) sim.spawn(send(net, 0, 1, 50000, sim));
    sim.run_until(sim::microseconds(100));
    sim.abandon();
    for (const obs::SpanRecord& s : hub->tracer().spans()) {
      EXPECT_GE(s.end, s.begin) << describe(s);
    }
    sim.set_hub(nullptr);
    hub.reset();
  }
}

}  // namespace
}  // namespace raidx::net
