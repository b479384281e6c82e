// Switched full-duplex Fast Ethernet model.
//
// Every node has one link to the switch, modeled as two capacity-1
// resources (TX and RX).  A message serializes on the sender's TX port,
// crosses the switch after a fixed forwarding latency, then serializes on
// the receiver's RX port.  This captures the two effects the paper's
// numbers hinge on:
//   * per-link serialization: one 100 Mbps link moves at most ~12.5 MB/s,
//     which bounds any single client and any single server;
//   * output-port contention: N clients funneling into one server share the
//     server's RX port -- the mechanism behind the NFS baseline flattening
//     out while the serverless architectures keep scaling.
// Streams of back-to-back messages pipeline across the TX and RX phases, so
// sustained point-to-point throughput equals the effective link rate.
//
// A message in flight is a frameless state machine (DESIGN.md section 10):
// TX port, switch, RX port, driven by Resource::CallbackWaiter grants and
// Simulation::step_after timed steps, with its state in a record the
// Network pools.  A coroutine awaits it through transmit()'s small
// awaitable; a callback chain (the CDD's lock-sync fan-out) drives it
// through send().  Both take exactly the events, in exactly the order, of
// a coroutine that acquires the TX port, delays, releases it, delays
// through the switch, then does the same on the RX port.
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/obs.hpp"
#include "sim/event_queue.hpp"
#include "sim/record_pool.hpp"
#include "sim/resource.hpp"

namespace raidx::net {

struct NetParams {
  double link_mbs = 12.5;       // 100 Mbps Fast Ethernet
  double efficiency = 0.90;     // Ethernet/IP/TCP framing overhead
  sim::Time switch_latency = sim::microseconds(20);
  sim::Time per_message_overhead = sim::microseconds(120);  // protocol stack

  double effective_mbs() const { return link_mbs * efficiency; }
};

class Network {
  struct Message;

 public:
  Network(sim::Simulation& sim, NetParams params, int nodes);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// What transmit() returns: await it at once.  It holds a pointer to
  /// the message's pooled state and the awaiting coroutine, so a frame
  /// waiting on the wire keeps no more than that.
  class [[nodiscard]] Transmit {
   public:
    bool await_ready() const noexcept { return msg_ == nullptr; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h);
    bool await_resume() const noexcept { return delivered_; }

   private:
    friend class Network;
    explicit Transmit(Message* m) : msg_(m) {}
    static void done(void* self, bool delivered);

    Message* msg_;
    std::coroutine_handle<> caller_{};
    bool delivered_ = true;
  };

  /// Move `bytes` from node `from` to node `to`; completes when the last
  /// byte has drained from the receiver's port.  from == to is free (the
  /// loopback path never touches the wire).  Resumes with true when the
  /// message was delivered; false when either endpoint was partitioned
  /// away (set_node_up) -- the sender still pays its TX serialization (the
  /// NIC transmits into a dead link), the message is dropped at the switch,
  /// and the caller must not deliver the payload.  With every node up the
  /// event sequence is bit-identical to the pre-fault-injection model.
  Transmit transmit(int from, int to, std::uint64_t bytes,
                    obs::TraceContext ctx = {});

  /// How send() left its message.
  enum class Sent : std::uint8_t { kInFlight, kDelivered, kDropped };

  /// transmit() for a callback chain.  When the message ends at once
  /// (loopback, or every step on delay()'s fast path) send() says how and
  /// calls nothing; otherwise it returns kInFlight and `done(arg,
  /// delivered)` runs later, from the event that ends the message, where
  /// a coroutine awaiting transmit() would resume.
  Sent send(int from, int to, std::uint64_t bytes, obs::TraceContext ctx,
            void (*done)(void*, bool), void* arg);

  /// Fault injection: mark a node's link up/down (down drops every message
  /// to or from it at the switch).  Nodes start up.
  void set_node_up(int node, bool up);
  bool node_up(int node) const {
    return up_[static_cast<std::size_t>(node)] != 0;
  }
  std::uint64_t messages_dropped() const { return dropped_; }
  /// True once set_node_up has ever been called: obs export gates the
  /// drop counter on this so fault-free runs keep their exact key set.
  bool fault_injection_used() const { return fault_injection_used_; }

  int nodes() const { return static_cast<int>(tx_.size()); }
  const NetParams& params() const { return params_; }

  std::uint64_t bytes_sent(int node) const { return bytes_sent_[node]; }
  std::uint64_t messages_sent(int node) const { return msgs_sent_[node]; }
  sim::Time tx_busy(int node) const { return tx_[node]->busy_time(); }
  sim::Time rx_busy(int node) const { return rx_[node]->busy_time(); }

 private:
  /// Where a message re-enters advance(): its next step.
  enum class Step : std::uint8_t {
    kTx,         // wait for the TX port
    kTxGranted,  // hold it for the stack overhead and the wire time
    kTxDone,     // release it, cross the switch
    kSwitch,     // drop at the switch, or wait for the RX port
    kRxGranted,  // hold it for the wire time
    kRxDone,     // release it: delivered
  };

  /// One message in flight.  A parked record waits on a port's FIFO as a
  /// callback waiter whose grant continues the machine.
  struct Message : sim::Resource::CallbackWaiter {
    Message() {
      on_grant = [](sim::Resource::CallbackWaiter* w) {
        resume(static_cast<Message*>(w));
      };
    }

    Network* net = nullptr;
    int from = 0;
    int to = 0;
    std::uint64_t bytes = 0;
    sim::Time wire = 0;   // serialization time on one port
    sim::Time grant = 0;  // when the port in use was granted
    Step step = Step::kTx;
    bool delivered = false;
    obs::Span msg;   // net.transmit
    obs::Span port;  // net.tx, then net.rx
    void (*done)(void*, bool) = nullptr;
    void* arg = nullptr;
  };

  /// Count the message; null for loopback, else its record with the
  /// message span open.
  Message* start(int from, int to, std::uint64_t bytes,
                 const obs::TraceContext& ctx);
  /// Run `m` until it parks or queues a timed step (false) or ends (true).
  bool advance(Message* m);
  /// Drive a started message with its completion; kInFlight unless it
  /// ended at once, in which case its record is back in the pool.
  Sent drive(Message* m, void (*done)(void*, bool), void* arg);
  /// A grant or timed step fired: advance, and complete if it ended.
  static void resume(Message* m);

  sim::Simulation& sim_;
  NetParams params_;
  std::vector<std::unique_ptr<sim::Resource>> tx_;
  std::vector<std::unique_ptr<sim::Resource>> rx_;
  std::vector<obs::BusyRecorder> tx_rec_;
  std::vector<obs::BusyRecorder> rx_rec_;
  std::vector<std::uint64_t> bytes_sent_;
  std::vector<std::uint64_t> msgs_sent_;
  std::vector<char> up_;
  std::uint64_t dropped_ = 0;
  bool fault_injection_used_ = false;
  sim::RecordPool<Message> messages_;
};

}  // namespace raidx::net
