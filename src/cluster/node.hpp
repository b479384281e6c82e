// A cluster node: CPU, one SCSI bus, k locally attached storage devices.
//
// The CPU is a capacity-1 resource charged per kernel operation plus a
// per-byte cost for protocol/copy work.  On a serverless cluster every node
// is simultaneously an I/O client and a storage server for its peers, so
// this shared CPU is a first-order bottleneck at scale (it is what keeps
// the measured aggregate bandwidth well below the switch's raw capacity,
// as in the paper's Trojans numbers).
//
// Devices can be spindles (disk::Disk) or flash (flash::SsdDevice), chosen
// per row by the cluster's device map; a homogeneous all-HDD node is the
// default and behaves bit-identically to the pre-Device code.
#pragma once

#include <coroutine>
#include <memory>
#include <vector>

#include "disk/device.hpp"
#include "disk/disk.hpp"
#include "disk/scsi_bus.hpp"
#include "flash/ssd.hpp"
#include "sim/event_queue.hpp"
#include "sim/resource.hpp"

namespace raidx::cluster {

struct NodeParams {
  /// Fixed kernel-path cost per I/O operation (syscall, driver dispatch).
  sim::Time cpu_op_overhead = sim::microseconds(150);
  /// Per-byte protocol/copy cost.  Rule of thumb: 1 GHz moves ~100 MB/s of
  /// TCP; a 400 MHz Pentium II with kernel-2.2 checksumming and an extra
  /// copy lands near 60 ns/B (~16 MB/s of CPU-limited protocol work per
  /// node, shared between its client and storage-server roles).
  double cpu_ns_per_byte = 60.0;
};

class Node {
 public:
  /// `row_classes` selects the device model per local row; empty means all
  /// spindles.  Flash rows are built from `flash_params` with the same
  /// geometry the spindle rows take from `disk_params`.
  Node(sim::Simulation& sim, int id, NodeParams params,
       disk::BusParams bus_params, disk::DiskParams disk_params,
       int num_disks,
       const std::vector<disk::DeviceClass>& row_classes = {},
       const flash::FlashParams& flash_params = {});
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Awaitable that holds the node's CPU for a fixed service time.  It
  /// lives in the awaiting coroutine's frame, so a request waiting for the
  /// CPU carries no frame of its own.  Takes the CPU (or parks behind its
  /// FIFO), waits out the time through delay()'s own path -- or, after a
  /// parked grant, through Simulation::resume_after -- and releases the CPU
  /// in await_resume: the events, their order and the fast resumes of an
  /// acquire/delay/release coroutine.  A zero-time charge suspends only
  /// when it must queue.
  class [[nodiscard]] Charge : private sim::Resource::CallbackWaiter {
   public:
    Charge(Node& node, sim::Time t) : node_(&node), t_(t) {}
    Charge(const Charge&) = delete;
    Charge& operator=(const Charge&) = delete;

    bool await_ready() noexcept {
      return t_ <= 0 && node_->cpu_.try_acquire();
    }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) noexcept {
      if (t_ > 0 && node_->cpu_.try_acquire()) {
        return node_->sim_.delay(t_).await_suspend(h);
      }
      caller_ = h;
      on_grant = [](sim::Resource::CallbackWaiter* w) {
        auto* self = static_cast<Charge*>(w);
        self->node_->sim_.resume_after(self->t_, self->caller_);
      };
      node_->cpu_.park(this);
      return std::noop_coroutine();
    }
    void await_resume() noexcept { node_->cpu_.release(); }

   private:
    Node* node_;
    sim::Time t_;
    std::coroutine_handle<> caller_{};
  };

  /// Charge CPU time for handling `bytes` of I/O payload.
  Charge cpu_work(std::uint64_t bytes) {
    return Charge(*this, cpu_time(bytes));
  }

  /// The CPU time cpu_work(bytes) charges.
  sim::Time cpu_time(std::uint64_t bytes) const {
    const auto per_byte = static_cast<sim::Time>(
        params_.cpu_ns_per_byte * static_cast<double>(bytes));
    return params_.cpu_op_overhead + per_byte;
  }

  /// A Charge for a frameless callback chain (DESIGN.md section 10), whose
  /// record derives from this waiter.
  struct ChargeWaiter : sim::Resource::CallbackWaiter {
    Node* node = nullptr;
    sim::Time t = 0;
    void (*then)(ChargeWaiter*) = nullptr;
  };

  /// Charge's callback form: take the CPU or park `w` behind its FIFO,
  /// hold it for `t` through Simulation::step_after (delay()'s fast-path
  /// test, as a Charge makes it), release it, then run `then(w)` -- a
  /// Charge's events in a Charge's order.  `then` may run before charge()
  /// returns.
  void charge(ChargeWaiter* w, sim::Time t, void (*then)(ChargeWaiter*));

  /// Charge a raw computation time (checksum/XOR/compile work).
  Charge compute(sim::Time t) { return Charge(*this, t); }

  int id() const { return id_; }
  int num_disks() const { return static_cast<int>(disks_.size()); }
  disk::Device& local_disk(int row) {
    return *disks_[static_cast<std::size_t>(row)];
  }
  const disk::Device& local_disk(int row) const {
    return *disks_[static_cast<std::size_t>(row)];
  }
  disk::ScsiBus& bus() { return *bus_; }
  sim::Time cpu_busy() const { return cpu_.busy_time(); }

 private:
  /// charge() once `w` holds the CPU: the timed step, then charged().
  static void hold(ChargeWaiter* w);
  static void charged(ChargeWaiter* w);

  sim::Simulation& sim_;
  int id_;
  NodeParams params_;
  sim::Resource cpu_;
  std::unique_ptr<disk::ScsiBus> bus_;
  std::vector<std::unique_ptr<disk::Device>> disks_;
};

}  // namespace raidx::cluster
