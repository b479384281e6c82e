#include "cluster/node.hpp"

namespace raidx::cluster {

Node::Node(sim::Simulation& sim, int id, NodeParams params,
           disk::BusParams bus_params, disk::DiskParams disk_params,
           int num_disks, const std::vector<disk::DeviceClass>& row_classes,
           const flash::FlashParams& flash_params)
    : sim_(sim),
      id_(id),
      params_(params),
      cpu_(sim, /*capacity=*/1),
      bus_(std::make_unique<disk::ScsiBus>(sim, bus_params, id)) {
  disks_.reserve(static_cast<std::size_t>(num_disks));
  for (int row = 0; row < num_disks; ++row) {
    // Global ids are assigned by the Cluster; the local id encodes
    // (node, row) for diagnostics until then.
    const int local_id = id * 1000 + row;
    const disk::DeviceClass cls =
        static_cast<std::size_t>(row) < row_classes.size()
            ? row_classes[static_cast<std::size_t>(row)]
            : disk::DeviceClass::kHdd;
    if (cls == disk::DeviceClass::kSsd) {
      disks_.push_back(std::make_unique<flash::SsdDevice>(
          sim, disk_params.geometry(), flash_params, local_id, bus_.get()));
    } else {
      disks_.push_back(
          std::make_unique<disk::Disk>(sim, disk_params, local_id,
                                       bus_.get()));
    }
  }
}

void Node::charge(ChargeWaiter* w, sim::Time t, void (*then)(ChargeWaiter*)) {
  w->node = this;
  w->t = t;
  w->then = then;
  w->on_grant = [](sim::Resource::CallbackWaiter* cw) {
    hold(static_cast<ChargeWaiter*>(cw));
  };
  if (cpu_.acquire_or_park(w)) hold(w);
}

void Node::hold(ChargeWaiter* w) {
  if (w->node->sim_.step_after(w->t, [w] { charged(w); })) charged(w);
}

void Node::charged(ChargeWaiter* w) {
  w->node->cpu_.release();
  w->then(w);
}

}  // namespace raidx::cluster
