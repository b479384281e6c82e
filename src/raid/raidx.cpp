#include "raid/raidx.hpp"

#include <cassert>

namespace raidx::raid {

RaidxLayout::RaidxLayout(block::ArrayGeometry geo, bool hybrid)
    : Layout(geo),
      // Hybrid drops the data zone from the image disks, so each HDD needs
      // only n image slots per stripe-row q instead of n+1 mixed slots.
      q_max_(geo.blocks_per_disk /
             static_cast<std::uint64_t>(geo.nodes + (hybrid ? 0 : 1))),
      hybrid_(hybrid) {
  assert(q_max_ > 0);
  assert(!hybrid_ || geo_.disks_per_node % 2 == 0);
}

block::PhysBlock RaidxLayout::data_location(std::uint64_t lba) const {
  assert(lba < logical_blocks());
  const auto n = static_cast<std::uint64_t>(geo_.nodes);
  const auto k = static_cast<std::uint64_t>(data_rows());
  const std::uint64_t stripe = lba / n;
  const int slot = static_cast<int>(lba % n);
  const int row = static_cast<int>(stripe % k);
  const std::uint64_t q = stripe / k;
  assert(q < q_max_);
  return block::PhysBlock{geo_.disk_id(row, slot), q};
}

int RaidxLayout::image_node(std::uint64_t stripe) const {
  const auto n = static_cast<std::uint64_t>(geo_.nodes);
  return static_cast<int>(n - 1 - (stripe % n));
}

RaidxLayout::StripeImages RaidxLayout::stripe_images(
    std::uint64_t stripe) const {
  const int n = geo_.nodes;
  const int k = data_rows();
  const int row = static_cast<int>(stripe % static_cast<std::uint64_t>(k));
  const std::uint64_t q = stripe / static_cast<std::uint64_t>(k);
  const int d = image_node(stripe);

  StripeImages out;
  out.clustered.disk = geo_.disk_id(image_row(row), d);
  out.clustered.offset =
      clustered_zone_base() + q * static_cast<std::uint64_t>(n - 1);
  out.clustered.nblocks = static_cast<std::uint32_t>(n - 1);
  out.clustered_lbas.reserve(static_cast<std::size_t>(n - 1));
  for (int j = 0; j < n; ++j) {
    if (j == d) continue;
    out.clustered_lbas.push_back(stripe_first_lba(stripe) +
                                 static_cast<std::uint64_t>(j));
  }
  out.neighbor_lba = stripe_first_lba(stripe) + static_cast<std::uint64_t>(d);
  out.neighbor = block::PhysBlock{geo_.disk_id(image_row(row), (d + 1) % n),
                                  neighbor_zone_base() + q};
  return out;
}

std::vector<block::PhysBlock> RaidxLayout::mirror_locations(
    std::uint64_t lba) const {
  const std::uint64_t stripe = stripe_of(lba);
  const int slot = static_cast<int>(lba % static_cast<std::uint64_t>(geo_.nodes));
  const StripeImages imgs = stripe_images(stripe);
  if (imgs.neighbor_lba == lba) {
    return {imgs.neighbor};
  }
  const int d = image_node(stripe);
  // Index within the clustered run: slots ascend skipping the image node.
  const std::uint64_t idx =
      static_cast<std::uint64_t>(slot < d ? slot : slot - 1);
  return {block::PhysBlock{imgs.clustered.disk, imgs.clustered.offset + idx}};
}

SlotSource RaidxLayout::source_of(int disk, std::uint64_t offset) const {
  const int n = geo_.nodes;
  const int node = geo_.node_of(disk);
  const int row = geo_.row_of(disk);
  if (holds_data(row) && offset < q_max_) {
    const std::uint64_t lba = stripe_first_lba(stripe_at(row, offset)) +
                              static_cast<std::uint64_t>(node);
    return copy_of(lba, mirror_locations(lba)[0],
                   /*pending_image_fresher=*/true);
  }
  if (!holds_images(row) || offset < clustered_zone_base()) return {};
  // Only ~1/n of the image slots are populated: those of stripes whose
  // image node is this node (clustered) or its predecessor (neighbor).
  const auto n1 = static_cast<std::uint64_t>(n - 1);
  const bool clustered = offset < neighbor_zone_base();
  const std::uint64_t q = clustered
                              ? (offset - clustered_zone_base()) / n1
                              : offset - neighbor_zone_base();
  if (q >= q_max_) return {};
  const std::uint64_t stripe = stripe_at(data_row_of(row), q);
  const int d = image_node(stripe);
  int slot = d;  // the neighbor image mirrors the image node's own block
  if (clustered) {
    if (d != node) return {};
    // Run position i holds stripe slot i, skipping the image node.
    const auto i = static_cast<int>((offset - clustered_zone_base()) % n1);
    slot = i < d ? i : i + 1;
  } else if ((d + 1) % n != node) {
    return {};
  }
  const std::uint64_t lba =
      stripe_first_lba(stripe) + static_cast<std::uint64_t>(slot);
  return copy_of(lba, data_location(lba));
}

std::vector<block::PhysExtent> RaidxLayout::rebuild_row(
    int disk, std::uint64_t row) const {
  const int n = geo_.nodes;
  const int node = geo_.node_of(disk);
  const int g = geo_.row_of(disk);
  std::vector<block::PhysExtent> out;
  if (holds_data(g)) out.push_back(block::PhysExtent{disk, row, 1});
  if (holds_images(g)) {
    const int d = image_node(stripe_at(data_row_of(g), row));
    if (d == node) {
      out.push_back(block::PhysExtent{
          disk, clustered_zone_base() + row * static_cast<std::uint64_t>(n - 1),
          static_cast<std::uint32_t>(n - 1)});
    } else if ((d + 1) % n == node) {
      out.push_back(block::PhysExtent{disk, neighbor_zone_base() + row, 1});
    }
  }
  return out;
}

}  // namespace raidx::raid
