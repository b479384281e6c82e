#include "raid/raid10.hpp"

#include <cassert>

namespace raidx::raid {

block::PhysBlock Raid10Layout::data_location(std::uint64_t lba) const {
  assert(lba < logical_blocks());
  const auto n = static_cast<std::uint64_t>(geo_.nodes);
  const auto k = static_cast<std::uint64_t>(data_rows());
  const std::uint64_t stripe = lba / n;
  const int slot = static_cast<int>(lba % n);
  const int row = static_cast<int>(stripe % k);
  const std::uint64_t offset = stripe / k;
  assert(offset < data_zone_blocks());
  return block::PhysBlock{geo_.disk_id(row, slot), offset};
}

std::vector<block::PhysBlock> Raid10Layout::mirror_locations(
    std::uint64_t lba) const {
  const block::PhysBlock primary = data_location(lba);
  const int node = geo_.node_of(primary.disk);
  const int row = geo_.row_of(primary.disk);
  const int chained = geo_.disk_id(image_row(row), (node + 1) % geo_.nodes);
  return {block::PhysBlock{chained, mirror_zone_base() + primary.offset}};
}

SlotSource Raid10Layout::source_of(int disk, std::uint64_t offset) const {
  const int n = geo_.nodes;
  const int node = geo_.node_of(disk);
  const int row = geo_.row_of(disk);
  const auto nn = static_cast<std::uint64_t>(n);
  if (holds_data(row) && offset < data_zone_blocks()) {
    const std::uint64_t lba =
        stripe_at(row, offset) * nn + static_cast<std::uint64_t>(node);
    return copy_of(lba, mirror_locations(lba)[0]);
  }
  if (holds_images(row) && offset >= mirror_zone_base() &&
      offset - mirror_zone_base() < data_zone_blocks()) {
    const std::uint64_t lba =
        stripe_at(data_row_of(row), offset - mirror_zone_base()) * nn +
        static_cast<std::uint64_t>((node + n - 1) % n);
    return copy_of(lba, data_location(lba));
  }
  return {};
}

std::vector<block::PhysExtent> Raid10Layout::rebuild_row(
    int disk, std::uint64_t row) const {
  std::vector<block::PhysExtent> out;
  if (holds_data(geo_.row_of(disk))) {
    out.push_back(block::PhysExtent{disk, row, 1});
  }
  if (holds_images(geo_.row_of(disk))) {
    out.push_back(block::PhysExtent{disk, mirror_zone_base() + row, 1});
  }
  return out;
}

}  // namespace raidx::raid
