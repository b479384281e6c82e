#include "raid/raid1.hpp"

#include <cassert>
#include <stdexcept>

namespace raidx::raid {

Raid1Layout::Raid1Layout(block::ArrayGeometry geo) : Layout(geo) {
  if (geo.total_disks() % 2 != 0) {
    throw std::invalid_argument("RAID-1 needs an even number of disks");
  }
}

block::PhysBlock Raid1Layout::data_location(std::uint64_t lba) const {
  assert(lba < logical_blocks());
  const auto p = static_cast<std::uint64_t>(pairs());
  const int pair = static_cast<int>(lba % p);
  return block::PhysBlock{2 * pair, lba / p};
}

std::vector<block::PhysBlock> Raid1Layout::mirror_locations(
    std::uint64_t lba) const {
  const block::PhysBlock primary = data_location(lba);
  return {block::PhysBlock{primary.disk + 1, primary.offset}};
}

SlotSource Raid1Layout::source_of(int disk, std::uint64_t offset) const {
  const std::uint64_t lba = offset * static_cast<std::uint64_t>(pairs()) +
                            static_cast<std::uint64_t>(disk / 2);
  const int partner = disk % 2 == 0 ? disk + 1 : disk - 1;
  return copy_of(lba, block::PhysBlock{partner, offset});
}

}  // namespace raidx::raid
