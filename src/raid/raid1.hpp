// RAID-1: mirrored disk pairs, striped RAID-0 style across the pairs.
//
// The paper's conclusion lists RAID-1 among the configurations to add in
// the next phase of the Trojans project; it completes the comparison
// space here.  Disks 2p and 2p+1 form pair p; logical blocks stripe over
// the pairs and each block's mirror sits on the partner disk at the SAME
// offset -- so unlike chained declustering there is no long seek between
// a disk's data zone and its mirror zone, but each pair's two disks are
// exact copies and the array loses data iff both disks of one pair fail.
#pragma once

#include "raid/layout.hpp"

namespace raidx::raid {

class Raid1Layout : public Layout {
 public:
  explicit Raid1Layout(block::ArrayGeometry geo);

  std::string name() const override { return "RAID-1"; }

  std::uint64_t logical_blocks() const override {
    return geo_.total_blocks() / 2;
  }

  block::PhysBlock data_location(std::uint64_t lba) const override;
  std::vector<block::PhysBlock> mirror_locations(
      std::uint64_t lba) const override;
  bool mirror_runs_contiguous() const override { return true; }

  /// Every slot is restored from the same offset on its pair partner.
  SlotSource source_of(int disk, std::uint64_t offset) const override;
  std::uint64_t rebuild_rows(int /*disk*/) const override {
    return geo_.blocks_per_disk;
  }

  /// Stripe width in blocks = number of pairs.
  std::uint32_t stripe_width() const override {
    return static_cast<std::uint32_t>(geo_.total_disks() / 2);
  }

  int pairs() const { return geo_.total_disks() / 2; }
};

}  // namespace raidx::raid
