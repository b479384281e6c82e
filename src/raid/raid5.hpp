// RAID-5: rotating parity across all N = n*k disks.
//
// A stripe holds N-1 data blocks plus one parity block; the parity disk
// rotates with the stripe index so parity traffic spreads evenly.  Small
// writes pay the classic read-modify-write penalty (read old data + old
// parity, write new data + new parity) -- the weakness RAID-x's OSM is
// designed to eliminate.
#pragma once

#include "raid/layout.hpp"

namespace raidx::raid {

class Raid5Layout : public Layout {
 public:
  using Layout::Layout;

  std::string name() const override { return "RAID-5"; }

  std::uint64_t logical_blocks() const override {
    return static_cast<std::uint64_t>(geo_.total_disks() - 1) *
           geo_.blocks_per_disk;
  }

  block::PhysBlock data_location(std::uint64_t lba) const override;

  /// Stripe-aligned groups: concurrent partial-stripe writers must never
  /// race on the same parity block.
  std::uint64_t lock_group_of(std::uint64_t lba) const override {
    return stripe_of(lba);
  }

  /// Physical offset o of every disk is stripe o: a lost block, data or
  /// parity alike, is the XOR of the other disks' blocks at o.
  SlotSource source_of(int disk, std::uint64_t offset) const override;
  std::uint64_t rebuild_rows(int /*disk*/) const override {
    return geo_.blocks_per_disk;
  }

  /// A full stripe spans all disks; N-1 of its blocks carry data.
  std::uint32_t stripe_width() const override {
    return static_cast<std::uint32_t>(geo_.total_disks() - 1);
  }

  /// Stripe index containing a logical block.
  std::uint64_t stripe_of(std::uint64_t lba) const {
    return lba / stripe_width();
  }
  /// First logical block of a stripe.
  std::uint64_t stripe_first_lba(std::uint64_t stripe) const {
    return stripe * stripe_width();
  }
  /// Parity block location for a stripe.
  block::PhysBlock parity_location(std::uint64_t stripe) const;
  /// Disk carrying parity for a stripe.
  int parity_disk(std::uint64_t stripe) const;
};

}  // namespace raidx::raid
