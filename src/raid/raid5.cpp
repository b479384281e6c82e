#include "raid/raid5.hpp"

#include <cassert>

namespace raidx::raid {

int Raid5Layout::parity_disk(std::uint64_t stripe) const {
  const auto total = static_cast<std::uint64_t>(geo_.total_disks());
  // Right-symmetric rotation: parity walks backwards one disk per stripe.
  return static_cast<int>((total - 1 - (stripe % total)) % total);
}

block::PhysBlock Raid5Layout::parity_location(std::uint64_t stripe) const {
  return block::PhysBlock{parity_disk(stripe), stripe};
}

block::PhysBlock Raid5Layout::data_location(std::uint64_t lba) const {
  assert(lba < logical_blocks());
  const std::uint64_t stripe = stripe_of(lba);
  const int pos = static_cast<int>(lba % stripe_width());
  const int pdisk = parity_disk(stripe);
  // Data fills the stripe left to right, skipping the parity disk.
  const int disk = pos < pdisk ? pos : pos + 1;
  return block::PhysBlock{disk, stripe};
}

SlotSource Raid5Layout::source_of(int disk, std::uint64_t offset) const {
  const int pdisk = parity_disk(offset);
  SlotSource src;
  src.kind = SlotSource::Kind::kXor;
  src.lock_group = offset;
  if (disk != pdisk) {
    src.lba = stripe_first_lba(offset) +
              static_cast<std::uint64_t>(disk < pdisk ? disk : disk - 1);
  }
  // The data peers in logical order (every disk but parity, ascending),
  // then the parity block when the slot is not itself parity.
  for (int d = 0; d < geo_.total_disks(); ++d) {
    if (d != disk && d != pdisk) {
      src.from.push_back(block::PhysBlock{d, offset});
    }
  }
  if (disk != pdisk) src.from.push_back(parity_location(offset));
  return src;
}

}  // namespace raidx::raid
