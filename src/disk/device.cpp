#include "disk/device.hpp"

#include <cassert>

#include "integrity/checksum.hpp"

namespace raidx::disk {

void Device::write_data(std::uint64_t block, std::span<const std::byte> data) {
  write_data(block, block::Payload::copy(data));
}

void Device::write_data(std::uint64_t block, const block::Payload& data) {
  assert(data.size() % geo_.block_bytes == 0);
  const std::uint32_t n =
      static_cast<std::uint32_t>(data.size() / geo_.block_bytes);
  for (std::uint32_t i = 0; i < n; ++i) {
    block::Payload blk = data.slice(
        static_cast<std::size_t>(i) * geo_.block_bytes, geo_.block_bytes);
    // Checksum maintenance runs even on pure-timing devices: the sums and
    // the latent-error marks are the only state corruption detection has
    // there, and a rewrite (repair, rebuild, ordinary traffic) must always
    // restore a block to a verified-good state.  Zero-run payloads
    // checksum in O(log n) -- no materialization.
    if (integrity_enabled_) {
      sums_[block + i] = integrity::crc_of(blk);
      corrupted_.erase(block + i);
    }
    if (geo_.store_data) blocks_[block + i] = std::move(blk);
  }
}

std::vector<std::byte> Device::read_data(std::uint64_t block,
                                         std::uint32_t nblocks) const {
  std::vector<std::byte> out(
      static_cast<std::size_t>(nblocks) * geo_.block_bytes, std::byte{0});
  for (std::uint32_t i = 0; i < nblocks; ++i) {
    auto it = blocks_.find(block + i);
    if (it != blocks_.end()) {
      it->second.copy_to(std::span<std::byte>(out).subspan(
          static_cast<std::size_t>(i) * geo_.block_bytes, geo_.block_bytes));
    }
  }
  return out;
}

block::Payload Device::read_payload(std::uint64_t block,
                                    std::uint32_t nblocks) const {
  // A device that never stored anything (pure-timing mode, or simply never
  // written) reads as zeros either way; the zero-run skips the
  // allocate-and-memset that dominates the large sweeps.
  if (!geo_.store_data || blocks_.empty()) {
    return block::Payload::zeros(static_cast<std::size_t>(nblocks) *
                                 geo_.block_bytes);
  }
  if (nblocks == 1) {
    auto it = blocks_.find(block);
    return it != blocks_.end() ? it->second
                               : block::Payload::zeros(geo_.block_bytes);
  }
  return block::Payload(read_data(block, nblocks));
}

void Device::replace() {
  failed_ = false;
  blocks_.clear();
  // A blank replacement has no history: no sums, no latent errors.
  sums_.clear();
  corrupted_.clear();
}

void Device::enable_integrity() {
  if (integrity_enabled_) return;
  integrity_enabled_ = true;
  zero_block_crc_ = static_cast<std::uint32_t>(
      integrity::crc32c_zeros(geo_.block_bytes));
  // Snapshot blocks stored before the plane attached (preloads).
  for (const auto& [blk, bytes] : blocks_) {
    sums_[blk] = integrity::crc_of(bytes);
  }
}

void Device::corrupt(std::uint64_t block) {
  assert(block < geo_.total_blocks);
  corrupted_.insert(block);
  if (!geo_.store_data) return;
  // Flip one stored bit so reads really return wrong bytes.  The flip goes
  // into a private copy: the stored slice may also be a cache entry or
  // another disk's copy of the block.  A block that was never written
  // materializes as zeros first: that is its expected content, and the rot
  // must make the read disagree with it.
  block::Payload& blk = blocks_[block];
  std::vector<std::byte> rotten(geo_.block_bytes, std::byte{0});
  if (!blk.empty()) blk.copy_to(rotten);
  rotten[static_cast<std::size_t>(block % geo_.block_bytes)] ^= std::byte{1};
  blk = block::Payload(std::move(rotten));
}

void Device::verify_blocks(std::uint64_t block, std::uint32_t nblocks,
                           std::vector<std::uint64_t>& bad) const {
  if (!integrity_enabled_) return;
  for (std::uint32_t i = 0; i < nblocks; ++i) {
    const std::uint64_t b = block + i;
    if (corrupted_.count(b) != 0) {
      bad.push_back(b);
      continue;
    }
    if (!geo_.store_data) continue;
    const auto sum = sums_.find(b);
    const std::uint32_t expected =
        sum != sums_.end() ? sum->second : zero_block_crc_;
    const auto it = blocks_.find(b);
    const std::uint32_t actual =
        it != blocks_.end() ? integrity::crc_of(it->second) : zero_block_crc_;
    if (actual != expected) bad.push_back(b);
  }
}

}  // namespace raidx::disk
