// Immutable, shareable byte payload for the simulated data plane.
//
// Messages and redundancy protocols slice, mirror and forward the same
// bytes many times per logical block.  Carrying them as std::vector means
// every hop pays an allocation plus a memcpy -- which dominates wall-clock
// in the large perf sweeps even though the *simulated* outcome depends only
// on payload sizes.  Payload fixes both:
//   * a payload is a stored prefix followed by implicit zeros.  Building one
//     from bytes keeps them only up to their last nonzero byte, so a 3 KB
//     file in a 32 KB stripe unit holds 3 KB of host memory;
//   * storage-backed payloads share one immutable buffer; slice() is O(1)
//     pointer math, so striping a chunk across disks and cloning a block to
//     its mirror copy no byte at all;
//   * a zero-run payload has an empty prefix and carries only a length
//     (is_zeros()), representing "n bytes, all zero" with no storage --
//     exactly what a disk with store_data=false returns, so pure-timing
//     sweeps never materialize the gigabytes they move.  All-zero input
//     bytes become a zero-run too.
// Readers never see the split: copy_to() copies the stored overlap and
// zero-fills the rest, xor_into() XORs only the prefix (x ^ 0 == x), and
// integrity::crc_of() extends the prefix's CRC over the tail in O(log n).
// Sizes are always exact (wire_bytes(), nblocks and every simulated cost
// derive from size()), which keeps results byte-identical to the vector
// representation.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

namespace raidx::block {

class Payload {
 public:
  Payload() = default;

  /// Keep `bytes` up to their last nonzero byte: the vector itself (one
  /// shared buffer, no copy) when it ends in one, else a copy of that
  /// prefix, and no storage at all when every byte is zero.
  explicit Payload(std::vector<std::byte> bytes) : len_(bytes.size()) {
    const std::size_t n = nonzero_prefix(bytes);
    if (n == 0) return;
    if (n < len_) {
      bytes = std::vector<std::byte>(bytes.begin(), bytes.begin() + n);
    }
    base_ = std::make_shared<const std::vector<std::byte>>(std::move(bytes));
  }

  /// A run of `n` zero bytes with no backing storage.
  static Payload zeros(std::size_t n) {
    Payload p;
    p.len_ = n;
    return p;
  }

  static Payload own(std::vector<std::byte> bytes) {
    return Payload(std::move(bytes));
  }

  /// Copy `bytes`, up to their last nonzero byte, into fresh shared storage.
  static Payload copy(std::span<const std::byte> bytes) {
    Payload p = zeros(bytes.size());
    const std::size_t n = nonzero_prefix(bytes);
    if (n > 0) {
      p.base_ = std::make_shared<const std::vector<std::byte>>(
          bytes.begin(), bytes.begin() + n);
    }
    return p;
  }

  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }

  /// True when the stored prefix is empty: every byte reads as 0.
  bool is_zeros() const { return base_ == nullptr; }

  /// O(1) sub-range sharing the same storage (or the same zero-run).
  /// A slice that lies wholly in the zero tail is the canonical zero-run
  /// (offset 0, no storage): it has no stored byte for the offset to index,
  /// and carrying a stale offset invites any consumer that mixes
  /// is_zeros() checks with offset arithmetic -- the checksum plane does
  /// both -- to compute different answers for a slice and its
  /// materialized bytes.
  Payload slice(std::size_t off, std::size_t len) const {
    assert(off + len <= len_);
    Payload p = zeros(len);
    if (len > 0 && off < stored().size()) {
      p.base_ = base_;
      p.off_ = off_ + off;
    }
    return p;
  }

  /// The stored prefix: bytes [0, stored().size()) of the payload; every
  /// byte after it is zero.  Empty for a zero-run.
  std::span<const std::byte> stored() const {
    if (base_ == nullptr) return {};
    return {base_->data() + off_, std::min(len_, base_->size() - off_)};
  }

  /// Copy `out.size()` bytes starting at offset `from` into `out`: the
  /// stored overlap, then zeros.
  void copy_to(std::span<std::byte> out, std::size_t from = 0) const {
    assert(from + out.size() <= len_);
    const std::span<const std::byte> s = stored();
    const std::span<const std::byte> have =
        s.subspan(std::min(from, s.size()));
    const std::size_t n = std::min(out.size(), have.size());
    std::copy_n(have.begin(), n, out.begin());
    std::fill(out.begin() + n, out.end(), std::byte{0});
  }

  std::vector<std::byte> to_vector() const {
    std::vector<std::byte> v(len_);
    copy_to(v);
    return v;
  }

 private:
  /// Length of `bytes` without their trailing zero bytes.
  static std::size_t nonzero_prefix(std::span<const std::byte> bytes) {
    std::size_t n = bytes.size();
    // A word at a time: the tails this trims run to tens of KB.
    while (n >= sizeof(std::uint64_t)) {
      std::uint64_t w = 0;
      std::memcpy(&w, bytes.data() + n - sizeof w, sizeof w);
      if (w != 0) break;
      n -= sizeof w;
    }
    while (n > 0 && bytes[n - 1] == std::byte{0}) --n;
    return n;
  }

  // Invariant: base_ is null, or off_ indexes into it and the view
  // overlaps it (stored() is never empty when base_ is set).
  std::shared_ptr<const std::vector<std::byte>> base_;
  std::size_t off_ = 0;
  std::size_t len_ = 0;
};

/// acc ^= src: only the stored prefix (x ^ 0 == x).
inline void xor_into(std::span<std::byte> acc, const Payload& src) {
  assert(acc.size() == src.size());
  const std::span<const std::byte> s = src.stored();
  for (std::size_t i = 0; i < s.size(); ++i) acc[i] ^= s[i];
}

}  // namespace raidx::block
