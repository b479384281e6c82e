// CRC32C (Castagnoli) block checksums for the integrity plane.
//
// Two properties matter to the simulator:
//   * determinism -- the checksum of a block is a pure function of its
//     bytes, so every run computes identical sums and corruption detection
//     is bit-reproducible;
//   * an O(log n) path for zero tails -- a block::Payload stores its bytes
//     only up to the last nonzero one, and pure-timing sweeps
//     (store_data=false) move gigabytes of logically-zero data as
//     zero-runs with no storage behind them at all; checksum maintenance
//     must not materialize those zeros.  Appending a zero byte to a CRC
//     register is a linear map over GF(2), so extending a CRC by n zero
//     bytes is one 32x32 bit-matrix power -- O(log n) matrix squarings, no
//     buffer.
// crc_of() checksums the stored prefix and extends it over the tail, so the
// checksum of any payload equals the checksum of its bytes materialized.
#pragma once

#include <cstdint>
#include <span>

#include "block/payload.hpp"

namespace raidx::integrity {

/// CRC32C of `data` appended to a message whose CRC so far is `crc`.
/// Pass 0 for a fresh message; the empty message has CRC 0.
std::uint32_t crc32c(std::uint32_t crc, std::span<const std::byte> data);

inline std::uint32_t crc32c(std::span<const std::byte> data) {
  return crc32c(0, data);
}

/// CRC32C of `crc`'s message extended by `n` zero bytes, in O(log n)
/// (GF(2) matrix exponentiation of the one-zero-byte register operator).
std::uint32_t crc32c_extend_zeros(std::uint32_t crc, std::uint64_t n);

/// CRC32C of a run of `n` zero bytes.
inline std::uint32_t crc32c_zeros(std::uint64_t n) {
  return crc32c_extend_zeros(0, n);
}

/// Checksum of a payload's bytes: CRC32C of the stored prefix, extended
/// over the zero tail in O(log n).  Identical to checksumming the
/// materialized bytes.
std::uint32_t crc_of(const block::Payload& p);

}  // namespace raidx::integrity
