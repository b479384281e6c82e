#include "integrity/checksum.hpp"

#include <array>

namespace raidx::integrity {

namespace {

// Reflected CRC32C table (polynomial 0x1EDC6F41, reflected 0x82F63B78).
constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
    }
    t[i] = c;
  }
  return t;
}

constexpr std::array<std::uint32_t, 256> kTable = make_table();

/// Advance the raw CRC register by one zero input byte.  Linear in the
/// register over GF(2): the table lookup index depends only on register
/// bits when the input byte is zero.
constexpr std::uint32_t zero_byte_step(std::uint32_t reg) {
  return (reg >> 8) ^ kTable[reg & 0xFF];
}

/// 32x32 GF(2) matrix as 32 columns: column j is M applied to bit j.
using Mat = std::array<std::uint32_t, 32>;

std::uint32_t mat_apply(const Mat& m, std::uint32_t v) {
  std::uint32_t r = 0;
  for (int j = 0; v != 0; ++j, v >>= 1) {
    if (v & 1) r ^= m[static_cast<std::size_t>(j)];
  }
  return r;
}

Mat mat_mul(const Mat& a, const Mat& b) {
  Mat r;
  for (int j = 0; j < 32; ++j) {
    r[static_cast<std::size_t>(j)] =
        mat_apply(a, b[static_cast<std::size_t>(j)]);
  }
  return r;
}

Mat zero_byte_matrix() {
  Mat m;
  for (int j = 0; j < 32; ++j) {
    m[static_cast<std::size_t>(j)] = zero_byte_step(1u << j);
  }
  return m;
}

/// ops[k] advances the register by 2^k zero bytes.  Built once: powers of
/// one matrix commute, so any n applies the operators of its set bits.
const std::array<Mat, 64>& zero_run_operators() {
  static const std::array<Mat, 64> ops = [] {
    std::array<Mat, 64> o;
    o[0] = zero_byte_matrix();
    for (std::size_t k = 1; k < o.size(); ++k) {
      o[k] = mat_mul(o[k - 1], o[k - 1]);
    }
    return o;
  }();
  return ops;
}

}  // namespace

std::uint32_t crc32c(std::uint32_t crc, std::span<const std::byte> data) {
  std::uint32_t reg = ~crc;
  for (std::byte b : data) {
    reg = (reg >> 8) ^
          kTable[(reg ^ static_cast<std::uint32_t>(b)) & 0xFF];
  }
  return ~reg;
}

std::uint32_t crc32c_extend_zeros(std::uint32_t crc, std::uint64_t n) {
  if (n == 0) return crc;
  // Work on the raw register (the ~ finalization is an affine wrapper).
  std::uint32_t reg = ~crc;
  const std::array<Mat, 64>& ops = zero_run_operators();
  for (std::size_t k = 0; n != 0; ++k, n >>= 1) {
    if (n & 1) reg = mat_apply(ops[k], reg);
  }
  return ~reg;
}

std::uint32_t crc_of(const block::Payload& p) {
  const std::span<const std::byte> s = p.stored();
  return crc32c_extend_zeros(crc32c(s), p.size() - s.size());
}

}  // namespace raidx::integrity
