// RAID-10 with chained declustering (Hsiao & DeWitt).
//
// Each disk's primary data is striped RAID-0 style over the top half of the
// array; its backup copy lives on the *next* node's disk of the same row
// (the "chain"), in the mirror zone (bottom half).  Unlike RAID-x, a write
// must synchronously update both copies, and the mirror copies of one
// stripe scatter over n different disks as n individual writes -- the two
// properties responsible for the parallel-write gap the paper measures
// (Table 2: nB/2 vs RAID-x's nB).
//
// Hybrid (HDA-style) variant: with `hybrid` set, the disk rows split in
// half instead of every disk splitting in half -- primaries fill the whole
// of the top rows (SSD in a hybrid cluster), mirrors the whole of the
// bottom rows (HDD).  The chain is unchanged: the primary on (row g,
// node j) backs up to (row g + k/2, node (j+1) mod n).  Usable capacity is
// identical to the homogeneous split (n * k/2 * blocks_per_disk).
#pragma once

#include <cassert>

#include "raid/layout.hpp"

namespace raidx::raid {

class Raid10Layout : public Layout {
 public:
  explicit Raid10Layout(block::ArrayGeometry geo, bool hybrid = false)
      : Layout(geo), hybrid_(hybrid) {
    assert(!hybrid_ || geo_.disks_per_node % 2 == 0);
  }

  std::string name() const override {
    return hybrid_ ? "RAID-10/hybrid" : "RAID-10";
  }

  std::uint64_t logical_blocks() const override {
    return geo_.total_blocks() / 2;
  }

  block::PhysBlock data_location(std::uint64_t lba) const override;
  std::vector<block::PhysBlock> mirror_locations(
      std::uint64_t lba) const override;
  bool mirror_runs_contiguous() const override { return true; }

  /// A primary is restored from its chained backup on the next node; a
  /// backup from the previous node's primary.  Row r of a rebuild restores
  /// the primary at offset r and the backup at mirror_zone_base() + r.
  SlotSource source_of(int disk, std::uint64_t offset) const override;
  std::uint64_t rebuild_rows(int /*disk*/) const override {
    return data_zone_blocks();
  }
  std::vector<block::PhysExtent> rebuild_row(
      int disk, std::uint64_t row) const override;

  /// First physical block of the mirror zone on a mirror-holding disk
  /// (0 in hybrid mode: the whole bottom-row disk is mirror zone).
  std::uint64_t mirror_zone_base() const {
    return hybrid_ ? 0 : geo_.blocks_per_disk / 2;
  }
  /// Physical offsets [0, data_zone_blocks) hold primaries on a
  /// data-holding disk.
  std::uint64_t data_zone_blocks() const {
    return hybrid_ ? geo_.blocks_per_disk : geo_.blocks_per_disk / 2;
  }

  // ------------------------------------------------------------------ //
  // Row roles; identity maps when non-hybrid (same convention as
  // RaidxLayout -- callers written against these behave bit-identically
  // to the pre-hybrid arithmetic).

  bool hybrid() const { return hybrid_; }
  /// Rows that carry primary data (all of them, or the top half).
  int data_rows() const {
    return hybrid_ ? geo_.disks_per_node / 2 : geo_.disks_per_node;
  }
  bool holds_data(int row) const { return !hybrid_ || row < data_rows(); }
  bool holds_images(int row) const { return !hybrid_ || row >= data_rows(); }
  /// Row of the disks mirroring data row `data_row`.
  int image_row(int data_row) const {
    return hybrid_ ? data_row + data_rows() : data_row;
  }
  /// Data row mirrored on row `row` (inverse of image_row).
  int data_row_of(int row) const {
    return hybrid_ && row >= data_rows() ? row - data_rows() : row;
  }
  /// The unique stripe with primaries on data row `row` at offset.
  std::uint64_t stripe_at(int row, std::uint64_t offset) const {
    return offset * static_cast<std::uint64_t>(data_rows()) +
           static_cast<std::uint64_t>(row);
  }

 private:
  bool hybrid_;
};

}  // namespace raidx::raid
