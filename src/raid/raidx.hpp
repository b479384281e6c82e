// RAID-x: orthogonal striping and mirroring (OSM) -- the paper's core
// contribution.
//
// Data blocks stripe across all n*k disks exactly like RAID-0 (full-stripe
// parallelism).  The mirror images of one stripe group are placed
// *orthogonally*:
//   * the images of the n-1 blocks NOT on the stripe's image node d are
//     CLUSTERED -- stored contiguously on node d's disk of the same row, so
//     they can be flushed as one long sequential background write;
//   * the image of the block that lives on node d itself goes to node
//     (d+1) mod n (it cannot share a disk with its data block);
//   * d = n-1 - (s mod n) rotates with the stripe index s, spreading mirror
//     load over all disks.
// Hence every stripe's images occupy exactly two disks, no block shares a
// disk (or node) with its own image, and the array tolerates one disk
// failure per mirror group -- the invariants Section 2 of the paper states,
// all property-tested in tests/raidx_layout_test.cpp.
//
// Disk space accounting: each disk is split into three zones --
//   [0, q_max)                    data zone (one block per stripe-row q)
//   [q_max, q_max*n)              clustered-image zone ((n-1) slots per q)
//   [q_max*n, q_max*(n+1))        neighbor-image zone (1 slot per q)
// with q_max = blocks_per_disk / (n+1).  For a given row g and stripe-row
// q there is exactly one stripe s = (q*k + g)... more precisely s is the
// unique stripe with s % k == g and s / k == q, so zone slots never
// collide.  Only ~1/n of each disk's image slots are populated (the ones
// for stripes whose image node it is); the reservation wastes address
// space, not simulated storage.
#pragma once

#include "raid/layout.hpp"

namespace raidx::raid {

// Hybrid (HDA-style) variant: with `hybrid` set, the disk rows split in
// half -- data stripes over the top rows (SSD in a hybrid cluster), ALL
// mirror images land on the bottom rows (HDD).  The placement logic is
// unchanged -- image node d still rotates, clustered runs stay one long
// sequential write -- only the *row* of every image disk shifts down by
// k/2.  That routes RAID-x's small random foreground writes at flash and
// its long sequential background image flushes at spinning media: the
// paper's key asymmetry, inverted onto modern hardware.  Zone split per
// HDD disk: [0, q_max*(n-1)) clustered, [q_max*(n-1), q_max*n) neighbor,
// with q_max = blocks_per_disk / n (the data zone moved off-device, so the
// image zones stretch).  SSD disks are pure data: [0, q_max).
class RaidxLayout : public Layout {
 public:
  explicit RaidxLayout(block::ArrayGeometry geo, bool hybrid = false);

  std::string name() const override {
    return hybrid_ ? "RAID-x/hybrid" : "RAID-x";
  }

  std::uint64_t logical_blocks() const override {
    return static_cast<std::uint64_t>(geo_.nodes) *
           static_cast<std::uint64_t>(data_rows()) * q_max_;
  }

  block::PhysBlock data_location(std::uint64_t lba) const override;
  std::vector<block::PhysBlock> mirror_locations(
      std::uint64_t lba) const override;

  /// Stripe group index of a logical block.
  std::uint64_t stripe_of(std::uint64_t lba) const {
    return lba / static_cast<std::uint64_t>(geo_.nodes);
  }
  std::uint64_t stripe_first_lba(std::uint64_t stripe) const {
    return stripe * static_cast<std::uint64_t>(geo_.nodes);
  }

  /// The node whose disk clusters this stripe's images.
  int image_node(std::uint64_t stripe) const;

  /// Where a whole stripe's images go, for the background flush.
  struct StripeImages {
    /// The clustered run: images of the n-1 off-image-node blocks, one
    /// contiguous extent writable as a single long sequential op.
    block::PhysExtent clustered;
    /// Logical blocks stored in the run, in run order.
    std::vector<std::uint64_t> clustered_lbas;
    /// The image of the block living on the image node itself.
    block::PhysBlock neighbor;
    std::uint64_t neighbor_lba;
  };
  StripeImages stripe_images(std::uint64_t stripe) const;

  /// A data slot is restored from its image (a still-pending deferred
  /// flush is fresher); a populated image slot from the data block it
  /// mirrors.  Row q of a rebuild restores the data slot at q, plus the
  /// clustered run and the neighbor slot of stripe-row q when the disk
  /// holds them.
  SlotSource source_of(int disk, std::uint64_t offset) const override;
  std::uint64_t rebuild_rows(int /*disk*/) const override { return q_max_; }
  std::vector<block::PhysExtent> rebuild_row(
      int disk, std::uint64_t row) const override;

  /// Zone boundaries (exposed for tests and the rebuild engine).
  std::uint64_t data_zone_blocks() const { return q_max_; }
  std::uint64_t clustered_zone_base() const { return hybrid_ ? 0 : q_max_; }
  std::uint64_t neighbor_zone_base() const {
    return q_max_ * static_cast<std::uint64_t>(geo_.nodes -
                                               (hybrid_ ? 1 : 0));
  }

  // ------------------------------------------------------------------ //
  // Row roles.  Non-hybrid: every row holds both data and images, and the
  // row maps below are the identity -- callers written against them behave
  // bit-identically to the pre-hybrid arithmetic.

  bool hybrid() const { return hybrid_; }
  /// Rows that carry data stripes (all of them, or the top half).
  int data_rows() const {
    return hybrid_ ? geo_.disks_per_node / 2 : geo_.disks_per_node;
  }
  bool holds_data(int row) const { return !hybrid_ || row < data_rows(); }
  bool holds_images(int row) const { return !hybrid_ || row >= data_rows(); }
  /// Row of the disks holding images for data row `data_row`.
  int image_row(int data_row) const {
    return hybrid_ ? data_row + data_rows() : data_row;
  }
  /// Data row whose images live on image row `row` (inverse of image_row).
  int data_row_of(int row) const {
    return hybrid_ && row >= data_rows() ? row - data_rows() : row;
  }
  /// The unique stripe with data on (row, q).
  std::uint64_t stripe_at(int row, std::uint64_t q) const {
    return q * static_cast<std::uint64_t>(data_rows()) +
           static_cast<std::uint64_t>(row);
  }

 private:
  std::uint64_t q_max_;
  bool hybrid_;
};

}  // namespace raidx::raid
