// Layout policies: how logical blocks map to physical disk blocks.
//
// A Layout is pure address arithmetic (no simulation state), so every
// mapping property -- orthogonality, capacity accounting, contiguity of
// per-disk runs -- is unit- and property-testable in isolation.  The shared
// logical addressing follows the paper: block b belongs to stripe group
// s = b/n at slot j = b%n; stripe groups are laid across disk rows
// round-robin (row g = s%k), so consecutive groups land on different disks
// of the same SCSI bus and can be pipelined.
//
// Each layout also states its redundancy recipe as an inverse map:
// source_of() says what a physical slot holds and where its bytes can be
// re-derived from, and rebuild_row() groups a disk's slots into the units a
// rebuild restores under one lock scope.  Rebuild, repair and degraded
// reads in the controller follow this one recipe.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "block/sios.hpp"

namespace raidx::raid {

/// One physical slot's recipe: the logical block it carries and the blocks
/// its bytes can be re-derived from.
struct SlotSource {
  enum class Kind {
    kNone,  ///< nothing to restore: no redundancy, or an unused slot
    kCopy,  ///< another copy of the same logical block
    kXor,   ///< the XOR of the slot's parity-stripe peers
  };
  Kind kind = Kind::kNone;
  /// Logical block the slot carries; empty for RAID-5 parity and kNone.
  std::optional<std::uint64_t> lba;
  /// Lock group a writer of the slot's bytes holds.
  std::uint64_t lock_group = 0;
  /// kCopy: the other copies, in fallback order.  kXor: the stripe's
  /// peers, data blocks in logical order, then parity.
  std::vector<block::PhysBlock> from;
  /// kCopy: the copy is a RAID-x image whose deferred flush may still be
  /// in flight, so the controller's pending image bytes are fresher.
  bool pending_image_fresher = false;
};

class Layout {
 public:
  explicit Layout(block::ArrayGeometry geo) : geo_(geo) {}
  virtual ~Layout() = default;

  virtual std::string name() const = 0;

  /// Usable logical capacity in blocks.
  virtual std::uint64_t logical_blocks() const = 0;

  /// Primary (data) location of a logical block.
  virtual block::PhysBlock data_location(std::uint64_t lba) const = 0;

  /// Redundant copies of the block (empty for RAID-0/RAID-5).
  virtual std::vector<block::PhysBlock> mirror_locations(
      std::uint64_t lba) const {
    (void)lba;
    return {};
  }

  /// Does the first mirror of a contiguous per-disk data run form one
  /// contiguous run too?  RAID-1 pairs and RAID-10's chained backups keep
  /// a run's copies together, so a balanced read can move the whole
  /// extent; RAID-x clusters each stripe's images on one disk, so it
  /// cannot, and layouts without mirrors have nothing to move.
  virtual bool mirror_runs_contiguous() const { return false; }

  /// Lock group covering a logical block.  Per-block groups by default (no
  /// false sharing between independent writers); RAID-5 locks whole
  /// stripes, because concurrent read-modify-writes within one stripe
  /// would race on its parity block.
  virtual std::uint64_t lock_group_of(std::uint64_t lba) const { return lba; }

  /// The recipe of physical slot (disk, offset).  Layouts without
  /// redundancy report every slot as kNone.
  virtual SlotSource source_of(int disk, std::uint64_t offset) const {
    (void)disk;
    (void)offset;
    return {};
  }

  /// Rows a rebuild of `disk` sweeps, in the layout's own geometry units;
  /// 0 when the layout cannot rebuild.
  virtual std::uint64_t rebuild_rows(int disk) const {
    (void)disk;
    return 0;
  }

  /// The extents of `disk` a rebuild restores at sweep row `row`, in
  /// restore order, all under one lock scope.  Over every row they cover
  /// exactly the disk's slots that have a source.  Default: the one slot
  /// at offset `row`.
  virtual std::vector<block::PhysExtent> rebuild_row(int disk,
                                                     std::uint64_t row) const {
    return {block::PhysExtent{disk, row, 1}};
  }

  const block::ArrayGeometry& geometry() const { return geo_; }

  /// Blocks per full stripe group (the natural write-chunk size).
  virtual std::uint32_t stripe_width() const {
    return static_cast<std::uint32_t>(geo_.nodes);
  }

 protected:
  /// A slot holding `lba`, restored from the copy at `from`.
  SlotSource copy_of(std::uint64_t lba, block::PhysBlock from,
                     bool pending_image_fresher = false) const {
    return SlotSource{SlotSource::Kind::kCopy, lba, lock_group_of(lba),
                      {from}, pending_image_fresher};
  }

  block::ArrayGeometry geo_;
};

/// A maximal contiguous per-disk run of data locations, with the logical
/// block stored at each of its positions.
struct MappedExtent {
  block::PhysExtent extent;
  std::vector<std::uint64_t> lbas;
};

/// Merge the data locations of [lba, lba+nblocks) into maximal contiguous
/// per-disk extents, preserving logical order within each disk.  Large
/// parallel I/O relies on this: a full-stripe access becomes exactly one
/// run per disk.
std::vector<MappedExtent> data_extents(const Layout& layout, std::uint64_t lba,
                                       std::uint32_t nblocks);

}  // namespace raidx::raid
